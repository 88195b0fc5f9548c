package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"leo"
	"leo/internal/baseline"
	"leo/internal/core"
)

// paperApps are the paper's running examples (Figs. 1, 10 and 11).
var paperApps = []string{"kmeans", "swish", "x264"}

const (
	calibrateSetupReps = 3    // set-ups per run; setup_s is their median
	paperDeadline      = 10.0 // seconds per executed job, as leo-runtime's default
	paperNoise         = 0.01 // relative measurement noise, as leo-runtime's default
	warmWindows        = 3    // warm recalibrations after each cold fit
)

type paperApp struct {
	name                  string
	app                   *leo.App
	perfPrior, powerPrior *leo.ModelPrior
	truePerf, truePower   []float64
	maxRate               float64
}

type calEnv struct {
	space leo.Space
	apps  []paperApp
	times setupTimes // serverS stays 0: there is no server
}

// setupCalibrate profiles the suite on the paper space and fits each
// running example's leave-one-out priors.
func setupCalibrate() (*calEnv, error) {
	env := &calEnv{space: leo.PaperSpace()}
	t0 := time.Now()
	db, err := leo.CollectProfiles(env.space, leo.Benchmarks(), 0, nil)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	for _, name := range paperApps {
		idx, err := db.AppIndex(name)
		if err != nil {
			return nil, err
		}
		rest, truePerf, truePower, err := db.LeaveOneOut(idx)
		if err != nil {
			return nil, err
		}
		pa := paperApp{name: name, truePerf: truePerf, truePower: truePower}
		if pa.perfPrior, err = leo.NewModelPrior(rest.Perf, leo.ModelOptions{}); err != nil {
			return nil, err
		}
		if pa.powerPrior, err = leo.NewModelPrior(rest.Power, leo.ModelOptions{}); err != nil {
			return nil, err
		}
		if pa.app, err = leo.Benchmark(name); err != nil {
			return nil, err
		}
		for _, v := range truePerf {
			pa.maxRate = max(pa.maxRate, v)
		}
		env.apps = append(env.apps, pa)
	}
	t2 := time.Now()
	env.times = setupTimes{profileS: t1.Sub(t0).Seconds(), priorS: t2.Sub(t1).Seconds(), totalS: t2.Sub(t0).Seconds()}
	return env, nil
}

// calRun accumulates one calibrate-paper run's samples.
type calRun struct {
	cold, warm, plan, firstPlan []time.Duration
	calWall                     time.Duration
	calCount                    int
	accP, accQ, energy          []float64
	attempted, failed           int64
	newCtrl                     []time.Duration
}

// runCalibrate is one run of calibrate-paper: rounds over the running
// examples until the next round would overrun --seconds (at least one).
// Each job builds a fresh LEO controller over the shared priors, calibrates
// it cold, plans, recalibrates warm and plans again a few times, and
// executes a job that an Optimal controller executes too.
func runCalibrate(ctx context.Context, o options) (*result, error) {
	var env *calEnv
	var setups []setupTimes
	for i := 0; i < calibrateSetupReps; i++ {
		var err error
		if env, err = setupCalibrate(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, env.times)
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	before, err := scrapeLocal()
	if err != nil {
		return nil, err
	}
	run := &calRun{}
	loopStart := time.Now()
	for round := 0; ; round++ {
		roundStart := time.Now()
		for i := range env.apps {
			if err := run.job(ctx, env, &env.apps[i], o.seed, round*len(env.apps)+i, tr); err != nil {
				return nil, err
			}
		}
		if elapsed := time.Since(loopStart); elapsed+time.Since(roundStart) > time.Duration(o.seconds*float64(time.Second)) {
			break
		}
	}
	after, err := scrapeLocal()
	if err != nil {
		return nil, err
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(env)

	fmt.Printf("jobs=%d calibrations=%d plans=%d attempted=%d failed=%d\n",
		len(run.energy), run.calCount, len(run.plan), run.attempted, run.failed)
	if run.failed > 0 {
		return nil, checkFailed("%d of %d estimation, planning or job steps failed", run.failed, run.attempted)
	}
	var setupS []float64
	for _, t := range setups {
		setupS = append(setupS, t.totalS)
	}
	res := &result{attempted: run.attempted, failed: run.failed, e2e: metricSet{}, layers: metricSet{}}
	planMs := durationsIn(run.plan, time.Millisecond)
	warmMs := durationsIn(run.warm, time.Millisecond)
	firstMs := durationsIn(run.firstPlan, time.Millisecond)
	fmt.Printf("not gated: capacity_windows_per_s=%.3f plan_p99_ms=%.3f observe_p99_ms=%.3f first_plan_p90_ms=%.3f (n=%d, %d, %d)\n",
		float64(run.calCount)/run.calWall.Seconds(), quantile(planMs, 0.99), quantile(warmMs, 0.99), quantile(firstMs, 0.9), len(planMs), len(warmMs), len(firstMs))
	m := res.e2e
	m.add("setup_s", median(setupS), "s")
	m.add("plan_p50_ms", quantile(planMs, 0.5), "ms")
	m.add("observe_p50_ms", quantile(warmMs, 0.5), "ms")
	m.add("first_plan_p50_ms", quantile(firstMs, 0.5), "ms")
	m.add("success_rate", 1-ratio(float64(run.failed), float64(run.attempted)), "ratio")
	m.add("accuracy_perf", mean(run.accP), "ratio")
	m.add("accuracy_power", mean(run.accQ), "ratio")
	m.add("energy_over_optimal", mean(run.energy), "ratio")
	m.add("fit_p50_s", median(durationsIn(run.cold, time.Second)), "s")
	m.add("heap_mb", float64(ms.HeapAlloc)/(1<<20), "MB")
	if !o.trace {
		return res, nil
	}

	l := res.layers
	spans := tr.snapshot()
	addSetupLayers(l, setups)
	// No server boots here; the nearest stage is building a controller.
	l.add("setup.server_s", median(durationsIn(run.newCtrl, time.Second)), "s")
	l.add("traced.plan_p50_ms", m["plan_p50_ms"].Value, "ms")
	l.add("traced.observe_p50_ms", m["observe_p50_ms"].Value, "ms")
	l.add("control.calibrate_s_p50", median(durationsIn(durations(spans, "control.calibrate"), time.Second)), "s")
	l.add("control.plan_ms_p50", median(durationsIn(durations(spans, "control.plan"), time.Millisecond)), "ms")
	coldFits := durations(spans, "core.cold_fit")
	l.add("core.cold_fit_s_p50", median(durationsIn(coldFits, time.Second)), "s")
	var fitMs float64
	for _, name := range []string{"core.cold_fit", "core.warm_fit"} {
		for _, d := range durations(spans, name) {
			fitMs += float64(d) / float64(time.Millisecond)
		}
	}
	addServiceCounters(l, before, after)
	kernelMs := addMatrix(l, before, after)
	l.add("matrix.kernel_share", ratio(kernelMs, fitMs), "ratio")

	self := selfByName(spans, "control.calibrate")
	var total time.Duration
	for _, d := range durations(spans, "control.calibrate") {
		total += d
	}
	l.add("trace.residual_share", ratio(float64(self["control.calibrate"]), float64(total)), "ratio")
	printDecomposition("control.calibrate", total, self)
	if err := writeSpans(fmt.Sprintf("%s/spans-calibrate-paper-%d.jsonl", o.out, o.seed), spans); err != nil {
		return nil, err
	}
	if err := fillLayers(l); err != nil {
		return nil, err
	}
	return res, nil
}

// job runs one controller lifetime on app.
func (r *calRun) job(ctx context.Context, env *calEnv, pa *paperApp, seed int64, k int, tr *tracer) error {
	rng := rand.New(rand.NewSource(seed*7919 + int64(k)))
	machSeed, ctrlSeed, optSeed := rng.Int63(), rng.Int63(), rng.Int63()
	util := 0.3 + 0.5*rng.Float64()
	work := util * pa.maxRate * paperDeadline

	t0 := time.Now()
	mach, err := leo.NewMachine(env.space, pa.app, paperNoise, rand.New(rand.NewSource(machSeed)))
	if err != nil {
		return err
	}
	cur := new(int64)
	perfEst, powerEst := leo.NewLEOEstimatorFromPrior(pa.perfPrior), leo.NewLEOEstimatorFromPrior(pa.powerPrior)
	if tr != nil {
		perfEst = &tracedEstimator{Estimator: perfEst, tr: tr, parent: cur}
		powerEst = &tracedEstimator{Estimator: powerEst, tr: tr, parent: cur}
	}
	ctrl, err := leo.NewController("LEO", mach, perfEst, powerEst, 0, rand.New(rand.NewSource(ctrlSeed)))
	if err != nil {
		return err
	}
	r.newCtrl = append(r.newCtrl, time.Since(t0))

	calibrate := func(name string) (time.Duration, bool) {
		*cur = tr.id()
		start := time.Now()
		err := ctrl.CalibrateContext(ctx)
		d := time.Since(start)
		tr.record(*cur, 0, 0, name, start, start.Add(d))
		r.attempted++
		r.calCount++
		r.calWall += d
		if err != nil {
			r.failed++
			return d, false
		}
		return d, true
	}
	plan := func(w float64) (time.Duration, bool) {
		start := time.Now()
		_, err := ctrl.PlanContext(ctx, w, paperDeadline)
		d := time.Since(start)
		tr.record(0, 0, 0, "control.plan", start, start.Add(d))
		r.attempted++
		r.plan = append(r.plan, d)
		if err != nil {
			r.failed++
			return d, false
		}
		return d, true
	}

	cold, ok := calibrate("control.calibrate")
	if !ok {
		return ctx.Err()
	}
	r.cold = append(r.cold, cold)
	first, ok := plan(work)
	if !ok {
		return ctx.Err()
	}
	r.firstPlan = append(r.firstPlan, cold+first)
	// Every plan follows a calibration, so each one builds the frontier
	// over fresh estimates: a memoized hull walk would time the cache.
	for i := 0; i < warmWindows; i++ {
		d, ok := calibrate("control.recalibrate")
		if !ok {
			return ctx.Err()
		}
		r.warm = append(r.warm, d)
		if _, ok := plan(work); !ok {
			return ctx.Err()
		}
	}
	perf, power := ctrl.Estimates()
	r.accP = append(r.accP, leo.Accuracy(perf, pa.truePerf))
	r.accQ = append(r.accQ, leo.Accuracy(power, pa.truePower))

	leoJob, err := ctrl.ExecuteJobContext(ctx, work, paperDeadline)
	r.attempted++
	if err != nil {
		r.failed++
		return nil
	}
	optMach, err := leo.NewMachine(env.space, pa.app, paperNoise, rand.New(rand.NewSource(machSeed)))
	if err != nil {
		return err
	}
	app, space := pa.app, env.space
	opt, err := leo.NewController("Optimal", optMach,
		leo.NewOracleEstimator(func() []float64 { return app.PhasePerfVector(space, 0) }),
		leo.NewOracleEstimator(func() []float64 { return app.PowerVector(space) }),
		0, rand.New(rand.NewSource(optSeed)))
	if err != nil {
		return err
	}
	optJob, err := opt.ExecuteJobContext(ctx, work, paperDeadline)
	r.attempted++
	if err != nil || !(optJob.Energy > 0) {
		r.failed++
		return nil
	}
	r.energy = append(r.energy, leoJob.Energy/optJob.Energy)
	return nil
}

// tracedEstimator hands out sessions whose fits are recorded as core spans
// under the calibration that caused them.
type tracedEstimator struct {
	leo.Estimator
	tr     *tracer
	parent *int64
}

func (e *tracedEstimator) NewSession(ctx context.Context) (baseline.Session, error) {
	s, err := e.Estimator.NewSession(ctx)
	if err != nil {
		return nil, err
	}
	return &tracedSession{Session: s, tr: e.tr, parent: e.parent}, nil
}

type tracedSession struct {
	baseline.Session
	tr     *tracer
	parent *int64
	fits   int
}

func (s *tracedSession) Update(ctx context.Context, obsIdx []int, obsVal []float64) ([]float64, error) {
	name := "core.warm_fit"
	if s.fits == 0 {
		name = "core.cold_fit"
	}
	s.fits++
	start := time.Now()
	est, err := s.Session.Update(ctx, obsIdx, obsVal)
	s.tr.record(0, *s.parent, 0, name, start, time.Now())
	return est, err
}

// Health forwards the wrapped session's numerical-health account, which the
// controller's jitter budget reads.
func (s *tracedSession) Health() core.Health {
	if hr, ok := s.Session.(baseline.HealthReporter); ok {
		return hr.Health()
	}
	return core.Health{}
}
