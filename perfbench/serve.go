package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"leo"
	"leo/internal/platform"
)

// serveSetupReps is how many times a serve run builds its set-up; setup_s
// is the median, so one slow build does not move it.
const serveSetupReps = 15

// latencySlices is how many consecutive slices of the open loop's steady
// part the latency percentiles are taken over; the reported value is their
// median.
const latencySlices = 10

// setupTimes are one set-up's stage timings in seconds.
type setupTimes struct{ profileS, priorS, serverS, totalS float64 }

// serveEnv is one booted server: profiles, per-class priors and ladders,
// the estimation server and its HTTP listener.
type serveEnv struct {
	space    platform.Space
	classes  []leo.ServiceClass
	srv      *leo.EstimationServer
	hs       *http.Server
	served   chan error
	base     string
	stateDir string
	times    setupTimes
}

// setupServe builds what `leo-runtime -serve` builds, for the workload's
// classes, and times it until the server accepts its first request.
func setupServe(o options, spec serveSpec, tr *tracer) (*serveEnv, error) {
	env := &serveEnv{space: spec.space()}
	t0 := time.Now()
	db, err := leo.CollectProfiles(env.space, leo.Benchmarks(), 0, nil)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	for _, name := range spec.classes {
		idx, err := db.AppIndex(name)
		if err != nil {
			return nil, err
		}
		rest, _, _, err := db.LeaveOneOut(idx)
		if err != nil {
			return nil, err
		}
		perfPrior, err := leo.NewModelPrior(rest.Perf, leo.ModelOptions{LeanResults: true})
		if err != nil {
			return nil, err
		}
		powerPrior, err := leo.NewModelPrior(rest.Power, leo.ModelOptions{LeanResults: true})
		if err != nil {
			return nil, err
		}
		tiers, err := leo.StandardServiceLadder(env.space, perfPrior, powerPrior, rest.Perf, rest.Power)
		if err != nil {
			return nil, err
		}
		app, err := leo.Benchmark(name)
		if err != nil {
			return nil, err
		}
		env.classes = append(env.classes, leo.ServiceClass{Name: name, Tiers: tiers, IdlePower: app.IdlePower})
	}
	t2 := time.Now()
	if spec.stateDir {
		if env.stateDir, err = scratchDir(o.out, "state"); err != nil {
			return nil, err
		}
	}
	env.srv, err = leo.NewEstimationServer(leo.ServiceConfig{
		Space:    env.space,
		Classes:  env.classes,
		Shards:   runtime.NumCPU(),
		StateDir: env.stateDir,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		env.srv.Close(context.Background())
		return nil, err
	}
	var h http.Handler = env.srv.Handler()
	if tr != nil {
		h = traceHandler(h, tr)
	}
	env.hs = &http.Server{Handler: h}
	env.served = make(chan error, 1)
	go func() { env.served <- env.hs.Serve(ln) }()
	env.base = "http://" + ln.Addr().String()
	resp, err := http.Get(env.base + "/healthz")
	if err != nil {
		env.close()
		return nil, fmt.Errorf("first request: %w", err)
	}
	resp.Body.Close()
	t3 := time.Now()
	env.times = setupTimes{t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), t3.Sub(t2).Seconds(), t3.Sub(t0).Seconds()}
	return env, nil
}

// shutdown stops the listener and drains the server; the state directory
// stays for the replay.
func (e *serveEnv) shutdown() error {
	if e.hs == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := e.hs.Shutdown(ctx)
	if serr := <-e.served; serr != nil && serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	if cerr := e.srv.Close(ctx); cerr != nil && err == nil {
		err = cerr
	}
	e.hs = nil
	return err
}

// close shuts down and removes the state directory.
func (e *serveEnv) close() {
	if err := e.shutdown(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: shutdown:", err)
	}
	if e.stateDir != "" {
		os.RemoveAll(e.stateDir)
	}
}

// traceHandler wraps the server's handler in a span per request that
// carries a request id.
func traceHandler(h http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		if id, err := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64); err == nil {
			tr.record(0, 0, id, "handler."+strings.TrimPrefix(r.URL.Path, "/v1/"), start, time.Now())
		}
	})
}

// runServe is one run of a serve workload: set-up (serveSetupReps times), an
// open-loop phase at the workload's fixed offered rate, a closed-loop
// saturation phase, the correctness checks and, when traced, the layer
// replay.
func runServe(ctx context.Context, o options, spec serveSpec) (*result, error) {
	openDur := o.seconds * spec.openShare
	closedDur := o.seconds - openDur
	truths, err := classTruths(spec.space(), spec.classes)
	if err != nil {
		return nil, err
	}
	openEv, err := buildSchedule(spec, truths, o.seed, openDur)
	if err != nil {
		return nil, err
	}

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var env *serveEnv
	var setups []setupTimes
	for i := 0; i < serveSetupReps; i++ {
		e, err := setupServe(o, spec, tr)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, e.times)
		if i < serveSetupReps-1 {
			e.close()
		}
		env = e
	}
	defer env.close()

	nSenders := runtime.NumCPU()
	var ids atomic.Uint64
	ctl := newSenderClient()
	c0, err := scrape(ctl, env.base)
	if err != nil {
		return nil, err
	}
	openS := make([]*sender, nSenders)
	for i := range openS {
		openS[i] = newSender(env.base, tr, &ids)
	}
	openStart := time.Now().Add(50 * time.Millisecond)
	for _, s := range openS {
		s.timedFrom = openStart.Add(time.Duration(spec.warmup * float64(time.Second)))
		s.steadyFrom = openStart.Add(time.Duration(spec.steadyFrom * float64(time.Second)))
	}
	if err := openLoop(ctx, openS, partition(openEv, nSenders), openStart); err != nil {
		return nil, fmt.Errorf("open loop: %w", err)
	}
	openEnd := time.Now()
	c1, err := scrape(ctl, env.base)
	if err != nil {
		return nil, err
	}
	// The phases share senders, so each tenant keeps one log across both;
	// only the open loop is timed from due times and traced.
	openStats := newPhaseStats()
	var lags, firstFit []time.Duration
	lat := map[string][]sample{}
	for _, s := range openS {
		openStats.merge(s.stats)
		lags = append(lags, s.lags...)
		firstFit = append(firstFit, s.firstFit...)
		for k, v := range s.lat {
			lat[k] = append(lat[k], v...)
		}
		s.stats, s.tr = newPhaseStats(), nil
	}
	// The closed loop re-drives the open loop's tenants back to back, so a
	// run admits a bounded number of tenants: every admitted tenant pins its
	// sessions' EM workspaces (about 2 MB each at 128 configurations) for the
	// server's lifetime.
	closedStart := time.Now()
	if err := closedLoop(ctx, openS, partition(openEv, nSenders), closedStart.Add(time.Duration(closedDur*float64(time.Second)))); err != nil {
		return nil, fmt.Errorf("closed loop: %w", err)
	}
	closedWall := time.Since(closedStart).Seconds()
	c2, err := scrape(ctl, env.base)
	if err != nil {
		return nil, err
	}

	closedStats := newPhaseStats()
	tenants := map[string]*tenantLog{}
	var windows []*windowLog
	for _, s := range openS {
		closedStats.merge(s.stats)
		for n, t := range s.tenants {
			tenants[n] = t
		}
		windows = append(windows, s.windows...)
	}
	fmt.Printf("open-loop  %.1fs:%s\n", openEnd.Sub(openStart).Seconds(), openStats)
	fmt.Printf("closed-loop %.1fs:%s\n", closedWall, closedStats)
	lagMs := durationsIn(lags, time.Millisecond)
	fmt.Printf("generator lag ms: p50=%.3f p99=%.3f max=%.3f (n=%d)\n",
		quantile(lagMs, 0.5), quantile(lagMs, 0.99), quantile(lagMs, 1), len(lagMs))
	// Validity: the open loop must have kept its schedule. A backlog that
	// never drained means the offered rate exceeded capacity, and the run's
	// latencies would describe a queue, not the server.
	if overrun := openEnd.Sub(openStart).Seconds() - openDur; overrun > max(1, 0.25*openDur) {
		return nil, fmt.Errorf("invalid run: the open loop finished %.1fs behind its %.1fs schedule (generator lag p99 %.0f ms)",
			overrun, openDur, quantile(lagMs, 0.99))
	}

	chk, err := checkServed(env, tenants, truths)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if err := env.shutdown(); err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}

	openSent, openFailed := openStats.totals()
	closedSent, closedFailed := closedStats.totals()
	res := &result{attempted: openSent + closedSent, failed: openFailed + closedFailed, e2e: metricSet{}, layers: metricSet{}}

	slice := time.Duration((openDur - spec.steadyFrom) / latencySlices * float64(time.Second))
	pct := func(kind string, q float64) float64 {
		return slicedQuantile(lat[kind], q, openS[0].steadyFrom, slice, time.Millisecond)
	}
	var closedDone []time.Time
	for _, w := range windows {
		if !w.done.Before(closedStart) {
			closedDone = append(closedDone, w.done)
		}
	}
	var firstPlan []float64
	for _, t := range tenants {
		if !t.regDue.IsZero() && !t.firstPlan.IsZero() {
			firstPlan = append(firstPlan, float64(t.firstPlan.Sub(t.regDue))/float64(time.Millisecond))
		}
	}
	var setupS []float64
	for _, t := range setups {
		setupS = append(setupS, t.totalS)
	}
	fmt.Printf("samples: plan=%d observe=%d first_plan=%d first_fit=%d checked_tenants=%d checked_plans=%d\n",
		len(lat["plan"]), len(lat["observe"]), len(firstPlan), len(firstFit), chk.tenants, chk.plans)

	// Tails and saturation throughput are printed, not reported: on a shared
	// 2-vCPU machine they swing with host contention far beyond any useful
	// regression bound.
	capacity := slicedRate(closedDone, closedStart, closedStart.Add(time.Duration(closedWall*float64(time.Second))), time.Second)
	fmt.Printf("not gated: capacity_windows_per_s=%.1f (median over 1-s slices) plan_p99_ms=%.3f observe_p99_ms=%.3f (each the median over %d slices) first_plan_p90_ms=%.3f (n=%d)\n",
		capacity, pct("plan", 0.99), pct("observe", 0.99), latencySlices, quantile(firstPlan, 0.9), len(firstPlan))
	m := res.e2e
	m.add("setup_s", median(setupS), "s")
	m.add("plan_p50_ms", pct("plan", 0.5), "ms")
	m.add("observe_p50_ms", pct("observe", 0.5), "ms")
	m.add("first_plan_p50_ms", quantile(firstPlan, 0.5), "ms")
	m.add("success_rate", 1-ratio(float64(res.failed), float64(res.attempted)), "ratio")
	m.add("accuracy_perf", chk.accPerf, "ratio")
	m.add("accuracy_power", chk.accPower, "ratio")
	m.add("energy_over_optimal", chk.energyRatio, "ratio")
	m.add("fit_p50_s", quantile(durationsIn(firstFit, time.Second), 0.5), "s")
	m.add("heap_mb", float64(ms.HeapAlloc)/(1<<20), "MB")

	if !o.trace {
		return res, nil
	}
	l := res.layers
	spans := tr.snapshot()
	addSetupLayers(l, setups)
	l.add("client.lag_ms_p99", quantile(lagMs, 0.99), "ms")
	l.add("traced.plan_p50_ms", m["plan_p50_ms"].Value, "ms")
	l.add("traced.observe_p50_ms", m["observe_p50_ms"].Value, "ms")
	handler := map[uint64]span{}
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "handler.") {
			handler[s.Req] = s
		}
	}
	transport := map[string][]float64{}
	for _, s := range spans {
		if h, ok := handler[s.Req]; ok && strings.HasPrefix(s.Name, "client.") {
			kind := strings.TrimPrefix(s.Name, "client.")
			transport[kind] = append(transport[kind], float64(s.dur()-h.dur())/float64(time.Millisecond))
		}
	}
	l.add("transport.plan_ms_p50", orZero(median(transport["plan"])), "ms")
	l.add("transport.observe_ms_p50", orZero(median(transport["observe"])), "ms")
	hPlan := durationsIn(durations(spans, "handler.plan"), time.Millisecond)
	hObs := durationsIn(durations(spans, "handler.observe"), time.Millisecond)
	l.add("service.plan_handler_ms_p50", orZero(quantile(hPlan, 0.5)), "ms")
	l.add("service.plan_handler_ms_p99", orZero(quantile(hPlan, 0.99)), "ms")
	l.add("service.observe_handler_ms_p50", orZero(quantile(hObs, 0.5)), "ms")
	l.add("service.observe_handler_ms_p99", orZero(quantile(hObs, 0.99)), "ms")
	l.add("service.register_handler_ms_p50", orZero(median(durationsIn(durations(spans, "handler.register"), time.Millisecond))), "ms")
	addServiceCounters(l, c0, c2)
	fmt.Printf("phase counters: open windows=%.0f closed windows=%.0f\n",
		delta(c0, c1, "leo_service_windows_total"), delta(c1, c2, "leo_service_windows_total"))

	rp, err := replayServe(env, spec, windows, tr)
	if err != nil {
		return nil, fmt.Errorf("layer replay: %w", err)
	}
	if spec.stateDir {
		if err := rp.matches(chk.estimates); err != nil {
			return nil, fmt.Errorf("layer replay does not reproduce the server: %w", err)
		}
		fmt.Printf("layer replay: %d tenants' final estimates match the server bit for bit\n", len(chk.estimates))
	}
	rp.report(l, handler, windows)
	// The request spans go to disk; the replay's are summarized above.
	if err := writeSpans(filepath.Join(o.out, fmt.Sprintf("spans-%s-%d.jsonl", spec.name, o.seed)), spans); err != nil {
		return nil, err
	}
	if err := fillLayers(l); err != nil {
		return nil, err
	}
	return res, nil
}

// addSetupLayers reports the median of each set-up stage.
func addSetupLayers(l metricSet, setups []setupTimes) {
	var p, q, s []float64
	for _, t := range setups {
		p = append(p, t.profileS)
		q = append(q, t.priorS)
		s = append(s, t.serverS)
	}
	l.add("setup.profile_s", median(p), "s")
	l.add("setup.prior_s", median(q), "s")
	l.add("setup.server_s", median(s), "s")
}

// addServiceCounters reports the server's own counters over both phases.
func addServiceCounters(l metricSet, before, after counters) {
	d := func(series string) float64 { return delta(before, after, series) }
	hits := d(`leo_service_plan_cache_total{result="hit"}`)
	misses := d(`leo_service_plan_cache_total{result="miss"}`)
	l.add("service.plan_cache_hit_ratio", ratio(hits, hits+misses), "ratio")
	l.add("service.seed_transfer_ratio", ratio(d("leo_service_seed_transfers_total"), d("leo_service_registers_total")), "ratio")
	l.add("service.batch_requests_mean", ratio(d("leo_service_batch_requests_sum"), d("leo_service_batch_requests_count")), "count")
	l.add("service.rejected_queue_full", d(`leo_service_rejected_total{reason="queue_full"}`), "count")
	l.add("service.rejected_canceled", d(`leo_service_rejected_total{reason="client_canceled"}`), "count")
	l.add("service.shed_windows", d("leo_service_shed_windows_total"), "count")
	l.add("service.estimation_failures", d("leo_service_estimation_failures_total"), "count")
	l.add("service.windows", d("leo_service_windows_total"), "count")
	l.add("core.batch_sessions_per_pass", ratio(d("leo_core_batch_sessions_total"), d("leo_core_batch_passes_total")), "count")
	cold, warm := d(`leo_core_em_fits_total{mode="cold"}`), d(`leo_core_em_fits_total{mode="warm"}`)
	l.add("core.fits_cold", cold, "count")
	l.add("core.fits_warm", warm, "count")
	l.add("core.em_iterations_per_fit", ratio(d("leo_core_em_iterations_total"), cold+warm), "count")
	l.add("core.health_fallbacks", d("leo_core_health_fallbacks_total"), "count")
	l.add("persist.appends", d("leo_persist_journal_appends_total"), "count")
}
