// Package control implements the runtime that integrates LEO (or a baseline
// estimator) into an energy-aware execution loop: sample a few
// configurations, estimate full power/performance tradeoffs, plan a
// minimal-energy schedule on the Pareto hull, execute with heartbeat
// feedback so performance goals are met despite estimation error, and react
// to workload phase changes by re-estimating (§6.4, §6.6). It also provides
// the race-to-idle heuristic the paper compares against (§6.2).
package control

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"leo/internal/baseline"
	"leo/internal/machine"
	"leo/internal/metrics"
	"leo/internal/pareto"
	"leo/internal/persist"
	"leo/internal/profile"
)

// Controller drives one machine/application pair with one estimation
// approach. Its estimators form a degradation ladder (tiers): jobs are
// served by the highest rung that works, and repeated estimation failures or
// sustained fault pressure demote the controller down the ladder — see
// AddFallbacks and Resilience.
type Controller struct {
	name    string
	mach    *machine.Machine
	samples int
	rng     *rand.Rand

	tiers []Tier // tiers[0] is the primary policy; Perf == nil ⇒ race-to-idle
	tier  int    // current rung
	res   Resilience

	// Per-metric estimation sessions for the current tier. A session keeps its
	// warm posterior across calibrations (LEO converges in far fewer EM
	// iterations from the previous window's fit); observations are dropped on
	// every replan because a replan means the phase may have changed. Sessions
	// are lazily (re)opened whenever the tier changes.
	perfSess  baseline.Session
	powerSess baseline.Session
	sessTier  int // tier the sessions belong to (-1: none opened yet)
	// coldRecal pins calibration to the one-shot Estimate path, refitting from
	// scratch each window. The figure experiments pin this to reproduce the
	// paper's per-window cold fits exactly.
	coldRecal bool

	perfEst  []float64
	powerEst []float64
	obsIdx   []int
	obsPerf  []float64
	replans  int
	// planner is the Pareto hull over planEstimates(), built lazily and
	// reused until the estimates or the dead-config set change. Every site
	// that mutates perfEst/powerEst/deadConfigs calls invalidateFrontier.
	planner *pareto.Planner
	// measuredRates remembers heartbeat-measured rates per configuration
	// across jobs, so later jobs correct for estimation error immediately.
	// Cleared on Calibrate (the estimates change, and so may the phase).
	measuredRates map[int]float64

	estFailStreak int          // consecutive calibration failures at this tier
	cleanJobs     int          // consecutive fault-free jobs while degraded
	deadConfigs   map[int]bool // configurations abandoned after actuation give-ups
	stats         DegradationReport
	events        *metrics.EventLog // optional decision log; nil disables emission

	// store, when attached, makes the estimation state crash-safe: every
	// successful calibration is journaled, and SnapshotState persists the
	// warm posterior. See AttachStateStore.
	store *persist.Store
}

// DefaultSamples is the number of configurations probed per calibration,
// matching §6.3 ("sample randomly select 20 configurations each").
const DefaultSamples = 20

// New builds a controller. estPerf and estPower must both be nil (the
// race-to-idle heuristic) or both non-nil (an estimator-driven policy).
// samples <= 0 selects DefaultSamples. rng is required unless both
// estimators are nil.
func New(name string, mach *machine.Machine, estPerf, estPower baseline.Estimator, samples int, rng *rand.Rand) (*Controller, error) {
	if (estPerf == nil) != (estPower == nil) {
		return nil, fmt.Errorf("control: estimators must be both nil or both set")
	}
	if estPerf != nil && rng == nil {
		return nil, fmt.Errorf("control: estimator-driven controller needs a random source")
	}
	if samples <= 0 {
		samples = DefaultSamples
	}
	tierName := "race-to-idle"
	if estPerf != nil {
		tierName = estPerf.Name()
	}
	return &Controller{
		name:     name,
		mach:     mach,
		samples:  samples,
		rng:      rng,
		tiers:    []Tier{{Name: tierName, Perf: estPerf, Power: estPower}},
		res:      Resilience{}.withDefaults(),
		sessTier: -1,
	}, nil
}

// SetColdRecalibration selects between the two calibration modes. With cold
// pinned (true) every calibration refits the estimator from scratch via its
// one-shot Estimate — the pre-session behavior, bit-identical to the paper
// reproduction figures. With cold off (the default) the controller keeps one
// session per metric per tier and each calibration is an incremental Update
// that warm-starts from the previous window's posterior.
func (c *Controller) SetColdRecalibration(cold bool) { c.coldRecal = cold }

// Name returns the controller's policy name.
func (c *Controller) Name() string { return c.name }

// RaceToIdle reports whether the controller's current tier is the
// race-to-idle heuristic (either by construction or after degrading to the
// terminal rung).
func (c *Controller) RaceToIdle() bool { return c.tiers[c.tier].Perf == nil }

// Replans returns the number of calibrations performed so far.
func (c *Controller) Replans() int { return c.replans }

// Calibrate probes `samples` random configurations and refreshes the power
// and performance estimates. Probes use the machine's measurement interface
// without consuming job time; the paper charges this as LEO's (small)
// one-time overhead separately (§6.7). It is a no-op for race-to-idle.
//
// Calibration is hardened: faulted probe readings are discarded before they
// reach the estimator, estimator output is validated before it can reach the
// planner, and after MaxEstimationFailures consecutive failures the
// controller degrades down its fallback ladder. Calibrate only returns an
// error once the bottom rung has failed too.
func (c *Controller) Calibrate() error { return c.CalibrateContext(context.Background()) }

// CalibrateContext is Calibrate under a caller-supplied context. Cancellation
// of ctx aborts an in-flight EM fit between iterations and is returned
// immediately — an external shutdown is not an estimator failure, so it never
// walks the degradation ladder. A fit that outlives Resilience.FitWatchdog,
// by contrast, is canceled by the controller itself and does count against
// the tier.
func (c *Controller) CalibrateContext(ctx context.Context) error {
	for {
		err := c.calibrateTier(ctx)
		if err == nil {
			c.estFailStreak = 0
			return nil
		}
		if ctx.Err() != nil {
			// The caller canceled, not the estimator misbehaving: surface the
			// cancellation without burning a rung.
			return err
		}
		c.stats.EstimationFailures++
		mEstimationFailures.Inc()
		c.estFailStreak++
		if c.estFailStreak < c.res.MaxEstimationFailures {
			continue // transient: retry with a fresh probe mask
		}
		if !c.degrade() {
			return err
		}
	}
}

// calibrateTier runs one calibration attempt at the current tier.
func (c *Controller) calibrateTier(ctx context.Context) error {
	if c.RaceToIdle() {
		return nil
	}
	tier := c.tiers[c.tier]
	space := c.mach.Space()
	k := c.samples
	if k > space.N() {
		k = space.N()
	}
	mask := profile.RandomMask(space.N(), k, c.rng)
	rawPerf := make([]float64, len(mask))
	rawPower := make([]float64, len(mask))
	for i, idx := range mask {
		cfg := space.ConfigAt(idx)
		rawPerf[i] = c.mach.MeasurePerf(cfg)
		rawPower[i] = c.mach.MeasurePower(cfg)
	}
	// Discard faulted probes (NaN meter dropouts, lost heartbeat batches
	// reading zero) before they reach the estimator — the same filter the
	// estimation server applies to tenant-reported readings.
	w := FilterWindow(mask, rawPerf, rawPower)
	if w.Dropped > 0 {
		c.stats.DroppedObservations += int64(w.Dropped)
		mDroppedObservations.Add(uint64(w.Dropped))
	}
	if len(w.ObsIdx) < c.res.MinValidSamples {
		return fmt.Errorf("control: only %d of %d calibration probes usable", len(w.ObsIdx), len(mask))
	}
	perfEst, powerEst, err := c.estimateTier(ctx, tier, w)
	if err != nil {
		return err
	}
	if err := checkEstimates(perfEst, powerEst, space.N()); err != nil {
		return fmt.Errorf("control: %s estimates rejected: %w", tier.Name, err)
	}
	// Journal the accepted window before its estimates take effect: once a
	// caller can observe this calibration, a restart must reproduce it.
	if err := c.journalWindow(w.ObsIdx, w.Perf, w.Power); err != nil {
		return fmt.Errorf("control: journaling calibration window: %w", err)
	}
	c.perfEst, c.powerEst = sanitizeEstimates(perfEst, powerEst)
	c.invalidateFrontier()
	c.obsIdx, c.obsPerf = w.ObsIdx, w.Perf
	c.measuredRates = nil
	c.replans++
	mReplans.Inc()
	c.events.Emit("calibrate",
		"controller", c.name, "tier", tier.Name,
		"replan", c.replans, "probes", len(w.ObsIdx))
	return nil
}

// estimateTier turns one filtered window into full estimate vectors, via
// cold one-shot fits or — the shared FitWindow path — the tier's warm
// per-metric sessions. In session mode the fit runs under the FitWatchdog
// deadline: a hung or slow EM fit is canceled mid-iteration and reported as
// an estimation failure, which feeds the same degradation ladder as any
// other calibration error. A jitter-budget trip (see CheckJitter) counts
// the same way, and the degrade discards the session, so the budget resets
// with the fresh one.
func (c *Controller) estimateTier(ctx context.Context, tier Tier, w Window) (perfEst, powerEst []float64, err error) {
	if c.coldRecal {
		perfEst, err = tier.Perf.Estimate(w.ObsIdx, w.Perf)
		if err != nil {
			return nil, nil, fmt.Errorf("control: performance estimation: %w", err)
		}
		powerEst, err = tier.Power.Estimate(w.ObsIdx, w.Power)
		if err != nil {
			return nil, nil, fmt.Errorf("control: power estimation: %w", err)
		}
		return perfEst, powerEst, nil
	}
	perfSess, powerSess, err := c.tierSessions(ctx)
	if err != nil {
		return nil, nil, fmt.Errorf("control: opening estimation sessions: %w", err)
	}
	perfEst, powerEst, err = FitWindow(ctx, perfSess, powerSess, w, c.res)
	if err != nil {
		var jerr *JitterBudgetError
		if errors.As(err, &jerr) {
			c.noteJitterTrip(jerr)
		}
		return nil, nil, err
	}
	return perfEst, powerEst, nil
}

// noteJitterTrip feeds a jitter-budget trip into the degradation report,
// metrics, and the decision log.
func (c *Controller) noteJitterTrip(e *JitterBudgetError) {
	c.stats.JitterTrips++
	mJitterTrips.Inc()
	c.events.Emit("jitter_budget",
		"controller", c.name, "metric", e.Metric,
		"shift", e.Shift, "events", e.Events)
}

// tierSessions returns the current tier's per-metric sessions, opening fresh
// ones whenever the controller has changed rungs since they were created (a
// demoted-then-promoted tier starts over rather than trusting a posterior
// from before the failure).
func (c *Controller) tierSessions(ctx context.Context) (perf, power baseline.Session, err error) {
	if c.perfSess == nil || c.sessTier != c.tier {
		tier := c.tiers[c.tier]
		perfSess, err := tier.Perf.NewSession(ctx)
		if err != nil {
			return nil, nil, err
		}
		powerSess, err := tier.Power.NewSession(ctx)
		if err != nil {
			return nil, nil, err
		}
		c.perfSess, c.powerSess, c.sessTier = perfSess, powerSess, c.tier
	}
	return c.perfSess, c.powerSess, nil
}

// Estimates returns the controller's current performance and power estimates
// (nil before the first Calibrate).
func (c *Controller) Estimates() (perf, power []float64) {
	return c.perfEst, c.powerEst
}

// Plan computes the minimal-energy schedule for w heartbeats within t
// seconds from the current estimates (or the race-to-idle schedule).
func (c *Controller) Plan(w, t float64) (*pareto.Plan, error) {
	return c.PlanContext(context.Background(), w, t)
}

// PlanContext is Plan under a caller-supplied context, which bounds the
// calibration Plan may trigger when no estimates exist yet.
func (c *Controller) PlanContext(ctx context.Context, w, t float64) (*pareto.Plan, error) {
	if c.RaceToIdle() {
		return c.raceToIdlePlan(w, t)
	}
	if c.perfEst == nil {
		if err := c.CalibrateContext(ctx); err != nil {
			return nil, err
		}
		if c.RaceToIdle() {
			// Calibration degraded all the way to the terminal rung.
			return c.raceToIdlePlan(w, t)
		}
	}
	pl, err := c.frontier()
	if err != nil {
		return nil, err
	}
	plan, err := pl.MinimizeEnergy(w, t)
	if err == nil {
		return plan, nil
	}
	// The estimates say the demand is infeasible (possibly wrongly).
	// Fall back to running the believed-fastest configuration flat out.
	best := c.believedFastest()
	if best < 0 {
		return nil, err
	}
	return &pareto.Plan{
		Allocations: []pareto.Allocation{{Index: best, Time: t}},
		Rate:        w / t,
		Energy:      c.powerEst[best] * t,
	}, nil
}

// frontier returns the controller's cached Pareto planner, rebuilding it
// when estimates were republished, a restore/degrade cleared them, or a
// configuration was marked dead since the last build. Plans served from the
// cache are bit-identical to fresh pareto calls over planEstimates().
func (c *Controller) frontier() (*pareto.Planner, error) {
	if c.planner == nil {
		perf, power := c.planEstimates()
		pl, err := pareto.NewPlanner(perf, power, c.mach.App().IdlePower)
		if err != nil {
			return nil, err
		}
		c.planner = pl
	}
	return c.planner, nil
}

// invalidateFrontier drops the cached planner; the next frontier() call
// rebuilds it from the current estimates.
func (c *Controller) invalidateFrontier() { c.planner = nil }

// probeRetries bounds re-measurement of a faulted probe inside
// raceToIdlePlan, which must never fail: it is the ladder's terminal rung.
const probeRetries = 3

// raceToIdlePlan allocates the maximum configuration for however long its
// measured rate needs, idling the remainder. It tolerates faulted probes by
// re-measuring a few times and, under a total sensor blackout, falls back to
// running flat out for the whole window — the feedback loop idles early once
// heartbeats report the work complete — so it never returns an error.
func (c *Controller) raceToIdlePlan(w, t float64) (*pareto.Plan, error) {
	space := c.mach.Space()
	maxCfg := space.MaxConfig()
	rate := c.mach.MeasurePerf(maxCfg)
	for retry := 0; !validReading(rate) && retry < probeRetries; retry++ {
		c.stats.DroppedObservations++
		mDroppedObservations.Inc()
		rate = c.mach.MeasurePerf(maxCfg)
	}
	idle := c.mach.App().IdlePower
	power := c.mach.MeasurePower(maxCfg)
	for retry := 0; !validReading(power) && retry < probeRetries; retry++ {
		c.stats.DroppedObservations++
		mDroppedObservations.Inc()
		power = c.mach.MeasurePower(maxCfg)
	}
	if !validReading(power) {
		power = idle // meter blackout: predict the floor; execution measures truth
	}
	if !validReading(rate) {
		return &pareto.Plan{
			Allocations: []pareto.Allocation{{Index: space.Index(maxCfg), Time: t}},
			Energy:      power * t,
			Rate:        w / t,
		}, nil
	}
	run := w / rate
	if run > t {
		run = t
	}
	return &pareto.Plan{
		Allocations: []pareto.Allocation{{Index: space.Index(maxCfg), Time: run}},
		IdleTime:    t - run,
		Energy:      power*run + idle*(t-run),
		Rate:        w / t,
	}, nil
}

// believedFastest returns the configuration index with the highest estimated
// performance, or -1 when no estimate is available. Abandoned configurations
// and non-finite estimates are never chosen (NaN fails every comparison).
func (c *Controller) believedFastest() int {
	best, bestIdx := 0.0, -1
	for i, v := range c.perfEst {
		if c.deadConfigs[i] {
			continue
		}
		if v > best && !math.IsInf(v, 1) {
			best, bestIdx = v, i
		}
	}
	return bestIdx
}

// JobResult summarizes one executed job.
type JobResult struct {
	Energy      float64 // Joules consumed over the whole deadline window
	Work        float64 // heartbeats completed (ground truth, not lossy observations)
	Duration    float64 // seconds of the window actually simulated (== deadline)
	MetDeadline bool
	AvgPower    float64 // Energy / Duration
	Tier        string  // degradation-ladder rung that served the job

	// CapExceeded reports that a power-capped run (ExecuteCapped) realized an
	// average power above its cap despite the budget feedback — measured power
	// overshooting the beliefs near the end of the window, or the idle floor
	// alone costing more than the remaining budget. The capped executor never
	// returns an over-cap result silently: either AvgPower respects the cap or
	// CapExceeded is set.
	CapExceeded bool
	// Overshoot is the energy spent above powerCap·Duration, in Joules, when
	// CapExceeded is set (0 otherwise). A coordinator splitting a shared
	// budget across machines deducts it from the node's next allocation, so
	// the long-run average still honors the global cap.
	Overshoot float64
}

// feedbackStep is the granularity of the corrective execution loop; it
// mirrors the 1 s feedback interval of the heartbeat runtime.
const feedbackStep = 1.0

// candidate is a configuration the execution loop may run, with its current
// rate and power beliefs (initialized from the estimates, overwritten by
// measurements as soon as the configuration runs).
type candidate struct {
	index    int
	rate     float64
	power    float64
	measured bool
}

// ExecuteJob runs a job of w heartbeats with deadline t. The plan's
// configurations are executed under heartbeat-feedback pacing: each step the
// controller computes the rate still needed (remaining work over remaining
// time) and runs the least-powerful planned configuration whose believed
// rate meets it, falling back to the believed-fastest configuration when the
// plan proves too slow — the "gradient ascent to increase performance until
// the demand is met" of §6.6. Measured heartbeats continuously replace the
// estimated rates, so feasible deadlines are met even under estimation
// error; the machine idles once the work completes. Energy is accounted
// over the full window [0, t].
func (c *Controller) ExecuteJob(w, t float64) (JobResult, error) {
	return c.ExecuteJobContext(context.Background(), w, t)
}

// ExecuteJobContext is ExecuteJob under a caller-supplied context. The
// context is consulted before planning and between feedback steps: a
// cancellation mid-job abandons the window and returns ctx's error (wrapped),
// leaving the machine idle-consistent up to the point reached.
func (c *Controller) ExecuteJobContext(ctx context.Context, w, t float64) (JobResult, error) {
	if w < 0 || t <= 0 {
		return JobResult{}, fmt.Errorf("control: invalid job w=%g t=%g", w, t)
	}
	plan, err := c.PlanContext(ctx, w, t)
	for err != nil && ctx.Err() == nil && c.degrade() {
		// Planning failed at this tier (calibration exhausted its retries);
		// walk down the ladder before giving up on the job.
		plan, err = c.PlanContext(ctx, w, t)
	}
	if err != nil {
		return JobResult{}, err
	}
	tierIdx := c.tier
	startE, startT, startW := c.mach.Energy(), c.mach.Elapsed(), c.mach.Work()
	remainT := t
	remainW := w
	jobFaults := 0

	cands := c.candidates(plan)
	ranking := c.perfRanking()
	escalated := 0
	maxSteps := int(t/feedbackStep) + 4*(len(cands)+len(ranking)) + 64
	for step := 0; remainW > 1e-9 && remainT > 1e-12 && step < maxSteps; step++ {
		if cerr := ctx.Err(); cerr != nil {
			return JobResult{}, fmt.Errorf("control: job canceled after %g of %g s: %w", t-remainT, t, cerr)
		}
		needed := remainW / remainT
		// If every candidate has been measured and none can hold the pace,
		// escalate: admit the next configuration from the descending
		// estimated-performance ranking (the controller's best remaining
		// guesses at speed) and let measurement sort it out.
		for allMeasuredBelow(cands, needed) && escalated < len(ranking) {
			idx := ranking[escalated]
			escalated++
			if hasCandidate(cands, idx) || c.deadConfigs[idx] {
				continue
			}
			cands = append(cands, c.newCandidate(idx))
		}
		if len(cands) == 0 {
			// Every option was abandoned to actuation give-ups; nothing
			// left to run — idle out the window below.
			break
		}
		pick := chooseCandidate(cands, needed)
		if err := c.applyWithRetry(pick.index, &remainT); err != nil {
			if !errors.Is(err, machine.ErrActuation) {
				return JobResult{}, err
			}
			// Retry budget exhausted: abandon this configuration (an
			// offlined core behaves exactly like this) and re-pick.
			c.stats.ActuationGiveUps++
			mActuationGiveUps.Inc()
			c.events.Emit("actuation_giveup",
				"controller", c.name, "config", pick.index)
			jobFaults++
			c.markDead(pick.index)
			cands = dropCandidate(cands, pick.index)
			continue
		}
		dt := feedbackStep
		if dt > remainT {
			dt = remainT
		}
		if dt <= 0 {
			break // backoff consumed the rest of the window
		}
		// Avoid overshooting the remaining work: bound the step by the
		// believed rate (measured when available, estimated otherwise);
		// errors are corrected by subsequent measured steps.
		if pick.rate > 0 && remainW/pick.rate < dt {
			dt = remainW / pick.rate
			if dt < minStep {
				dt = minStep
			}
			if dt > remainT {
				dt = remainT
			}
		}
		s := c.mach.Run(dt)
		remainT -= dt
		if s.Heartbeats <= 0 && pick.rate > 0 {
			// No beats arrived although the configuration should be making
			// progress. Two cases, split by the heartbeat watchdog: past
			// WatchdogAge the sensor is stale — account believed progress so
			// the loop doesn't race a silent application for the whole
			// window; below it this is a transient lost batch — assume no
			// progress (the conservative direction) and keep the previous
			// rate belief rather than poisoning it with a zero.
			jobFaults++
			if c.mach.BeatAge() >= c.res.WatchdogAge {
				c.stats.WatchdogTrips++
				mWatchdogTrips.Inc()
				c.events.Emit("watchdog_trip",
					"controller", c.name, "config", pick.index,
					"beat_age", c.mach.BeatAge())
				remainW -= pick.rate * dt
			} else {
				c.stats.DroppedObservations++
				mDroppedObservations.Inc()
			}
			continue
		}
		remainW -= s.Heartbeats
		pick.rate = s.Heartbeats / dt // heartbeats are the ground-truth feedback
		if p := s.Power; validReading(p) || !c.mach.Faults().Active() {
			pick.power = p
		}
		pick.measured = true
		if c.measuredRates == nil {
			c.measuredRates = make(map[int]float64)
		}
		c.measuredRates[pick.index] = pick.rate
	}
	if remainT > 1e-12 {
		c.mach.Idle(remainT)
	}

	res := JobResult{
		Energy:   c.mach.Energy() - startE,
		Work:     c.mach.Work() - startW,
		Duration: c.mach.Elapsed() - startT,
		Tier:     c.tiers[tierIdx].Name,
	}
	// Judge the deadline on true completed work, not the lossy observed
	// count: heartbeat duplication must not fake success, loss must not fake
	// failure. Identical to the observed accounting when no faults fire.
	res.MetDeadline = res.Work >= w-1e-6*(1+w)
	if res.Duration > 0 {
		res.AvgPower = res.Energy / res.Duration
	}
	mJobs.Inc()
	tierJobs(res.Tier).Inc()
	if !res.MetDeadline {
		mDeadlineMisses.Inc()
	}
	c.events.Emit("job",
		"controller", c.name, "tier", res.Tier,
		"met_deadline", res.MetDeadline, "work", res.Work,
		"energy", res.Energy, "duration", res.Duration,
		"faults", jobFaults)
	c.recordJob(tierIdx, jobFaults)
	return res, nil
}

// minStep bounds the smallest execution slice so the loop always terminates.
const minStep = 1e-6

// candidates assembles the execution loop's options: the plan's
// configurations plus the believed-fastest configuration as a safety escape,
// sorted by believed rate ascending.
func (c *Controller) candidates(plan *pareto.Plan) []*candidate {
	space := c.mach.Space()
	seen := make(map[int]bool)
	var out []*candidate
	add := func(idx int) {
		if idx < 0 || seen[idx] || c.deadConfigs[idx] {
			return
		}
		seen[idx] = true
		out = append(out, c.newCandidate(idx))
	}
	for _, a := range plan.Allocations {
		add(a.Index)
	}
	add(c.believedFastest())
	// Race-to-idle (and the empty-plan corner): the maximum configuration.
	add(space.Index(space.MaxConfig()))
	sortCandidates(out)
	return out
}

// newCandidate builds a candidate with the best current beliefs about its
// rate and power: remembered measurements if they exist, else the estimates.
func (c *Controller) newCandidate(idx int) *candidate {
	cand := &candidate{index: idx}
	if c.perfEst != nil && idx < len(c.perfEst) {
		cand.rate = c.perfEst[idx]
	}
	if c.powerEst != nil && idx < len(c.powerEst) {
		cand.power = c.powerEst[idx]
	}
	if rate, ok := c.measuredRates[idx]; ok {
		cand.rate = rate
		cand.measured = true
	}
	return cand
}

// perfRanking returns configuration indices in descending order of estimated
// performance (empty for race-to-idle, which never escalates beyond max).
func (c *Controller) perfRanking() []int {
	if c.perfEst == nil {
		return nil
	}
	idx := make([]int, len(c.perfEst))
	for i := range idx {
		idx[i] = i
	}
	// No index tie-break: tied estimates keep the unstable pdqsort's order,
	// which sort.Slice gives identically for the same answers.
	slices.SortFunc(idx, func(a, b int) int {
		if c.perfEst[a] > c.perfEst[b] {
			return -1
		}
		if c.perfEst[a] < c.perfEst[b] {
			return 1
		}
		return 0
	})
	return idx
}

// allMeasuredBelow reports whether every candidate has been measured and
// none sustains the needed rate.
func allMeasuredBelow(cands []*candidate, needed float64) bool {
	for _, cand := range cands {
		if !cand.measured || cand.rate >= needed*(1-1e-9) {
			return false
		}
	}
	return true
}

// hasCandidate reports whether idx is already a candidate.
func hasCandidate(cands []*candidate, idx int) bool {
	for _, cand := range cands {
		if cand.index == idx {
			return true
		}
	}
	return false
}

func sortCandidates(cands []*candidate) {
	sort.Slice(cands, func(a, b int) bool { return cands[a].rate < cands[b].rate })
}

// chooseCandidate picks the lowest-power candidate believed to meet the
// needed rate (with a small safety margin), or the fastest one when none
// suffices — power, not speed, is the objective once the pace is covered.
func chooseCandidate(cands []*candidate, needed float64) *candidate {
	var best *candidate
	for _, cand := range cands {
		if cand.rate < needed*(1-1e-9) {
			continue
		}
		if best == nil || cand.power < best.power {
			best = cand
		}
	}
	if best != nil {
		return best
	}
	sortCandidates(cands)
	return cands[len(cands)-1]
}
