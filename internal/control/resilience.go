package control

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"leo/internal/baseline"
	"leo/internal/machine"
)

// Tier is one rung of a controller's degradation ladder: a named pair of
// estimators. Both nil means the race-to-idle heuristic, which needs no
// estimation at all and therefore cannot fail — it is the natural terminal
// rung.
type Tier struct {
	Name  string
	Perf  baseline.Estimator
	Power baseline.Estimator
}

// Resilience tunes the hardened control loop. The zero value selects the
// defaults; fields left at zero are filled in by SetResilience.
type Resilience struct {
	// MaxActuationRetries is how many times a visibly failed configuration
	// change is retried (with exponential backoff) before the configuration
	// is abandoned for the rest of the run. Default 3.
	MaxActuationRetries int
	// BackoffBase and BackoffCap bound the exponential backoff between
	// actuation retries, in simulated seconds: base, 2·base, 4·base, …
	// capped. Backoff consumes job time (the machine idles through it), so
	// retrying is never free. Defaults 0.05 s and 0.8 s.
	BackoffBase float64
	BackoffCap  float64
	// WatchdogAge is how long the heartbeat monitor may be silent, in
	// simulated seconds, before the watchdog declares the sensor stale and
	// the loop switches to believed-rate progress accounting. Below the
	// threshold a beat-less window is treated as a transient lost batch
	// (no progress assumed — the conservative direction). Default 3 s,
	// i.e. three silent feedback steps.
	WatchdogAge float64
	// MaxEstimationFailures is how many consecutive calibration failures a
	// tier is allowed before the controller degrades to the next rung.
	// Default 2 (one retry with a fresh probe mask, then degrade).
	MaxEstimationFailures int
	// FitWatchdog bounds the wall-clock time one calibration's model fit may
	// take in session mode. EM checks its context between iterations, so a fit
	// that exceeds the deadline aborts within one iteration, counts as an
	// estimation failure, and feeds the degradation ladder like any other
	// calibration error — the estimation-side sibling of the heartbeat
	// watchdog. Zero selects the default (30 s); negative disables the
	// watchdog. Cold recalibration mode has no cancellation point and ignores
	// it.
	FitWatchdog time.Duration
	// MinValidSamples is the minimum number of usable calibration probes;
	// fewer (after discarding faulted readings) fails the calibration.
	// Default 4.
	MinValidSamples int
	// JobFaultBudget is how many fault events (actuation give-ups, watchdog
	// trips, lost feedback windows) a single job tolerates before the
	// controller degrades a rung for subsequent jobs. Default 3.
	JobFaultBudget int
	// RecoveryJobs is how many consecutive fault-free jobs a degraded
	// controller waits before promoting back up a rung. Default 5.
	RecoveryJobs int
	// JitterBudget bounds the cumulative Cholesky jitter shift a tier's
	// estimation sessions may accumulate (see core.Health.JitterShift). A
	// chronically ill-conditioned Σ needs ever-larger identity shifts to stay
	// factorable long before it fails outright; crossing the budget counts
	// as an estimation failure and feeds the degradation ladder. Zero
	// selects the default (1e-6 — four decades above the ladder's starting
	// shift, untouched by healthy fits); negative disables the check.
	JitterBudget float64
}

func (r Resilience) withDefaults() Resilience {
	if r.MaxActuationRetries <= 0 {
		r.MaxActuationRetries = 3
	}
	if r.BackoffBase <= 0 {
		r.BackoffBase = 0.05
	}
	if r.BackoffCap <= 0 {
		r.BackoffCap = 0.8
	}
	if r.WatchdogAge <= 0 {
		r.WatchdogAge = 3
	}
	if r.MaxEstimationFailures <= 0 {
		r.MaxEstimationFailures = 2
	}
	if r.FitWatchdog == 0 {
		r.FitWatchdog = 30 * time.Second
	}
	if r.MinValidSamples <= 0 {
		r.MinValidSamples = 4
	}
	if r.JobFaultBudget <= 0 {
		r.JobFaultBudget = 3
	}
	if r.RecoveryJobs <= 0 {
		r.RecoveryJobs = 5
	}
	if r.JitterBudget == 0 {
		r.JitterBudget = 1e-6
	}
	return r
}

// WithDefaults returns r with zero fields replaced by the documented
// defaults — the same normalization SetResilience applies. Exported so other
// policy owners (the estimation service) normalize identically.
func (r Resilience) WithDefaults() Resilience { return r.withDefaults() }

// SetResilience replaces the controller's resilience tuning (zero fields
// take defaults).
func (c *Controller) SetResilience(r Resilience) { c.res = r.withDefaults() }

// AddFallbacks appends rungs to the controller's degradation ladder, in the
// order they should be tried. A Tier with nil estimators is the race-to-idle
// rung; appending it last guarantees the ladder always bottoms out in a
// policy that cannot fail.
func (c *Controller) AddFallbacks(tiers ...Tier) error {
	for _, tier := range tiers {
		if (tier.Perf == nil) != (tier.Power == nil) {
			return fmt.Errorf("control: fallback %q estimators must be both nil or both set", tier.Name)
		}
		if tier.Name == "" {
			return fmt.Errorf("control: fallback tier needs a name")
		}
		c.tiers = append(c.tiers, tier)
	}
	return nil
}

// CurrentTier returns the name of the rung currently serving jobs.
func (c *Controller) CurrentTier() string { return c.tiers[c.tier].Name }

// DegradationReport accounts for every resilience mechanism that engaged
// during a run. A report with Fallbacks == 0 and all counters zero means the
// run never left the happy path.
type DegradationReport struct {
	// TierJobs counts executed jobs per tier name.
	TierJobs map[string]int
	// Fallbacks counts tier demotions; Recoveries counts promotions back up
	// after RecoveryJobs consecutive clean jobs.
	Fallbacks  int
	Recoveries int
	// ActuationRetries counts retried configuration changes;
	// ActuationGiveUps counts configurations abandoned after the retry
	// budget was exhausted.
	ActuationRetries int64
	ActuationGiveUps int64
	// WatchdogTrips counts feedback windows where the heartbeat sensor was
	// declared stale and believed-rate accounting took over.
	WatchdogTrips int64
	// DroppedObservations counts sensor readings discarded as unusable:
	// faulted calibration probes and beat-less feedback windows below the
	// watchdog threshold.
	DroppedObservations int64
	// EstimationFailures counts failed calibration attempts (invalid probe
	// sets, estimator errors, rejected estimate vectors).
	EstimationFailures int64
	// Restores counts state recoveries: controller starts that resumed from
	// a persisted snapshot and/or journal replay instead of cold.
	Restores int
	// ReplayedWindows counts journal records re-applied during recovery.
	ReplayedWindows int
	// JitterTrips counts estimation sessions abandoned because their
	// cumulative Cholesky jitter shift crossed Resilience.JitterBudget.
	JitterTrips int64
}

// Degraded reports whether the controller ever left its primary tier.
func (r DegradationReport) Degraded() bool { return r.Fallbacks > 0 }

// String renders the report as one stable line for experiment output.
func (r DegradationReport) String() string {
	tiers := make([]string, 0, len(r.TierJobs))
	for name := range r.TierJobs {
		tiers = append(tiers, name)
	}
	sort.Strings(tiers)
	out := "tiers["
	for i, name := range tiers {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%s=%d", name, r.TierJobs[name])
	}
	out += fmt.Sprintf("] fallbacks=%d recoveries=%d retries=%d giveups=%d watchdog=%d dropped=%d estfail=%d",
		r.Fallbacks, r.Recoveries, r.ActuationRetries, r.ActuationGiveUps,
		r.WatchdogTrips, r.DroppedObservations, r.EstimationFailures)
	// Crash-recovery and numerical-health accounting appears only when it
	// engaged, keeping the line stable for runs without a state store.
	if r.Restores > 0 || r.ReplayedWindows > 0 {
		out += fmt.Sprintf(" restores=%d replayed=%d", r.Restores, r.ReplayedWindows)
	}
	if r.JitterTrips > 0 {
		out += fmt.Sprintf(" jittertrips=%d", r.JitterTrips)
	}
	return out
}

// Report returns a copy of the controller's degradation accounting.
func (c *Controller) Report() DegradationReport {
	out := c.stats
	out.TierJobs = make(map[string]int, len(c.stats.TierJobs))
	for name, n := range c.stats.TierJobs {
		out.TierJobs[name] = n
	}
	return out
}

// validReading reports whether a sensor reading is physically plausible and
// one the model can hold: in [minNormalReading, maxReading). NaN meter
// dropouts (which fail both comparisons), ±Inf, lost heartbeat batches
// (rate 0) and sign-corrupted samples all fail; so do subnormals, which are
// indistinguishable from a zeroed register and whose reciprocal — taken all
// over the planner — overflows to +Inf, and readings too large to fit.
func validReading(v float64) bool {
	return v >= minNormalReading && v < maxReading
}

// minNormalReading is the smallest positive normal float64, 2^-1022.
const minNormalReading = 0x1p-1022

// maxReading bounds a reading the EM fit can hold. The fit's largest
// intermediates are fourth powers of the data: σ² starts at a fraction of
// the mean square of the database and the window and stays near it, and
// the posterior covariance Ĉ = σ²I − σ⁴(Σ+σ²I)⁻¹ forms σ⁴. Readings below
// 2^128 keep σ⁴ below 2^512. Sums over the fewer than 2^15 cells of a fit
// at the paper's n = 1024, and division by a σ² no smaller than its 1e-9
// floor (about 2^-30), add under 50 more bits, which leaves every
// intermediate far from overflow at 2^1024 (TestReadingCeilingFits fits
// windows of such readings at n = 32, 128 and 1024). A window carrying
// 1.797e308 overflows the fit instead. No meter reads a rate or a power
// anywhere near 2^128 ≈ 3.4e38.
const maxReading = 0x1p128

// checkEstimates guards the planner against poisoned estimator output
// (NaN/Inf vectors must never reach internal/pareto as the only option): the
// vectors must have one entry per configuration and at least one index where
// both metrics are usable, since pareto drops invalid indices individually.
func checkEstimates(perf, power []float64, n int) error {
	if len(perf) != n || len(power) != n {
		return fmt.Errorf("estimate length %d/%d != %d configurations", len(perf), len(power), n)
	}
	for i := range perf {
		if validReading(perf[i]) && validReading(power[i]) {
			return nil
		}
	}
	return fmt.Errorf("no configuration has finite positive perf and power estimates")
}

// sanitizeEstimates neutralizes stray invalid entries so they cannot poison
// candidate beliefs: an unusable perf entry becomes 0 (never chosen, skipped
// by pareto), an unusable power entry becomes +Inf (chosen only as a last
// resort). Valid vectors are returned unchanged, no copies made.
func sanitizeEstimates(perf, power []float64) ([]float64, []float64) {
	bad := false
	for i := range perf {
		if (perf[i] != 0 && !validReading(perf[i])) || !validReading(power[i]) {
			bad = true
			break
		}
	}
	if !bad {
		return perf, power
	}
	perfOut := append([]float64(nil), perf...)
	powerOut := append([]float64(nil), power...)
	for i := range perfOut {
		if perfOut[i] != 0 && !validReading(perfOut[i]) {
			perfOut[i] = 0
		}
		if !validReading(powerOut[i]) {
			powerOut[i] = math.Inf(1)
		}
	}
	return perfOut, powerOut
}

// degrade moves the controller one rung down the ladder, discarding the
// failed tier's estimates. It returns false at the bottom.
func (c *Controller) degrade() bool {
	if c.tier+1 >= len(c.tiers) {
		return false
	}
	from := c.tiers[c.tier].Name
	c.tier++
	c.estFailStreak = 0
	c.cleanJobs = 0
	c.stats.Fallbacks++
	mFallbacks.Inc()
	tierTransitions("down", c.tiers[c.tier].Name).Inc()
	c.events.Emit("degrade",
		"controller", c.name, "from", from, "to", c.tiers[c.tier].Name)
	c.perfEst, c.powerEst = nil, nil
	c.invalidateFrontier()
	c.obsIdx, c.obsPerf = nil, nil
	// The failed tier's sessions die with it: a later promotion back up must
	// not resume from a posterior fit just before the failure.
	c.perfSess, c.powerSess, c.sessTier = nil, nil, -1
	return true
}

// recordJob updates tier accounting after a job served by tier tierIdx with
// jobFaults observed fault events: over-budget jobs degrade the controller,
// a run of clean jobs at a degraded tier promotes it back up.
func (c *Controller) recordJob(tierIdx, jobFaults int) {
	if c.stats.TierJobs == nil {
		c.stats.TierJobs = make(map[string]int)
	}
	c.stats.TierJobs[c.tiers[tierIdx].Name]++
	switch {
	case jobFaults > c.res.JobFaultBudget:
		c.degrade()
	case jobFaults > 0:
		c.cleanJobs = 0
	case c.tier > 0:
		c.cleanJobs++
		if c.cleanJobs >= c.res.RecoveryJobs {
			from := c.tiers[c.tier].Name
			c.tier--
			c.cleanJobs = 0
			c.stats.Recoveries++
			mRecoveries.Inc()
			tierTransitions("up", c.tiers[c.tier].Name).Inc()
			c.events.Emit("recover",
				"controller", c.name, "from", from, "to", c.tiers[c.tier].Name)
			// Force a fresh calibration at the restored tier.
			c.perfEst, c.powerEst = nil, nil
			c.invalidateFrontier()
		}
	}
}

// markDead permanently abandons a configuration whose actuation exhausted
// the retry budget (an offlined core, persistently failing P-state write).
func (c *Controller) markDead(idx int) {
	if c.deadConfigs == nil {
		c.deadConfigs = make(map[int]bool)
	}
	c.deadConfigs[idx] = true
	// The dead set feeds planEstimates, so the cached hull is stale.
	c.invalidateFrontier()
}

// applyWithRetry applies configuration idx, retrying transient actuation
// failures with capped exponential backoff. Backoff idles the machine, so it
// consumes real (simulated) time and energy; *remainT is decremented
// accordingly. Non-actuation errors and exhausted retries return the last
// error.
func (c *Controller) applyWithRetry(idx int, remainT *float64) error {
	backoff := c.res.BackoffBase
	for attempt := 0; ; attempt++ {
		err := c.mach.ApplyIndex(idx)
		if err == nil || !errors.Is(err, machine.ErrActuation) {
			return err
		}
		if attempt >= c.res.MaxActuationRetries || *remainT <= 1e-12 {
			return err
		}
		c.stats.ActuationRetries++
		mActuationRetries.Inc()
		wait := backoff
		if wait > *remainT {
			wait = *remainT
		}
		c.mach.Idle(wait)
		*remainT -= wait
		backoff *= 2
		if backoff > c.res.BackoffCap {
			backoff = c.res.BackoffCap
		}
	}
}

// dropCandidate removes idx from the candidate set in place.
func dropCandidate(cands []*candidate, idx int) []*candidate {
	out := cands[:0]
	for _, cand := range cands {
		if cand.index != idx {
			out = append(out, cand)
		}
	}
	return out
}

// planEstimates returns the estimate vectors with abandoned configurations
// suppressed, so the planner stops scheduling them. With no dead
// configurations the controller's vectors are returned as-is.
func (c *Controller) planEstimates() (perf, power []float64) {
	if len(c.deadConfigs) == 0 {
		return c.perfEst, c.powerEst
	}
	perf = append([]float64(nil), c.perfEst...)
	for idx := range c.deadConfigs {
		if idx < len(perf) {
			perf[idx] = 0
		}
	}
	return perf, c.powerEst
}
