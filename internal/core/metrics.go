package core

import (
	"leo/internal/metrics"
)

// EM observability. Every metric here is recorded with pre-registered
// counters/gauges whose operations are allocation-free, so the instrumented
// loop keeps the zero-allocations-per-iteration contract pinned by
// TestEMIterationAllocs. Counters are bumped once per fit (with the iteration
// total), never inside the iteration loop.
var (
	mEMIterations = metrics.NewCounter("leo_core_em_iterations_total",
		"EM iterations executed across all fits")
	mEMFitsCold = metrics.NewCounter("leo_core_em_fits_total",
		"completed EM fits by start mode", metrics.Label{Key: "mode", Value: "cold"})
	mEMFitsWarm = metrics.NewCounter("leo_core_em_fits_total",
		"completed EM fits by start mode", metrics.Label{Key: "mode", Value: "warm"})
	mEMUnconverged = metrics.NewCounter("leo_core_em_unconverged_total",
		"fits that exhausted their iteration budget before the tolerance")
	mEMCanceled = metrics.NewCounter("leo_core_em_canceled_total",
		"fits aborted by context cancellation")
	mEMLastChange = metrics.NewGauge("leo_core_em_last_rel_change",
		"relative change of the target prediction at the end of the most recent fit")

	// Batched-refit scheduling (FitBatch): passes count scheduling ticks,
	// sessions count tenants served by them — their ratio is the coalescing
	// factor the service's refit scheduler achieves.
	mBatchPasses = metrics.NewCounter("leo_core_batch_passes_total",
		"FitBatch passes executed (one per refit-scheduler tick and prior)")
	mBatchSessions = metrics.NewCounter("leo_core_batch_sessions_total",
		"sessions refitted through FitBatch passes")

	// Numerical-health watchdogs (DESIGN.md §11). Trip counters are bumped on
	// the (rare) trip paths; the jitter pair is bumped per shifted
	// factorization — all with allocation-free operations, so the iteration
	// loop's zero-allocation contract holds with the watchdogs enabled.
	mHealthNonFinite = metrics.NewCounter("leo_core_health_nonfinite_total",
		"EM iterations aborted by the non-finite posterior/log-likelihood scan")
	mHealthLLRegressions = metrics.NewCounter("leo_core_health_ll_regressions_total",
		"EM fits aborted by the log-likelihood regression detector")
	mHealthFallbacks = metrics.NewCounter("leo_core_health_fallbacks_total",
		"frozen refits re-run as a cold fit after a watchdog trip")
	mJitterEvents = metrics.NewCounter("leo_core_jitter_events_total",
		"covariance factorizations that needed a nonzero jitter-ladder shift")
	mJitterShift = metrics.NewGauge("leo_core_jitter_shift_sum",
		"accumulated identity shift applied by the Cholesky jitter ladder")
)
