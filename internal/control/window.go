package control

import (
	"context"
	"fmt"

	"leo/internal/baseline"
)

// This file is the one calibrate-window code path shared by the in-process
// controller (Calibrate walks it per probe window) and the estimation
// server (internal/service walks it per tenant heartbeat). Both callers
// run: FilterWindow → MinValidSamples gate → FitWindow (drop, fit under
// the watchdog, jitter budget) → ValidateEstimates → SanitizeEstimates.
// Keeping the sequence in one place is what makes an HTTP-served plan
// bit-identical to the controller's from the same prior, observations and
// seeds — the two layers cannot drift apart window by window.

// Window is one estimation window's usable observations: paired
// performance/power readings that survived the probe-validity filter, plus
// the count of readings the filter discarded.
type Window struct {
	ObsIdx  []int
	Perf    []float64
	Power   []float64
	Dropped int
}

// FilterWindow screens one window's raw paired readings: a configuration
// whose performance or power reading is faulted (NaN meter dropout, lost
// heartbeat batch reading zero, subnormal underflow) or too large for the
// fit to hold (maxReading) is dropped whole — core.Estimate rejects
// non-finite observations outright, a non-positive rate or power is
// physically impossible, and a reading past the ceiling would overflow the
// fit and count against the caller's degradation ladder.
func FilterWindow(obsIdx []int, perfObs, powerObs []float64) Window {
	w := Window{
		ObsIdx: make([]int, 0, len(obsIdx)),
		Perf:   make([]float64, 0, len(obsIdx)),
		Power:  make([]float64, 0, len(obsIdx)),
	}
	for i, idx := range obsIdx {
		p, q := perfObs[i], powerObs[i]
		if !validReading(p) || !validReading(q) {
			w.Dropped++
			continue
		}
		w.ObsIdx = append(w.ObsIdx, idx)
		w.Perf = append(w.Perf, p)
		w.Power = append(w.Power, q)
	}
	return w
}

// JitterBudgetError reports a session whose accumulated Cholesky jitter
// shift crossed Resilience.JitterBudget: a chronically ill-conditioned Σ
// degrades numerically long before it fails to factorize outright, so the
// trip is surfaced as an estimation failure and feeds the caller's
// retry-then-degrade ladder.
type JitterBudgetError struct {
	Metric string  // "performance" or "power"
	Shift  float64 // accumulated identity shift
	Budget float64 // the budget it crossed
	Events int     // factorizations that needed a nonzero shift
}

func (e *JitterBudgetError) Error() string {
	return fmt.Sprintf("control: %s session accumulated jitter shift %.3g beyond budget %.3g (%d shifted factorizations)",
		e.Metric, e.Shift, e.Budget, e.Events)
}

// CheckJitter inspects a session's numerical-health account against the
// jitter budget, returning a non-nil *JitterBudgetError on a trip. A
// negative budget disables the check, as does a session that does not
// report health.
func CheckJitter(sess baseline.Session, metric string, budget float64) *JitterBudgetError {
	if budget < 0 {
		return nil
	}
	hr, ok := sess.(baseline.HealthReporter)
	if !ok {
		return nil
	}
	h := hr.Health()
	if h.JitterShift <= budget {
		return nil
	}
	return &JitterBudgetError{Metric: metric, Shift: h.JitterShift, Budget: budget, Events: h.JitterEvents}
}

// FitWindow drives one filtered window through a tier's per-metric
// sessions under the resilience policy: the previous window's observations
// are dropped (a new window means the phase may have changed — the warm
// posterior is kept as the starting point), both fits run under the
// FitWatchdog deadline so a hung EM fit is canceled mid-iteration rather
// than stalling the caller, and each session's jitter budget is enforced
// afterwards (trips surface as a *JitterBudgetError in the unwrap chain).
//
// The returned estimates are raw: validation and sanitization are the
// caller's next moves, left outside so the controller can journal the
// accepted window between them.
func FitWindow(ctx context.Context, perfSess, powerSess baseline.Session, w Window, res Resilience) (perfEst, powerEst []float64, err error) {
	perfSess.DropObservations()
	powerSess.DropObservations()
	fitCtx := ctx
	if res.FitWatchdog > 0 {
		var cancel context.CancelFunc
		fitCtx, cancel = context.WithTimeout(ctx, res.FitWatchdog)
		defer cancel()
	}
	perfEst, err = perfSess.Update(fitCtx, w.ObsIdx, w.Perf)
	if err != nil {
		return nil, nil, fmt.Errorf("control: performance estimation: %w", err)
	}
	powerEst, err = powerSess.Update(fitCtx, w.ObsIdx, w.Power)
	if err != nil {
		return nil, nil, fmt.Errorf("control: power estimation: %w", err)
	}
	if jerr := CheckJitter(perfSess, "performance", res.JitterBudget); jerr != nil {
		return nil, nil, jerr
	}
	if jerr := CheckJitter(powerSess, "power", res.JitterBudget); jerr != nil {
		return nil, nil, jerr
	}
	return perfEst, powerEst, nil
}

// ValidateEstimates is the planner-input gate: it rejects estimate vectors
// of the wrong length or containing NaN (a sick fit must never reach the
// planner), mirroring exactly what the controller enforces after every
// calibration. +Inf entries pass — SanitizeEstimates neutralizes them.
func ValidateEstimates(perfEst, powerEst []float64, configs int) error {
	return checkEstimates(perfEst, powerEst, configs)
}

// SanitizeEstimates returns planner-safe copies of validated estimate
// vectors, clamping the non-finite entries ValidateEstimates tolerates so
// the planner never sees them.
func SanitizeEstimates(perfEst, powerEst []float64) (perf, power []float64) {
	return sanitizeEstimates(perfEst, powerEst)
}
