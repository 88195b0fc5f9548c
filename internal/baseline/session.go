package baseline

import (
	"context"
	"fmt"
	"math"

	"leo/internal/core"
)

// Session is an incremental estimation stream opened from an Estimator:
// observations arrive a few per control window, and each Update folds them in
// and returns the refreshed full prediction. Re-observing a configuration
// replaces its value (latest wins). Sessions are not safe for concurrent use;
// open one per goroutine — the parent Estimator is the shareable artifact.
type Session interface {
	// Name identifies the approach, matching the parent Estimator.
	Name() string
	// Update incorporates the new observations and re-estimates. A canceled
	// context aborts (mid-fit for LEO) with an error matching
	// core.ErrCanceled.
	Update(ctx context.Context, obsIdx []int, obsVal []float64) ([]float64, error)
	// DropObservations forgets the accumulated observations while keeping
	// whatever fitted state the implementation carries (LEO keeps its warm
	// posterior), so a fresh stream can reuse the previous fit as its start.
	DropObservations()
	// Reset returns the session to its initial cold state: no observations,
	// no warm posterior.
	Reset()
}

// validateObs applies the checks every estimator shares: matching lengths,
// finite values, and — when n > 0 — in-range indices.
func validateObs(obsIdx []int, obsVal []float64, n int) error {
	if len(obsIdx) != len(obsVal) {
		return fmt.Errorf("baseline: %d indices but %d values", len(obsIdx), len(obsVal))
	}
	for i, idx := range obsIdx {
		if n > 0 && (idx < 0 || idx >= n) {
			return fmt.Errorf("baseline: observation index %d out of range [0,%d)", idx, n)
		}
		if v := obsVal[i]; math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("baseline: non-finite observation %g at configuration %d", v, idx)
		}
	}
	return nil
}

// AdaptSession wraps an Estimator with no incremental structure in a Session
// that accumulates observations and re-runs the full Estimate on every
// Update. n bounds the observation indices (0 disables the range check for
// estimators that ignore observations).
func AdaptSession(est Estimator, n int) Session {
	return &adaptSession{est: est, n: n, pos: make(map[int]int)}
}

type adaptSession struct {
	est    Estimator
	n      int
	obsIdx []int
	obsVal []float64
	pos    map[int]int
}

func (a *adaptSession) Name() string { return a.est.Name() }

func (a *adaptSession) Update(ctx context.Context, obsIdx []int, obsVal []float64) ([]float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("%w: %w", core.ErrCanceled, err)
	}
	if err := validateObs(obsIdx, obsVal, a.n); err != nil {
		return nil, err
	}
	for i, idx := range obsIdx {
		if p, ok := a.pos[idx]; ok {
			a.obsVal[p] = obsVal[i]
			continue
		}
		a.pos[idx] = len(a.obsIdx)
		a.obsIdx = append(a.obsIdx, idx)
		a.obsVal = append(a.obsVal, obsVal[i])
	}
	return a.est.Estimate(a.obsIdx, a.obsVal)
}

func (a *adaptSession) DropObservations() {
	a.obsIdx = a.obsIdx[:0]
	a.obsVal = a.obsVal[:0]
	for k := range a.pos {
		delete(a.pos, k)
	}
}

func (a *adaptSession) Reset() { a.DropObservations() }

// leoSession is LEO's true incremental session: a core.Session over the
// shared prior, warm-starting each Update's fit from the previous posterior.
type leoSession struct {
	s *core.Session
}

func (ls *leoSession) Name() string { return "LEO" }

func (ls *leoSession) Update(ctx context.Context, obsIdx []int, obsVal []float64) ([]float64, error) {
	// Update is exactly Stage + Fit + FinishFit so a batched refit (which
	// runs the same three steps with the Fit coalesced into a FitBatch pass)
	// is bit-identical to the inline path by construction.
	if err := ls.Stage(obsIdx, obsVal); err != nil {
		return nil, err
	}
	res, err := ls.s.Fit(ctx)
	return ls.FinishFit(res, err)
}

// Stage folds observations into the session without fitting. Part of the
// BatchFitter capability: the serving layer stages every dirty tenant of a
// prior, then refits them all in one core.FitBatch pass.
func (ls *leoSession) Stage(obsIdx []int, obsVal []float64) error {
	if err := validateObs(obsIdx, obsVal, 0); err != nil {
		return err
	}
	for i, idx := range obsIdx {
		if err := ls.s.Add(idx, obsVal[i]); err != nil {
			return err
		}
	}
	return nil
}

// CoreSession exposes the underlying core.Session for batched refits.
func (ls *leoSession) CoreSession() *core.Session { return ls.s }

// FinishFit converts a fit outcome into Update's return contract: a fit
// that merely ran out of iterations still carries a usable estimate.
func (ls *leoSession) FinishFit(res *core.Result, err error) ([]float64, error) {
	if err != nil {
		if res != nil && core.IsNotConverged(err) {
			return res.Estimate, nil
		}
		return nil, err
	}
	return res.Estimate, nil
}

func (ls *leoSession) DropObservations() { ls.s.ClearObservations() }

func (ls *leoSession) Reset() { ls.s.Reset() }
