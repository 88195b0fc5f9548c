// Package baseline defines the common Estimator interface and the four
// estimation approaches the paper evaluates (§6.2): Offline (mean over
// previously profiled applications), Online (polynomial multivariate
// regression on the observed configurations), Exhaustive (ground truth), and
// LEO itself (an adapter over internal/core). Race-to-idle is not an
// estimator — it is a resource-allocation heuristic and lives in
// internal/control.
package baseline

import (
	"context"
	"fmt"

	"leo/internal/core"
	"leo/internal/matrix"
	"leo/internal/platform"
	"leo/internal/stats"
)

// Estimator predicts a target application's metric (power or performance)
// for every configuration from a handful of online observations.
// Implementations are bound to one metric of one platform space at
// construction, hold no per-target mutable state, and are safe to share:
// per-target accumulation lives in the Sessions they open.
type Estimator interface {
	// Name identifies the approach ("LEO", "Online", "Offline",
	// "Exhaustive") for reports.
	Name() string
	// Estimate returns a prediction for all n configurations given
	// measurements obsVal taken at configuration indices obsIdx. Estimators
	// that cannot produce a prediction (e.g. Online below its sample
	// threshold) return an error. It is the one-shot path; a controller
	// re-estimating every window should open a Session instead.
	Estimate(obsIdx []int, obsVal []float64) ([]float64, error)
	// NewSession opens an incremental estimation stream for one target
	// application. LEO sessions share the estimator's offline Prior and
	// warm-start from their previous posterior; the trivial estimators
	// return an adapter that accumulates observations and re-runs Estimate.
	// ctx bounds session setup, not the lifetime of the session.
	NewSession(ctx context.Context) (Session, error)
}

// Offline predicts the column mean of the offline database, ignoring online
// observations entirely (§6.2: "takes the mean over the rest of the
// applications … does not update based on runtime observations").
type Offline struct {
	mean []float64
}

// NewOffline builds the offline estimator from the (M−1)×n matrix of
// previously profiled applications.
func NewOffline(known *matrix.Matrix) (*Offline, error) {
	if known.Rows == 0 {
		return nil, fmt.Errorf("baseline: offline estimator needs at least one profiled application")
	}
	return &Offline{mean: stats.ColumnMeans(known)}, nil
}

// Name implements Estimator.
func (o *Offline) Name() string { return "Offline" }

// Estimate implements Estimator. Observations are validated but otherwise
// ignored by design.
func (o *Offline) Estimate(obsIdx []int, obsVal []float64) ([]float64, error) {
	if err := validateObs(obsIdx, obsVal, len(o.mean)); err != nil {
		return nil, err
	}
	return matrix.CloneVec(o.mean), nil
}

// NewSession implements Estimator.
func (o *Offline) NewSession(context.Context) (Session, error) {
	return AdaptSession(o, len(o.mean)), nil
}

// Exhaustive returns the ground truth measured by brute force over every
// configuration (§6.2). It anchors accuracy and optimal-energy comparisons.
type Exhaustive struct {
	truth []float64
}

// NewExhaustive wraps a ground-truth vector.
func NewExhaustive(truth []float64) *Exhaustive {
	return &Exhaustive{truth: matrix.CloneVec(truth)}
}

// Name implements Estimator.
func (e *Exhaustive) Name() string { return "Exhaustive" }

// Estimate implements Estimator.
func (e *Exhaustive) Estimate(obsIdx []int, obsVal []float64) ([]float64, error) {
	if err := validateObs(obsIdx, obsVal, len(e.truth)); err != nil {
		return nil, err
	}
	return matrix.CloneVec(e.truth), nil
}

// NewSession implements Estimator.
func (e *Exhaustive) NewSession(context.Context) (Session, error) {
	return AdaptSession(e, len(e.truth)), nil
}

// LEO adapts the hierarchical Bayesian model (internal/core) to the
// Estimator interface. It is a thin wrapper over a *core.Prior fit once at
// construction: every Estimate call and every session shares that offline
// model instead of re-deriving it from the database. Its sessions borrow
// their fit scratch from one free list the estimator owns, so a serving
// tier's tenants share a few scratch sets between them, and the scratch
// goes with the estimator when it is dropped.
type LEO struct {
	prior *core.Prior
	free  *core.FreeList
	err   error // deferred construction failure, surfaced on use
}

// NewLEO binds the offline database and EM options. The prior over the
// database is fit here, once; an invalid database (zero width, non-finite
// entries) surfaces as an error from Estimate/NewSession, preserving the
// error-on-use contract this constructor has always had.
func NewLEO(known *matrix.Matrix, opts core.Options) *LEO {
	prior, err := core.NewPrior(known, opts)
	if err != nil {
		return &LEO{err: err}
	}
	return NewLEOFromPrior(prior)
}

// NewLEOFromPrior wraps an existing shared prior — the path for serving many
// targets from one offline fit.
func NewLEOFromPrior(prior *core.Prior) *LEO {
	if prior == nil {
		return &LEO{err: fmt.Errorf("baseline: nil prior")}
	}
	return &LEO{prior: prior, free: prior.NewFreeList()}
}

// Name implements Estimator.
func (l *LEO) Name() string { return "LEO" }

// Prior exposes the shared offline model (nil if construction failed).
func (l *LEO) Prior() *core.Prior { return l.prior }

// Estimate implements Estimator. EM non-convergence is a soft condition —
// the capped estimate is still the best available prediction — so it is not
// surfaced as an estimation failure even under Options.StrictConvergence;
// hard numerical failures are.
func (l *LEO) Estimate(obsIdx []int, obsVal []float64) ([]float64, error) {
	if l.err != nil {
		return nil, l.err
	}
	res, err := l.prior.Estimate(context.Background(), obsIdx, obsVal)
	if err != nil {
		if res != nil && core.IsNotConverged(err) {
			return res.Estimate, nil
		}
		return nil, err
	}
	return res.Estimate, nil
}

// NewSession implements Estimator: a true incremental session over the
// shared prior, warm-starting each fit from the previous posterior.
func (l *LEO) NewSession(context.Context) (Session, error) {
	if l.err != nil {
		return nil, l.err
	}
	return &leoSession{s: l.free.NewSession()}, nil
}

// Oracle is an Exhaustive-style estimator whose truth is recomputed on every
// call — e.g. tracking the current phase of a phased application. It
// represents the per-instant true optimum that Table 1 normalizes against.
type Oracle struct {
	fn func() []float64
}

// NewOracle wraps a ground-truth source.
func NewOracle(fn func() []float64) *Oracle { return &Oracle{fn: fn} }

// Name implements Estimator.
func (o *Oracle) Name() string { return "Exhaustive" }

// Estimate implements Estimator.
func (o *Oracle) Estimate(obsIdx []int, obsVal []float64) ([]float64, error) {
	if err := validateObs(obsIdx, obsVal, 0); err != nil {
		return nil, err
	}
	return matrix.CloneVec(o.fn()), nil
}

// NewSession implements Estimator.
func (o *Oracle) NewSession(context.Context) (Session, error) {
	return AdaptSession(o, 0), nil
}

// ByName constructs the named estimator ("LEO", "Online", "Offline" or
// "Exhaustive") for one metric: known is the offline data, truth the
// ground-truth vector, space the platform.
func ByName(name string, space platform.Space, known *matrix.Matrix, truth []float64) (Estimator, error) {
	switch name {
	case "LEO":
		return NewLEO(known, core.Options{}), nil
	case "Online":
		return NewOnline(space), nil
	case "Offline":
		return NewOffline(known)
	case "Exhaustive":
		return NewExhaustive(truth), nil
	default:
		return nil, fmt.Errorf("baseline: unknown estimator %q", name)
	}
}
