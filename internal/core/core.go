// Package core implements LEO's hierarchical Bayesian model (paper §5):
// a multi-task Gaussian model over per-configuration measurements, fit with
// expectation–maximization.
//
// The generative model (Eq. 2) is
//
//	y_i | z_i   ~ N(z_i, σ²·I)          (measurement / filtration layer)
//	z_i | μ, Σ  ~ N(μ, Σ)               (application layer)
//	μ, Σ        ~ NIW(μ₀=0, π=1, Ψ=I, ν=1)
//
// where y_i is application i's vector of power (or performance) across all n
// configurations. The first M−1 applications are fully observed offline; the
// target application M is observed only at a small set Ω of configurations.
// EM alternates the E-step (Eq. 3) — posterior mean ẑ_i and covariance Ĉ_i
// of each application's latent vector — with the M-step (Eq. 4) updates of
// μ, Σ and σ², then predicts the target's unobserved entries as ẑ_M.
package core

import (
	"context"
	"errors"
	"fmt"

	"leo/internal/matrix"
)

// ErrNoData is returned when there is nothing to learn from: no offline
// applications and no online observations.
var ErrNoData = errors.New("core: no offline applications and no observations")

// ErrNotConverged reports that EM exhausted its iteration budget before the
// target prediction stabilized. It is a soft failure: the accompanying
// Result holds the best estimate reached at the cap, unlike the hard
// numerical failures (non-factorable Σ, non-finite data) that return no
// Result at all. Callers distinguish the two with errors.As or
// IsNotConverged.
type ErrNotConverged struct {
	// Iterations is how many EM iterations ran before giving up.
	Iterations int
	// Change is the last relative change of the target prediction observed,
	// against Tol, the convergence threshold it failed to reach.
	Change float64
	Tol    float64
}

// Error implements error.
func (e *ErrNotConverged) Error() string {
	return fmt.Sprintf("core: EM did not converge after %d iterations (change %.3g > tol %.3g)",
		e.Iterations, e.Change, e.Tol)
}

// IsNotConverged reports whether err is (or wraps) an ErrNotConverged.
func IsNotConverged(err error) bool {
	var nc *ErrNotConverged
	return errors.As(err, &nc)
}

// Options configures the EM fit. The zero value selects the defaults used
// throughout the paper's evaluation.
type Options struct {
	// MaxIter bounds EM iterations. The paper reports convergence in 3–4
	// iterations (§5.5); the default is 8.
	MaxIter int
	// WarmMaxIter bounds EM iterations for a warm-started Session.Fit — one
	// continuing from the posterior of a previous fit. Warm fits start near
	// the fixed point, so the default is 2: enough for new observations to
	// propagate into the prediction. Deliberately small — every EM iteration
	// keeps shrinking σ² past the point where the prediction stabilized, so
	// running warm fits to the full MaxIter budget slowly overfits across
	// windows instead of converging faster.
	WarmMaxIter int
	// Tol is the relative-change convergence threshold on the target
	// prediction between iterations. Default 1e-3: on noise-free data σ²
	// keeps creeping toward zero, dragging the prediction by ever-smaller
	// amounts, so an exact fixed point is never reached — the estimate is
	// already stable (and accurate, per §5.5's "3–4 iterations") well
	// before that.
	Tol float64
	// Pi is the NIW prior strength π. Default 1 (the paper's setting).
	Pi float64
	// SigmaFloor is the minimum admissible measurement variance σ²,
	// preventing collapse on noise-free data. Default 1e-9.
	SigmaFloor float64
	// InitMu optionally overrides the initial μ. By default μ starts at the
	// column mean of the offline data — the Offline estimate — which §5.5
	// reports improves accuracy over random initialization.
	InitMu []float64
	// ZeroInit starts μ at zero instead of the offline mean (ablation).
	ZeroInit bool
	// NaiveEStep computes each application's posterior covariance with an
	// independent n×n factorization instead of sharing one factorization
	// across all fully observed applications (ablation; same math, much
	// slower). It implies ExactEStep.
	NaiveEStep bool
	// ExactEStep runs the pre-symmetry-aware hot loop: the shared posterior
	// covariance via an n-right-hand-side triangular solve against Σ+σ²I, the
	// posterior means through Σ⁻¹μ, and the M-step as a sequence of rank-1
	// updates followed by an explicit Symmetrize. Same math as the default
	// fast path to round-off (≤1e-8 relative), at roughly 3× the flops —
	// kept as an ablation and as a cross-check oracle for the fast kernels.
	ExactEStep bool
	// StrictPaperSigma applies the printed parenthesization of Eq. (4),
	// adding the prior terms πμμ' + I outside the 1/(M+1) normalizer. The
	// default places them inside, which matches the standard NIW MAP update
	// the equation is derived from.
	StrictPaperSigma bool
	// DisableHealthChecks turns off the per-iteration numerical-health
	// watchdogs (the non-finite posterior scan, the log-likelihood
	// regression detector, and the automatic exact-path fallback they
	// drive). The watchdogs observe the fit without changing any of its
	// floating-point results, so this exists for overhead measurement, not
	// correctness.
	DisableHealthChecks bool
	// HealthLLDrop tunes the log-likelihood regression watchdog: the fit is
	// declared numerically unhealthy when the observed-data log-likelihood
	// falls between successive EM iterations by more than
	// HealthLLDrop·(1+|previous value|). EM ascends the NIW-penalized
	// objective, so small decreases of the unpenalized likelihood are
	// legitimate; the default 0.5 only fires on collapse-scale drops. Zero
	// selects the default; negative disables the regression detector while
	// keeping the non-finite scans.
	HealthLLDrop float64
	// StrictConvergence makes Estimate surface an *ErrNotConverged (together
	// with the capped Result) when EM hits MaxIter before stabilizing. By
	// default non-convergence is reported only through Result.Converged —
	// the paper's protocol runs a fixed small iteration budget and uses the
	// estimate regardless (§5.5), so the capped estimate is the product, not
	// an error.
	StrictConvergence bool
	// LeanResults makes the one-shot entry points (Estimate,
	// EstimateContext, Prior.Estimate) leave Result.Mu and Result.Sigma nil
	// instead of handing over their discarded session's parameters.
	// Session.Fit never fills them either way: it copies nothing per fit,
	// and a live session's parameters are read with Session.State. The fit
	// itself is untouched: every other Result field carries the same bits,
	// and the option is deliberately excluded from Prior.Digest so lean and
	// full deployments can exchange persisted state.
	LeanResults bool
}

func (o Options) withDefaults() Options {
	if o.MaxIter <= 0 {
		o.MaxIter = 8
	}
	if o.WarmMaxIter <= 0 {
		o.WarmMaxIter = 2
	}
	if o.Tol <= 0 {
		o.Tol = 1e-3
	}
	if o.Pi <= 0 {
		o.Pi = 1
	}
	if o.SigmaFloor <= 0 {
		o.SigmaFloor = 1e-9
	}
	if o.HealthLLDrop == 0 {
		o.HealthLLDrop = 0.5
	}
	return o
}

// Result is the output of an EM fit.
type Result struct {
	// Estimate is ẑ_M: the predicted value for every configuration of the
	// target application. At observed indices it is the posterior (smoothed)
	// value, not the raw observation.
	Estimate []float64
	// Variance is the posterior variance of each prediction (the diagonal
	// of Ĉ_M). Observed configurations have small variance; configurations
	// far from any observation in Σ's correlation structure have large
	// variance. The paper's CALOREE follow-on uses exactly this signal to
	// decide when estimates are trustworthy.
	Variance []float64
	// Mu and Sigma are the fitted population mean and covariance, set only
	// by the one-shot entry points (Estimate, EstimateContext,
	// Prior.Estimate), which hand over their discarded session's own
	// parameters rather than copies, and not under LeanResults. A
	// Session.Fit result leaves them nil; Session.State returns a live
	// session's parameters.
	Mu    []float64
	Sigma *matrix.Matrix
	// Noise is the fitted measurement standard deviation σ.
	Noise float64
	// Iterations is the number of EM iterations executed; Converged reports
	// whether the tolerance was reached before MaxIter.
	Iterations int
	Converged  bool
}

// Estimate fits the hierarchical model and predicts the target application's
// value in every configuration.
//
// known holds one fully observed application per row ((M−1)×n); it may have
// zero rows. obsIdx/obsVal are the target's online observations: values
// measured at the given configuration indices (Ω in the paper). Duplicate
// indices are rejected.
//
// Estimate is the one-shot convenience over the Prior/Session API: it builds
// a Prior, loads the observations into a fresh Session, and fits cold. To
// amortize the offline work across many fits — or to cancel one — use
// NewPrior / Prior.NewSession / Session.Fit (or EstimateContext) directly.
func Estimate(known *matrix.Matrix, obsIdx []int, obsVal []float64, opts Options) (*Result, error) {
	return EstimateContext(context.Background(), known, obsIdx, obsVal, opts)
}

// EstimateContext is Estimate with cancellation: the fit aborts between EM
// iterations once ctx is done, returning an error wrapping ErrCanceled and
// ctx.Err().
func EstimateContext(ctx context.Context, known *matrix.Matrix, obsIdx []int, obsVal []float64, opts Options) (*Result, error) {
	prior, err := NewPrior(known, opts)
	if err != nil {
		return nil, err
	}
	return prior.Estimate(ctx, obsIdx, obsVal)
}
