package core

import (
	"errors"
	"fmt"
	"math"

	"leo/internal/matrix"
)

// ErrNumericalHealth reports a tripped numerical-health watchdog: the fast
// EM path produced a non-finite posterior or a log-likelihood regression
// large enough to indicate divergence. It is a hard failure for the run that
// raised it, but Session.Fit catches it and retries the fit once on the
// exact E-step before surfacing anything to the caller.
type ErrNumericalHealth struct {
	// Iteration is the EM iteration (0-based) at which the watchdog fired.
	Iteration int
	// Reason describes which watchdog tripped and on what quantity.
	Reason string
	// LL and PrevLL carry the log-likelihood pair behind a regression trip;
	// both are NaN for non-finite-scan trips.
	LL, PrevLL float64
}

// Error implements error.
func (e *ErrNumericalHealth) Error() string {
	if math.IsNaN(e.LL) && math.IsNaN(e.PrevLL) {
		return fmt.Sprintf("core: numerical health watchdog tripped at iteration %d: %s", e.Iteration, e.Reason)
	}
	return fmt.Sprintf("core: numerical health watchdog tripped at iteration %d: %s (log-likelihood %.6g after %.6g)",
		e.Iteration, e.Reason, e.LL, e.PrevLL)
}

// IsNumericalHealth reports whether err is (or wraps) an *ErrNumericalHealth.
func IsNumericalHealth(err error) bool {
	var he *ErrNumericalHealth
	return errors.As(err, &he)
}

// Health is a session's accumulated numerical-health account. The jitter
// fields surface how often (and how hard) the Cholesky jitter ladder had to
// shift Σ to keep it factorable — a chronically ill-conditioned covariance
// shows up here long before it becomes a hard factorization failure — and
// Fallbacks counts fits rescued by the one-shot exact-path retry.
type Health struct {
	// JitterEvents counts factorizations that needed a nonzero identity
	// shift; JitterShift is the sum of the shifts applied.
	JitterEvents int
	JitterShift  float64
	// NonFinite and LLRegressions count watchdog trips by cause.
	NonFinite     int
	LLRegressions int
	// Fallbacks counts fits that tripped a watchdog on the fast path and
	// were re-run (successfully or not) on the exact E-step.
	Fallbacks int
}

// Health returns the session's numerical-health account so far.
func (s *Session) Health() Health { return s.health }

// healthTestHook, when set, runs at the top of every EM iteration. It exists
// so white-box tests can poison in-flight parameters at a chosen iteration
// and observe the watchdogs trip; production code never sets it.
var healthTestHook func(s *Session, iter int)

// noteJitter records a jitter-ladder shift applied while factorizing one of
// the session's covariance kernels.
func (em *Session) noteJitter(applied float64) {
	if applied <= 0 {
		return
	}
	em.health.JitterEvents++
	em.health.JitterShift += applied
	mJitterEvents.Inc()
	mJitterShift.Add(applied)
}

// checkLL is the log-likelihood regression detector: EM ascends the
// penalized observed-data objective, so the unpenalized log-likelihood the
// E-step evaluates may legitimately creep down by small amounts — but a
// collapse by more than HealthLLDrop·(1+|previous|) (or to NaN) means the
// fast path has diverged and the fit cannot be trusted.
func (em *Session) checkLL(ll, prev float64, havePrev bool, iter int) error {
	if math.IsNaN(ll) || math.IsInf(ll, 0) {
		em.health.NonFinite++
		mHealthNonFinite.Inc()
		return &ErrNumericalHealth{Iteration: iter, Reason: "non-finite log-likelihood",
			LL: math.NaN(), PrevLL: math.NaN()}
	}
	if !havePrev || em.opts.HealthLLDrop < 0 {
		return nil
	}
	if prev-ll > em.opts.HealthLLDrop*(1+math.Abs(prev)) {
		em.health.LLRegressions++
		mHealthLLRegressions.Inc()
		return &ErrNumericalHealth{Iteration: iter, Reason: "log-likelihood regression",
			LL: ll, PrevLL: prev}
	}
	return nil
}

// scanPosterior is the per-iteration non-finite scan: the target posterior
// mean and variance, the population parameters μ and diag(Σ) (with a
// subspace frame's complement eigenvalue α), and σ² must all stay finite,
// in the coordinates of the frame the fit runs in. O(n) per iteration and
// allocation-free, so the scan runs unconditionally inside the 0
// allocs/iteration contract.
func (em *Session) scanPosterior(e *eResult, iter int) error {
	f := em.frame()
	bad := ""
	switch {
	case !finiteVec(e.zTarget):
		bad = "target posterior mean"
	case !finiteVec(f.mu):
		bad = "population mean"
	case !finiteVec(e.vTarget) || e.cTarget != nil && !finiteDiag(e.cTarget):
		bad = "target posterior variance"
	case !finiteDiag(f.sigma) || math.IsNaN(f.alpha) || math.IsInf(f.alpha, 0):
		bad = "population covariance diagonal"
	case math.IsNaN(em.sigma2) || math.IsInf(em.sigma2, 0) || em.sigma2 <= 0:
		bad = "noise variance"
	}
	if bad == "" {
		return nil
	}
	em.health.NonFinite++
	mHealthNonFinite.Inc()
	return &ErrNumericalHealth{Iteration: iter, Reason: "non-finite " + bad,
		LL: math.NaN(), PrevLL: math.NaN()}
}

func finiteVec(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

func finiteDiag(m *matrix.Matrix) bool {
	n := m.Rows
	for i := 0; i < n; i++ {
		if x := m.Data[i*n+i]; math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
