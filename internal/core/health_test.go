package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"leo/internal/matrix"
)

func healthSession(t testing.TB, opts Options) *Session {
	t.Helper()
	known, obsIdx, obsVal := sessionFixture(t)
	prior, err := NewPrior(known, opts)
	if err != nil {
		t.Fatal(err)
	}
	s := prior.NewSession()
	for i, idx := range obsIdx {
		if err := s.Add(idx, obsVal[i]); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestHealthCleanFit: on healthy data no watchdog trips, no fallback runs,
// and the result is bit-identical to a fit with the watchdogs disabled —
// the observe-only contract from Options.DisableHealthChecks' doc.
func TestHealthCleanFit(t *testing.T) {
	checked := healthSession(t, Options{})
	unchecked := healthSession(t, Options{DisableHealthChecks: true})
	got, err := checked.Fit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := unchecked.Fit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Estimate {
		if got.Estimate[i] != want.Estimate[i] {
			t.Fatalf("estimate[%d]: watchdogs changed the fit: %g != %g", i, got.Estimate[i], want.Estimate[i])
		}
	}
	h := checked.Health()
	if h.NonFinite != 0 || h.LLRegressions != 0 || h.Fallbacks != 0 {
		t.Fatalf("healthy fit tripped watchdogs: %+v", h)
	}
}

// TestHealthNonFiniteFallback: poisoning μ with a NaN mid-fit trips the
// non-finite scan on the fast path; Session.Fit restores the start
// parameters and silently re-runs the fit on the exact E-step, producing a
// usable (finite) estimate and accounting the rescue in Health. The poison
// goes into the frame the fit runs in — a cold fit's data-subspace frame
// here — since that is where the in-flight μ lives.
func TestHealthNonFiniteFallback(t *testing.T) {
	s := healthSession(t, Options{})
	poisoned := false
	healthTestHook = func(em *Session, iter int) {
		// Poison only the fast-path attempt: the rescue re-run (fallbackExact)
		// must be allowed to proceed cleanly.
		if iter == 1 && !em.fallbackExact && !poisoned {
			if em.frame() == &em.own {
				t.Error("cold fast-path fit did not run in a subspace frame")
			}
			poisoned = true
			em.frame().mu[0] = math.NaN()
		}
	}
	defer func() { healthTestHook = nil }()

	res, err := s.Fit(context.Background())
	if err != nil {
		t.Fatalf("fallback should have rescued the fit: %v", err)
	}
	if !poisoned {
		t.Fatal("test hook never fired")
	}
	for i, v := range res.Estimate {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("estimate[%d] non-finite after rescue: %g", i, v)
		}
	}
	h := s.Health()
	if h.NonFinite == 0 {
		t.Fatal("non-finite trip not counted")
	}
	if h.Fallbacks != 1 {
		t.Fatalf("Fallbacks = %d, want 1", h.Fallbacks)
	}
	// The rescued fit ends warm like any successful fit.
	if !s.warm {
		t.Fatal("session not warm after rescued fit")
	}
}

// TestHealthFallbackMatchesExact: the rescue re-runs from the same start
// parameters, so its result is bit-identical to an ExactEStep fit of the
// same session state.
func TestHealthFallbackMatchesExact(t *testing.T) {
	rescued := healthSession(t, Options{})
	healthTestHook = func(em *Session, iter int) {
		if iter == 0 && !em.fallbackExact {
			em.frame().mu[0] = math.NaN()
		}
	}
	got, err := rescued.Fit(context.Background())
	healthTestHook = nil
	if err != nil {
		t.Fatal(err)
	}
	exact := healthSession(t, Options{ExactEStep: true})
	want, err := exact.Fit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Estimate {
		if got.Estimate[i] != want.Estimate[i] {
			t.Fatalf("estimate[%d]: rescue %g != exact %g", i, got.Estimate[i], want.Estimate[i])
		}
	}
}

// TestHealthExactPathSurfacesTrip: when the exact path itself (ExactEStep)
// trips a watchdog there is no further fallback — the error surfaces to the
// caller and the session reverts to a cold start.
func TestHealthExactPathSurfacesTrip(t *testing.T) {
	s := healthSession(t, Options{ExactEStep: true})
	healthTestHook = func(em *Session, iter int) {
		if iter == 1 {
			em.mu[0] = math.NaN()
		}
	}
	defer func() { healthTestHook = nil }()
	_, err := s.Fit(context.Background())
	if err == nil {
		t.Fatal("expected a watchdog error from the exact path")
	}
	if !IsNumericalHealth(err) {
		t.Fatalf("error is not ErrNumericalHealth: %v", err)
	}
	if s.warm {
		t.Fatal("session still warm after a hard numerical failure")
	}
}

// TestHealthDisabled: with DisableHealthChecks the hook-poisoned NaN is not
// intercepted — the fit either carries it to a downstream hard failure (a
// NaN Σ is not factorable) or into the result, but never as a health trip
// and never rescued. This pins that the watchdogs are really off, not merely
// silent.
func TestHealthDisabled(t *testing.T) {
	s := healthSession(t, Options{DisableHealthChecks: true})
	healthTestHook = func(em *Session, iter int) {
		if iter == 0 {
			em.frame().mu[0] = math.NaN()
		}
	}
	defer func() { healthTestHook = nil }()
	_, err := s.Fit(context.Background())
	if IsNumericalHealth(err) {
		t.Fatalf("disabled watchdogs still raised a health error: %v", err)
	}
	if h := s.Health(); h.NonFinite != 0 || h.LLRegressions != 0 || h.Fallbacks != 0 {
		t.Fatalf("disabled watchdogs recorded trips: %+v", h)
	}
}

// TestHealthLLRegression: a forced collapse of the parameters between
// iterations (μ driven far from the data) makes the observed-data
// log-likelihood crater; the regression detector must catch it.
func TestHealthLLRegression(t *testing.T) {
	s := healthSession(t, Options{ExactEStep: true}) // no fallback: trip surfaces
	healthTestHook = func(em *Session, iter int) {
		if iter == 2 {
			for i := range em.mu {
				em.mu[i] += 1e6
			}
		}
	}
	defer func() { healthTestHook = nil }()
	_, err := s.Fit(context.Background())
	if err == nil || !IsNumericalHealth(err) {
		t.Fatalf("expected a regression trip, got %v", err)
	}
	if s.Health().LLRegressions == 0 {
		t.Fatal("regression trip not counted")
	}
}

// TestHealthLLRegressionDisabled: HealthLLDrop < 0 turns the regression
// detector off while keeping the non-finite scans.
func TestHealthLLRegressionDisabled(t *testing.T) {
	s := healthSession(t, Options{ExactEStep: true, HealthLLDrop: -1})
	healthTestHook = func(em *Session, iter int) {
		if iter == 2 {
			for i := range em.mu {
				em.mu[i] += 1e6
			}
		}
	}
	defer func() { healthTestHook = nil }()
	if _, err := s.Fit(context.Background()); err != nil {
		t.Fatalf("regression detector should be off: %v", err)
	}
	if s.Health().LLRegressions != 0 {
		t.Fatal("disabled regression detector still counted a trip")
	}
}

// TestHealthInLoopLLMatchesReference: the alloc-free in-loop log-likelihood
// must agree with the standalone LogLikelihood evaluation of the same
// parameters — same quantity, different factorization path, so agreement is
// to round-off rather than bit-exact. That covers the dense fast and exact
// E-steps and the frozen warm E-step, which takes each database row's
// quadratic from its posterior mean instead of a solve against Σ+σ²I.
func TestHealthInLoopLLMatchesReference(t *testing.T) {
	known, obsIdx, obsVal := sessionFixture(t)
	ctx := context.Background()
	check := func(label string, s *Session) {
		t.Helper()
		for iter := 0; iter < 4; iter++ {
			e, err := s.eStep(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !e.llValid {
				t.Fatalf("%s: the E-step must compute the in-loop log-likelihood", label)
			}
			ref, err := LogLikelihood(s.known, s.obsIdx, s.obsVal, s.mu, s.sigma, math.Sqrt(s.sigma2))
			if err != nil {
				t.Fatal(err)
			}
			if rel := math.Abs(e.ll-ref) / (1 + math.Abs(ref)); rel > 1e-8 {
				t.Fatalf("%s iter=%d: in-loop ll %.12g vs reference %.12g (rel %g)",
					label, iter, e.ll, ref, rel)
			}
			if err := s.mStep(ctx, e); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, exact := range []bool{false, true} {
		s := newEMState(known, obsIdx, obsVal, Options{ExactEStep: exact}.withDefaults())
		s.init()
		s.ws.ensureObs(s.n, len(obsIdx))
		check(fmt.Sprintf("exact=%v", exact), s)
	}

	// Frozen: a cold fit, then a new window set up the way Fit sets up a
	// warm refit.
	s := newEMState(known, obsIdx, obsVal, Options{}.withDefaults())
	if _, err := s.Fit(ctx); err != nil {
		t.Fatal(err)
	}
	s.ClearObservations()
	for i, idx := range obsIdx[:12] {
		if err := s.Add(idx, 1.05*obsVal[i]); err != nil {
			t.Fatal(err)
		}
	}
	s.frozen = true
	s.ws.ensureObs(s.n, len(s.obsIdx))
	s.ws.wc.fitPrepared = false
	check("frozen", s)
}

// TestHealthJitterAccounting: a session whose Σ factorization needs the
// jitter ladder records the shifts in Health. An intentionally rank-deficient
// database (duplicated rows, zero noise) forces Σ toward singularity.
func TestHealthJitterAccounting(t *testing.T) {
	s := healthSession(t, Options{})
	// Simulate what a shifted factorization reports rather than engineering a
	// genuinely degenerate Σ (the ladder's trigger point depends on round-off):
	// noteJitter is the one funnel every factorization site feeds.
	s.noteJitter(0)
	if h := s.Health(); h.JitterEvents != 0 {
		t.Fatal("zero shift must not count as a jitter event")
	}
	s.noteJitter(1e-10)
	s.noteJitter(1e-8)
	h := s.Health()
	if h.JitterEvents != 2 {
		t.Fatalf("JitterEvents = %d, want 2", h.JitterEvents)
	}
	if want := 1e-10 + 1e-8; h.JitterShift != want {
		t.Fatalf("JitterShift = %g, want %g", h.JitterShift, want)
	}
}

// TestHealthErrNumericalHealthShape pins the error type's formatting and the
// errors.As detection helper.
func TestHealthErrNumericalHealthShape(t *testing.T) {
	err := &ErrNumericalHealth{Iteration: 3, Reason: "non-finite population mean",
		LL: math.NaN(), PrevLL: math.NaN()}
	if !IsNumericalHealth(err) {
		t.Fatal("IsNumericalHealth(ErrNumericalHealth) = false")
	}
	if IsNumericalHealth(nil) || IsNumericalHealth(context.Canceled) {
		t.Fatal("IsNumericalHealth matched a non-health error")
	}
	if got := err.Error(); got == "" {
		t.Fatal("empty error string")
	}
	reg := &ErrNumericalHealth{Iteration: 1, Reason: "log-likelihood regression", LL: -2000, PrevLL: -100}
	if got := reg.Error(); got == "" {
		t.Fatal("empty error string")
	}
}

// TestFiniteScans covers the scan helpers' edge cases directly.
func TestFiniteScans(t *testing.T) {
	if !finiteVec(nil) || !finiteVec([]float64{0, -1, math.SmallestNonzeroFloat64}) {
		t.Fatal("finiteVec rejected finite input")
	}
	if finiteVec([]float64{0, math.NaN()}) || finiteVec([]float64{math.Inf(-1)}) {
		t.Fatal("finiteVec accepted non-finite input")
	}
	m := matrix.Identity(3)
	if !finiteDiag(m) {
		t.Fatal("finiteDiag rejected the identity")
	}
	m.Set(1, 1, math.Inf(1))
	if finiteDiag(m) {
		t.Fatal("finiteDiag missed an Inf on the diagonal")
	}
	m.Set(1, 1, 1)
	m.Set(0, 2, math.NaN()) // off-diagonal: deliberately not scanned
	if !finiteDiag(m) {
		t.Fatal("finiteDiag scanned off-diagonal entries")
	}
}
