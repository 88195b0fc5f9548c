package core

import (
	"context"
	"errors"
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

// warmHealthSession is healthSession after its cold fit, holding a new
// window: the first half of the fixture's observations at 5% higher values,
// so its next Fit is a frozen refit.
func warmHealthSession(t *testing.T, opts Options) *Session {
	t.Helper()
	s := healthSession(t, opts)
	if _, err := s.Fit(context.Background()); err != nil {
		t.Fatal(err)
	}
	idx, val := s.Observations()
	s.ClearObservations()
	for i := range idx[:len(idx)/2] {
		if err := s.Add(idx[i], 1.05*val[i]); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// poisonFrozen makes the healthTestHook put a NaN into μ at the second
// iteration of s's frozen refits only, so the cold refit that rescues one
// runs clean. It reports whether the poison went in.
func poisonFrozen(t *testing.T, s *Session) *bool {
	poisoned := new(bool)
	healthTestHook = func(em *Session, iter int) {
		if em == s && em.frozen && iter == 1 {
			em.mu[0] = math.NaN()
			*poisoned = true
		}
	}
	t.Cleanup(func() { healthTestHook = nil })
	return poisoned
}

// TestHealthNonFiniteFallback: poisoning μ with a NaN mid-way through a
// frozen refit trips the non-finite scan; Session.Fit re-runs the window as
// a cold fit from the prior, producing a usable (finite) estimate and
// accounting the rescue in Health.
func TestHealthNonFiniteFallback(t *testing.T) {
	s := warmHealthSession(t, Options{})
	poisoned := poisonFrozen(t, s)
	res, err := s.Fit(context.Background())
	if err != nil {
		t.Fatalf("fallback should have rescued the fit: %v", err)
	}
	if !*poisoned {
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

// TestHealthFallbackMatchesColdFit: the rescue of a tripped frozen refit is
// a cold fit of the window's observations from the prior, so its result and
// the posterior it leaves are bit-identical to a fresh session's cold fit of
// the same observations — in a subspace frame and, with every configuration
// observed, in the identity frame.
func TestHealthFallbackMatchesColdFit(t *testing.T) {
	ctx := context.Background()
	for _, frame := range []string{"subspace", "identity"} {
		rescued := warmHealthSession(t, Options{})
		if frame == "identity" {
			for j := 0; j < rescued.n; j++ {
				if err := rescued.Add(j, rescued.known.At(0, j)); err != nil {
					t.Fatal(err)
				}
			}
		}
		poisoned := poisonFrozen(t, rescued)
		cold0, warm0 := mEMFitsCold.Value(), mEMFitsWarm.Value()
		got, err := rescued.Fit(ctx)
		healthTestHook = nil
		if err != nil {
			t.Fatal(err)
		}
		if !*poisoned || rescued.Health().Fallbacks != 1 {
			t.Fatalf("%s: poisoned=%v fallbacks=%d, want a rescued frozen refit",
				frame, *poisoned, rescued.Health().Fallbacks)
		}
		if dc, dw := mEMFitsCold.Value()-cold0, mEMFitsWarm.Value()-warm0; dc != 1 || dw != 0 {
			t.Fatalf("%s: rescue counted %d cold and %d warm fits, want 1 cold", frame, dc, dw)
		}
		if held := rescued.heldFrame() != nil; held != (frame == "subspace") {
			t.Fatalf("%s: rescued posterior held in a subspace frame: %v", frame, held)
		}
		cold := rescued.prior.NewSession()
		idx, val := rescued.Observations()
		for i := range idx {
			if err := cold.Add(idx[i], val[i]); err != nil {
				t.Fatal(err)
			}
		}
		want, err := cold.Fit(ctx)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, frame+" rescued frozen refit", got, want, rescued.State(), cold.State())
		if got.Iterations != want.Iterations {
			t.Fatalf("%s: rescue ran %d iterations, cold fit %d", frame, got.Iterations, want.Iterations)
		}
	}
}

// TestHealthColdTripSurfaces: a cold fit that trips a watchdog has nothing
// to fall back to. The error surfaces to the caller, no rescue is counted,
// the session reverts to a cold start, and its next Fit succeeds with the
// bits of a fresh session's cold fit.
func TestHealthColdTripSurfaces(t *testing.T) {
	s := healthSession(t, Options{})
	healthTestHook = func(em *Session, iter int) {
		if iter == 1 {
			if em.frame() == &em.own {
				t.Error("cold fit did not run in a subspace frame")
			}
			em.frame().mu[0] = math.NaN()
		}
	}
	_, err := s.Fit(context.Background())
	healthTestHook = nil
	if err == nil {
		t.Fatal("expected a watchdog error from the cold fit")
	}
	if !IsNumericalHealth(err) {
		t.Fatalf("error is not ErrNumericalHealth: %v", err)
	}
	if s.warm {
		t.Fatal("session still warm after a hard numerical failure")
	}
	if h := s.Health(); h.NonFinite == 0 || h.Fallbacks != 0 {
		t.Fatalf("health %+v, want a non-finite trip and no fallback", h)
	}
	got, err := s.Fit(context.Background())
	if err != nil {
		t.Fatalf("next fit after a trip: %v", err)
	}
	fresh := healthSession(t, Options{})
	want, err := fresh.Fit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "fit after a cold trip", got, want, s.State(), fresh.State())
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

// collapseMu makes the healthTestHook drive the in-flight μ far from the
// data at the third iteration.
func collapseMu(em *Session, iter int) {
	if iter == 2 {
		mu := em.frame().mu
		for i := range mu {
			mu[i] += 1e6
		}
	}
}

// TestHealthLLRegression: a forced collapse of the parameters between
// iterations (μ driven far from the data) makes the observed-data
// log-likelihood crater; the regression detector must catch it. The fit is
// cold, so the trip surfaces.
func TestHealthLLRegression(t *testing.T) {
	s := healthSession(t, Options{})
	healthTestHook = collapseMu
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
	s := healthSession(t, Options{HealthLLDrop: -1})
	healthTestHook = collapseMu
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
// to round-off rather than bit-exact. That covers the E-step over a dense Σ
// in the identity frame and the frozen warm E-step, both of which take each
// database row's quadratic from its posterior mean instead of a solve
// against Σ+σ²I.
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
			sigma := s.sigma
			if s.heldFrame() != nil {
				sigma = s.State().DenseSigma() // a frozen refit on a subspace posterior
			}
			ref, err := LogLikelihood(s.known, s.obsIdx, s.obsVal, s.mu, sigma, math.Sqrt(s.sigma2))
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
	s := newEMState(known, obsIdx, obsVal, Options{}.withDefaults())
	s.init()
	s.ws.ensureObs(s.n, len(obsIdx))
	check("identity frame", s)

	// Frozen: a cold fit, then a new window set up the way Fit sets up a
	// warm refit.
	s = newEMState(known, obsIdx, obsVal, Options{}.withDefaults())
	if _, err := s.Fit(ctx); err != nil {
		t.Fatal(err)
	}
	s.ClearObservations()
	for i, idx := range obsIdx[:12] {
		if err := s.Add(idx, 1.05*obsVal[i]); err != nil {
			t.Fatal(err)
		}
	}
	if s.heldFrame() == nil {
		t.Fatal("cold fit did not keep its posterior in the subspace frame")
	}
	s.frozen = true
	s.ws.ensureObs(s.n, len(s.obsIdx))
	s.ws.fitPrepared = false
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

// TestErrorClassifiersMatchErrorsAs holds IsNotConverged and
// IsNumericalHealth to errors.As on bare, %w-wrapped, joined and unrelated
// errors and nil, and requires both to allocate nothing: Session.Fit calls
// them on nearly every frozen refit's error.
func TestErrorClassifiersMatchErrorsAs(t *testing.T) {
	nc := &ErrNotConverged{Iterations: 2, Change: 1e-3, Tol: 1e-6}
	he := &ErrNumericalHealth{Iteration: 1, Reason: "non-finite log-likelihood", LL: math.NaN(), PrevLL: math.NaN()}
	other := errors.New("unrelated")
	for _, c := range []struct {
		name string
		err  error
	}{
		{"nil", nil},
		{"not converged", nc},
		{"health", he},
		{"wrapped not converged", fmt.Errorf("fit: %w", nc)},
		{"wrapped health", fmt.Errorf("fit: %w", fmt.Errorf("retry: %w", he))},
		{"joined", errors.Join(other, fmt.Errorf("fit: %w", nc), he)},
		{"joined unrelated", errors.Join(other, context.Canceled)},
		{"unrelated", other},
	} {
		var ncT *ErrNotConverged
		var heT *ErrNumericalHealth
		if got, want := IsNotConverged(c.err), errors.As(c.err, &ncT); got != want {
			t.Errorf("%s: IsNotConverged = %v, errors.As = %v", c.name, got, want)
		}
		if got, want := IsNumericalHealth(c.err), errors.As(c.err, &heT); got != want {
			t.Errorf("%s: IsNumericalHealth = %v, errors.As = %v", c.name, got, want)
		}
		err := c.err
		if allocs := testing.AllocsPerRun(20, func() {
			IsNotConverged(err)
			IsNumericalHealth(err)
		}); allocs != 0 {
			t.Errorf("%s: classifiers allocated %v times per call pair, want 0", c.name, allocs)
		}
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
