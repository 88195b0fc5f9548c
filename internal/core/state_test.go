package core

import (
	"context"
	"math"
	"slices"
	"testing"

	"leo/internal/matrix"
)

// fitEqual compares two results bit for bit.
func fitEqual(t *testing.T, got, want *Result, label string) {
	t.Helper()
	for i := range want.Estimate {
		if got.Estimate[i] != want.Estimate[i] {
			t.Fatalf("%s: estimate[%d] %g != %g", label, i, got.Estimate[i], want.Estimate[i])
		}
		if got.Variance[i] != want.Variance[i] {
			t.Fatalf("%s: variance[%d] %g != %g", label, i, got.Variance[i], want.Variance[i])
		}
	}
	if got.Noise != want.Noise || got.Iterations != want.Iterations {
		t.Fatalf("%s: noise/iterations (%g,%d) != (%g,%d)", label,
			got.Noise, got.Iterations, want.Noise, want.Iterations)
	}
}

// TestStateRoundTripCold: capturing a cold session's state (observations
// only) and restoring it into a fresh session reproduces the fit bit for
// bit.
func TestStateRoundTripCold(t *testing.T) {
	known, obsIdx, obsVal := sessionFixture(t)
	prior, err := NewPrior(known, Options{})
	if err != nil {
		t.Fatal(err)
	}
	orig := prior.NewSession()
	for i, idx := range obsIdx {
		if err := orig.Add(idx, obsVal[i]); err != nil {
			t.Fatal(err)
		}
	}
	st := orig.State()
	if st.Warm {
		t.Fatal("cold session captured as warm")
	}

	restored := prior.NewSession()
	if err := restored.Restore(st); err != nil {
		t.Fatal(err)
	}
	want, err := orig.Fit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.Fit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	fitEqual(t, got, want, "cold round trip")
}

// TestStateRoundTripWarm: the restorability contract that crash recovery
// stands on — a warm session's captured state, restored into a fresh session
// over the same prior, makes the next warm Fit bit-identical to the
// original's.
func TestStateRoundTripWarm(t *testing.T) {
	known, obsIdx, obsVal := sessionFixture(t)
	prior, err := NewPrior(known, Options{})
	if err != nil {
		t.Fatal(err)
	}
	orig := prior.NewSession()
	for i, idx := range obsIdx {
		if err := orig.Add(idx, obsVal[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := orig.Fit(context.Background()); err != nil {
		t.Fatal(err)
	}
	// New observation after the first fit, exactly the controller's
	// one-measurement-per-window cadence.
	if err := orig.Add(obsIdx[0], obsVal[0]*1.01); err != nil {
		t.Fatal(err)
	}

	st := orig.State()
	if !st.Warm {
		t.Fatal("fitted session captured as cold")
	}
	restored := prior.NewSession()
	if err := restored.Restore(st); err != nil {
		t.Fatal(err)
	}
	want, err := orig.Fit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.Fit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	fitEqual(t, got, want, "warm round trip")
}

// TestStateDeepCopy: mutating the captured state must not affect the session
// and vice versa.
func TestStateDeepCopy(t *testing.T) {
	known, obsIdx, obsVal := sessionFixture(t)
	prior, err := NewPrior(known, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := prior.NewSession()
	for i, idx := range obsIdx {
		if err := s.Add(idx, obsVal[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Fit(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := s.State()
	if st.Q == nil || len(st.Omega) == 0 {
		t.Fatal("cold fit's state carries no subspace frame")
	}
	st.Mu[0] = 1e9
	st.SigmaFrame.Data[0] = 1e9
	st.Q.Data[len(st.Q.Data)-1] = 1e9
	st.Omega[0] = -7
	st.ObsVal[0] = 1e9
	sp := s.heldFrame()
	if s.mu[0] == 1e9 || sp.sigma.Data[0] == 1e9 || sp.q.Data[len(sp.q.Data)-1] == 1e9 ||
		sp.omega[0] == -7 || s.obsVal[0] == 1e9 {
		t.Fatal("State() shares memory with the session")
	}
}

// TestSharedFrameStaysReadOnly pins what sharing a restored frame relies
// on. Sessions restored from one state hold its Ω, Q and Σ′ by reference,
// and all of them borrow one free list's scratch here. One runs a frozen
// refit, which binds the scratch to the shared frame; one refits cold; one
// trips a frozen refit's watchdog and is rescued by a cold fit in the
// scratch its frozen attempt had bound. After all that, the fourth
// session's next frozen fit must be Float64bits-equal to that of a session
// restored from a deep copy of the state, and the state's frame bits must
// be the ones captured.
func TestSharedFrameStaysReadOnly(t *testing.T) {
	known, obsIdx, obsVal := sessionFixture(t)
	prior, err := NewPrior(known, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	donor := prior.NewSession()
	addAll(t, donor, obsIdx, obsVal)
	if _, err := donor.Fit(ctx); err != nil {
		t.Fatal(err)
	}
	st := donor.State()
	if st.Q == nil {
		t.Fatal("donor's posterior is not in a subspace frame")
	}
	qBits, sigmaBits := bitsOf(st.Q.Data), bitsOf(st.SigmaFrame.Data)
	omega := append([]int(nil), st.Omega...)
	copied := donor.State()

	fl := prior.NewFreeList()
	frozen, cold, rescued, other := fl.NewSession(), fl.NewSession(), fl.NewSession(), fl.NewSession()
	for _, s := range []*Session{frozen, cold, rescued, other} {
		if err := s.Restore(st); err != nil {
			t.Fatal(err)
		}
		if s.held.sigma != st.SigmaFrame || s.held.q != st.Q {
			t.Fatal("Restore copied the state's frame")
		}
	}
	ref := prior.NewFreeList().NewSession()
	if err := ref.Restore(copied); err != nil {
		t.Fatal(err)
	}
	window := func(s *Session, scale float64) *Result {
		t.Helper()
		s.ClearObservations()
		addAll(t, s, obsIdx[:10], obsVal[:10])
		if err := s.Add(obsIdx[10], scale*obsVal[10]); err != nil {
			t.Fatal(err)
		}
		res, err := s.Fit(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	window(frozen, 1.1)
	cold.ForgetPosterior()
	window(cold, 1.2)
	if h := cold.heldFrame(); h == nil || h.sigma == st.SigmaFrame || h.q == st.Q {
		t.Fatal("the cold refit did not build a frame of its own")
	}
	poisoned := poisonFrozen(t, rescued)
	window(rescued, 1.3)
	healthTestHook = nil
	if !*poisoned || rescued.Health().Fallbacks != 1 {
		t.Fatalf("poisoned=%v fallbacks=%d, want a rescued frozen refit", *poisoned, rescued.Health().Fallbacks)
	}

	got, want := window(other, 1.4), window(ref, 1.4)
	if !other.frozen || !ref.frozen {
		t.Fatal("the comparison refits did not run frozen")
	}
	gs, ws := other.State(), ref.State()
	for _, pair := range []struct {
		name      string
		got, want []float64
	}{
		{"estimate", got.Estimate, want.Estimate},
		{"variance", got.Variance, want.Variance},
		{"noise", []float64{got.Noise}, []float64{want.Noise}},
		{"μ", gs.Mu, ws.Mu},
		{"Σ′", gs.SigmaFrame.Data, ws.SigmaFrame.Data},
	} {
		if !slices.Equal(bitsOf(pair.got), bitsOf(pair.want)) {
			t.Fatalf("frozen fit on the shared frame: %s bits differ from the deep copy's", pair.name)
		}
	}
	if !slices.Equal(bitsOf(st.Q.Data), qBits) || !slices.Equal(bitsOf(st.SigmaFrame.Data), sigmaBits) ||
		!slices.Equal(st.Omega, omega) {
		t.Fatal("a fit wrote through the shared frame")
	}
}

// bitsOf returns the IEEE 754 bits of every entry of v.
func bitsOf(v []float64) []uint64 {
	out := make([]uint64, len(v))
	for i, x := range v {
		out[i] = math.Float64bits(x)
	}
	return out
}

// TestStateClearObservationsRoundTrip: a session that dropped its
// observations but kept the posterior (the controller's per-window
// DropObservations) snapshots as warm-with-no-observations and round-trips
// exactly.
func TestStateClearObservationsRoundTrip(t *testing.T) {
	known, obsIdx, obsVal := sessionFixture(t)
	prior, err := NewPrior(known, Options{})
	if err != nil {
		t.Fatal(err)
	}
	orig := prior.NewSession()
	for i, idx := range obsIdx {
		if err := orig.Add(idx, obsVal[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := orig.Fit(context.Background()); err != nil {
		t.Fatal(err)
	}
	orig.ClearObservations()
	if err := orig.Add(obsIdx[0], obsVal[0]); err != nil {
		t.Fatal(err)
	}

	st := orig.State()
	if !st.Warm || len(st.ObsIdx) != 1 {
		t.Fatalf("unexpected state shape: warm=%v obs=%d", st.Warm, len(st.ObsIdx))
	}
	restored := prior.NewSession()
	if err := restored.Restore(st); err != nil {
		t.Fatal(err)
	}
	want, err := orig.Fit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.Fit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	fitEqual(t, got, want, "post-drop round trip")
}

// TestStateForgetPosteriorRoundTrip: ForgetPosterior demotes the state to
// cold; a restored copy cold-starts exactly like the original.
func TestStateForgetPosteriorRoundTrip(t *testing.T) {
	known, obsIdx, obsVal := sessionFixture(t)
	prior, err := NewPrior(known, Options{})
	if err != nil {
		t.Fatal(err)
	}
	orig := prior.NewSession()
	for i, idx := range obsIdx {
		if err := orig.Add(idx, obsVal[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := orig.Fit(context.Background()); err != nil {
		t.Fatal(err)
	}
	orig.ForgetPosterior()

	st := orig.State()
	if st.Warm {
		t.Fatal("ForgetPosterior state still warm")
	}
	if st.Mu != nil || st.SigmaFrame != nil || st.Q != nil || st.Omega != nil {
		t.Fatal("cold state carries posterior parameters")
	}
	restored := prior.NewSession()
	if err := restored.Restore(st); err != nil {
		t.Fatal(err)
	}
	want, err := orig.Fit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.Fit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	fitEqual(t, got, want, "forget-posterior round trip")
}

// TestStateRestoreRejects: malformed state must leave the session unchanged.
// Besides the shape and finiteness of every field, a subspace-frame
// posterior must describe a frame: len(Ω) + r = d, distinct in-range Ω
// entries, a basis Q that vanishes on Ω's rows and is orthonormal, and a
// positive complement eigenvalue α.
func TestStateRestoreRejects(t *testing.T) {
	known, obsIdx, obsVal := sessionFixture(t)
	prior, err := NewPrior(known, Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := prior.n
	donor := prior.NewSession()
	for i, idx := range obsIdx {
		if err := donor.Add(idx, obsVal[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := donor.Fit(context.Background()); err != nil {
		t.Fatal(err)
	}
	if donor.heldFrame() == nil {
		t.Fatal("donor's posterior is not in a subspace frame")
	}
	// framed returns a deep copy of the donor's valid subspace-frame state
	// with one defect applied.
	framed := func(defect func(st *SessionState)) *SessionState {
		st := donor.State()
		defect(st)
		return st
	}
	if err := prior.NewSession().Restore(framed(func(*SessionState) {})); err != nil {
		t.Fatalf("valid subspace-frame state rejected: %v", err)
	}
	cases := []struct {
		name string
		st   *SessionState
	}{
		{"nil", nil},
		{"length mismatch", &SessionState{ObsIdx: []int{0, 1}, ObsVal: []float64{1}}},
		{"index out of range", &SessionState{ObsIdx: []int{n}, ObsVal: []float64{1}}},
		{"negative index", &SessionState{ObsIdx: []int{-1}, ObsVal: []float64{1}}},
		{"non-finite value", &SessionState{ObsIdx: []int{0}, ObsVal: []float64{math.Inf(1)}}},
		{"warm missing mu", &SessionState{Warm: true, SigmaFrame: matrix.Identity(n), Sigma2: 1}},
		{"warm non-square sigma", &SessionState{Warm: true, Mu: make([]float64, n),
			SigmaFrame: matrix.New(n, n-1), Sigma2: 1}},
		{"warm oversized sigma", &SessionState{Warm: true, Mu: make([]float64, n),
			SigmaFrame: matrix.Identity(n + 1), Sigma2: 1}},
		{"warm nil sigma", &SessionState{Warm: true, Mu: make([]float64, n), Sigma2: 1}},
		{"warm nan mu", &SessionState{Warm: true, Mu: append(make([]float64, n-1), math.NaN()),
			SigmaFrame: matrix.Identity(n), Sigma2: 1}},
		{"warm zero sigma2", &SessionState{Warm: true, Mu: make([]float64, n),
			SigmaFrame: matrix.Identity(n), Sigma2: 0}},
		{"warm nan sigma2", &SessionState{Warm: true, Mu: make([]float64, n),
			SigmaFrame: matrix.Identity(n), Sigma2: math.NaN()}},
		{"identity frame with a basis", &SessionState{Warm: true, Mu: make([]float64, n),
			SigmaFrame: matrix.Identity(n), Sigma2: 1, Omega: []int{0}}},
		// One case per frame rule.
		{"frame dimension mismatch", framed(func(st *SessionState) { st.Omega = st.Omega[1:] })},
		{"basis row count", framed(func(st *SessionState) { st.Q = matrix.New(n-1, st.Q.Cols) })},
		{"repeated omega", framed(func(st *SessionState) { st.Omega[1] = st.Omega[0] })},
		{"omega out of range", framed(func(st *SessionState) { st.Omega[0] = n })},
		{"negative omega", framed(func(st *SessionState) { st.Omega[0] = -1 })},
		{"basis nonzero on omega", framed(func(st *SessionState) { st.Q.RowView(st.Omega[0])[0] = 1e-300 })},
		{"basis not orthonormal", framed(func(st *SessionState) {
			for j := 0; j < n; j++ {
				st.Q.RowView(j)[0] *= 1 + 1e-9
			}
		})},
		{"non-finite basis", framed(func(st *SessionState) {
			for _, j := range rangeMissing(n, st.Omega) {
				st.Q.RowView(j)[0] = math.NaN()
				break
			}
		})},
		{"non-finite frame sigma", framed(func(st *SessionState) { st.SigmaFrame.Data[1] = math.Inf(-1) })},
		{"zero alpha", framed(func(st *SessionState) { st.Alpha = 0 })},
		{"negative alpha", framed(func(st *SessionState) { st.Alpha = -1 })},
		{"nan alpha", framed(func(st *SessionState) { st.Alpha = math.NaN() })},
		{"inf alpha", framed(func(st *SessionState) { st.Alpha = math.Inf(1) })},
	}
	for _, tc := range cases {
		s := prior.NewSession()
		for i, idx := range obsIdx {
			if err := s.Add(idx, obsVal[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Restore(tc.st); err == nil {
			t.Fatalf("%s: Restore accepted malformed state", tc.name)
		}
		if got, _ := s.Observations(); len(got) != len(obsIdx) {
			t.Fatalf("%s: failed Restore mutated the session", tc.name)
		}
		if s.warm || s.heldFrame() != nil {
			t.Fatalf("%s: failed Restore installed a posterior", tc.name)
		}
	}
}

// rangeMissing lists 0..n−1 without the entries of skip.
func rangeMissing(n int, skip []int) []int {
	drop := make(map[int]bool, len(skip))
	for _, j := range skip {
		drop[j] = true
	}
	var out []int
	for j := 0; j < n; j++ {
		if !drop[j] {
			out = append(out, j)
		}
	}
	return out
}

// TestPriorDigestSensitivity: the digest must move when the database bits or
// any fit-affecting option move, and must not depend on anything else.
func TestPriorDigestSensitivity(t *testing.T) {
	known, _, _ := sessionFixture(t)
	base, err := NewPrior(known, Options{})
	if err != nil {
		t.Fatal(err)
	}

	same, err := NewPrior(known.Clone(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if base.Digest() != same.Digest() {
		t.Fatal("identical priors digest differently")
	}

	bumped := known.Clone()
	bumped.Data[0] = math.Nextafter(bumped.Data[0], math.Inf(1))
	p, err := NewPrior(bumped, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Digest() == base.Digest() {
		t.Fatal("one-ulp database change did not move the digest")
	}

	for name, opts := range map[string]Options{
		"MaxIter":          {MaxIter: 9},
		"WarmMaxIter":      {WarmMaxIter: 3},
		"Tol":              {Tol: 1e-4},
		"Pi":               {Pi: 2},
		"ZeroInit":         {ZeroInit: true},
		"StrictPaperSigma": {StrictPaperSigma: true},
		"HealthLLDrop":     {HealthLLDrop: -1},
		"DisableHealth":    {DisableHealthChecks: true},
	} {
		p, err := NewPrior(known, opts)
		if err != nil {
			t.Fatal(err)
		}
		if p.Digest() == base.Digest() {
			t.Fatalf("option %s did not move the digest", name)
		}
	}
}

// TestPriorDigestPinned pins Prior.Digest for the session fixture's prior
// under the default options and under each option alone. Persisted
// snapshots and journals record the digest and refuse state taken against
// any other, so a change to the fold — or to the option set it packs —
// must leave every reachable option set's digest where it was.
func TestPriorDigestPinned(t *testing.T) {
	known, _, _ := sessionFixture(t)
	initMu := make([]float64, known.Cols)
	for i := range initMu {
		initMu[i] = float64(i) / 8
	}
	for _, c := range []struct {
		name string
		opts Options
		want uint64
	}{
		{"default", Options{}, 0xc2c38b6ff511bedc},
		{"ZeroInit", Options{ZeroInit: true}, 0xe1be5279000108fd},
		{"StrictPaperSigma", Options{StrictPaperSigma: true}, 0xcaed53279d976dd4},
		{"StrictConvergence", Options{StrictConvergence: true}, 0xd3171adf461d1ccc},
		{"DisableHealthChecks", Options{DisableHealthChecks: true}, 0xa21c6c9152fb02fc},
		{"InitMu", Options{InitMu: initMu}, 0xcb871b02116b2099},
		{"Pi", Options{Pi: 2}, 0x95dc567e6a8d6939},
		{"MaxIter", Options{MaxIter: 9}, 0xa9b5c2a829f0b96d},
	} {
		p, err := NewPrior(known, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Digest(); got != c.want {
			t.Errorf("%s: digest %#016x, want %#016x", c.name, got, c.want)
		}
	}
}
