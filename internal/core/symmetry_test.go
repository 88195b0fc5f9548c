package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"leo/internal/matrix"
)

// synthData builds a small synthetic database with real covariance structure:
// each application is a shared smooth base pattern plus its own noise.
func synthData(rng *rand.Rand, rows, n int) (*matrix.Matrix, []float64) {
	base := make([]float64, n)
	for j := range base {
		base[j] = 2 + math.Sin(float64(j)/3)
	}
	known := matrix.New(rows, n)
	for i := 0; i < rows; i++ {
		scale := 0.5 + rng.Float64()
		for j := 0; j < n; j++ {
			known.Set(i, j, scale*base[j]+0.1*rng.NormFloat64())
		}
	}
	truth := make([]float64, n)
	scale := 0.5 + rng.Float64()
	for j := range truth {
		truth[j] = scale*base[j] + 0.1*rng.NormFloat64()
	}
	return known, truth
}

func maxAbsDiffVec(a, b []float64) float64 {
	worst := math.Abs(float64(len(a) - len(b)))
	for i := range a {
		if i >= len(b) {
			break
		}
		if d := math.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// TestEStepFastMatchesNaiveEdgeCases pins the symmetry-aware E-step against
// the literal per-application evaluation across the Woodbury edge cases: no
// observations, a single observation, every coordinate observed, and a
// random duplicate-free Ω in between. Run under -race in CI, it also guards
// the parallel kernels feeding the fast path.
func TestEStepFastMatchesNaiveEdgeCases(t *testing.T) {
	const n, rows, tol = 12, 5, 1e-8
	rng := rand.New(rand.NewSource(31))
	known, truth := synthData(rng, rows, n)

	cases := map[string][]int{
		"k=0":      {},
		"k=1":      {4},
		"k=n":      nil, // filled below with every index
		"k=random": nil, // filled below with a duplicate-free subset
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	cases["k=n"] = all
	perm := rng.Perm(n)
	cases["k=random"] = perm[:5]

	for name, idx := range cases {
		t.Run(name, func(t *testing.T) {
			vals := make([]float64, len(idx))
			for i, j := range idx {
				vals[i] = truth[j] + 0.01*rng.NormFloat64()
			}
			fast := newEMState(known, idx, vals, Options{}.withDefaults())
			fast.init()
			naive := newEMState(known, idx, vals, Options{NaiveEStep: true}.withDefaults())
			naive.init()

			ef, err := fast.eStep(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			en, err := naive.eStep(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if d := maxAbsDiffVec(ef.zTarget, en.zTarget); d > tol {
				t.Errorf("zTarget: fast vs naive differ by %g", d)
			}
			if !ef.cTarget.Equal(en.cTarget, tol) {
				t.Error("cTarget mismatch between fast and naive E-step")
			}
			if !ef.zFull.Equal(en.zFull, tol) {
				t.Error("zFull mismatch between fast and naive E-step")
			}
			if ef.cFull == nil || en.cFull == nil {
				t.Fatal("missing shared covariance")
			}
			if !ef.cFull.Equal(en.cFull, tol) {
				t.Error("cFull mismatch between fast and naive E-step")
			}
			if !ef.cTarget.IsSymmetric(0) {
				t.Error("fast cTarget is not exactly symmetric")
			}
		})
	}
}

// TestFitFastMatchesExact runs whole fits — not single steps — through the
// default symmetry-aware path and the Options.ExactEStep ablation and
// requires them to agree to round-off. ExactEStep reproduces the pre-fast-
// path numerics, so this is the end-to-end guarantee that the kernel rewrite
// changed flop counts, not results.
func TestFitFastMatchesExact(t *testing.T) {
	const n, rows, tol = 16, 6, 1e-8
	rng := rand.New(rand.NewSource(37))
	known, truth := synthData(rng, rows, n)
	idx := rng.Perm(n)[:7]
	vals := make([]float64, len(idx))
	for i, j := range idx {
		vals[i] = truth[j] + 0.01*rng.NormFloat64()
	}

	fast, err := Estimate(known, idx, vals, Options{})
	if err != nil && !IsNotConverged(err) {
		t.Fatal(err)
	}
	exact, err := Estimate(known, idx, vals, Options{ExactEStep: true})
	if err != nil && !IsNotConverged(err) {
		t.Fatal(err)
	}
	if fast.Iterations != exact.Iterations {
		t.Fatalf("iteration counts diverged: fast %d, exact %d", fast.Iterations, exact.Iterations)
	}
	if d := maxAbsDiffVec(fast.Estimate, exact.Estimate); d > tol {
		t.Errorf("Estimate differs by %g", d)
	}
	if d := maxAbsDiffVec(fast.Variance, exact.Variance); d > tol {
		t.Errorf("Variance differs by %g", d)
	}
	if d := maxAbsDiffVec(fast.Mu, exact.Mu); d > tol {
		t.Errorf("Mu differs by %g", d)
	}
	if !fast.Sigma.Equal(exact.Sigma, tol) {
		t.Error("Sigma differs beyond tolerance")
	}
	if d := math.Abs(fast.Noise - exact.Noise); d > tol {
		t.Errorf("Noise differs by %g", d)
	}
	if !fast.Sigma.IsSymmetric(0) {
		t.Error("fast-path Sigma is not exactly symmetric")
	}
}

// TestEnsureObsReusesBuffers is the regression test for the buffer-thrash
// bug: ensureObs used to reallocate every k-dependent buffer whenever the
// observation count changed, so a session alternating between two window
// sizes paid four allocations per fit forever. The buffers are now grow-only
// backing stores re-sliced to exactly k.
func TestEnsureObsReusesBuffers(t *testing.T) {
	const n = 16
	ws := newEMWorkspace(n, 3)
	ws.ensureObs(n, 5)
	ws.ensureObs(n, 9) // high-water mark

	allocs := testing.AllocsPerRun(10, func() {
		ws.ensureObs(n, 5)
		ws.ensureObs(n, 9)
	})
	if allocs != 0 {
		t.Fatalf("ensureObs allocated %v times oscillating between seen sizes, want 0", allocs)
	}

	ws.ensureObs(n, 5)
	if ws.s.Rows != n || ws.s.Cols != 5 || ws.wT.Cols != 5 || ws.kmat.Rows != 5 ||
		len(ws.tObs) != 5 || ws.chK.Size() != 5 {
		t.Fatalf("buffers not sized to k=5 after resize: s %dx%d wT cols %d kmat %d tObs %d chK %d",
			ws.s.Rows, ws.s.Cols, ws.wT.Cols, ws.kmat.Rows, len(ws.tObs), ws.chK.Size())
	}
}

// TestMStepSigma2HandComputed checks the Eq. (4) noise update against a 3×3
// example worked out by hand, in both the hoisted (trFull·rows) and the
// historical per-row accumulation orders:
//
//	tr(Ĉ)·2 = 1.2, ‖ẑ₀−y₀‖² = 0.5, ‖ẑ₁−y₁‖² = 1.0,
//	target (idx 1): Ĉ_M[1,1] + (2−2.5)² = 0.4 + 0.25 = 0.65
//	num = 3.35, den = 2·3 + 1 = 7.
func TestMStepSigma2HandComputed(t *testing.T) {
	known := matrix.New(2, 3)
	copy(known.Data, []float64{1, 2, 3, 2, 3, 4})
	em := &Session{
		n:      3,
		known:  known,
		obsIdx: []int{1},
		obsVal: []float64{2.5},
		opts:   Options{}.withDefaults(),
	}
	cFull := matrix.New(3, 3)
	cFull.Set(0, 0, 0.1)
	cFull.Set(1, 1, 0.2)
	cFull.Set(2, 2, 0.3)
	cTarget := matrix.New(3, 3)
	cTarget.Set(0, 0, 0.3)
	cTarget.Set(1, 1, 0.4)
	cTarget.Set(2, 2, 0.5)
	zFull := matrix.New(2, 3)
	copy(zFull.Data, []float64{1.5, 2, 2.5, 2, 3, 5})
	e := &eResult{
		cFull:   cFull,
		cTarget: cTarget,
		zFull:   zFull,
		zTarget: []float64{1, 2, 3},
	}

	want := 3.35 / 7
	for _, exact := range []bool{false, true} {
		got := em.mStepSigma2(e, 2, exact)
		if math.Abs(got-want) > 1e-15 {
			t.Errorf("mStepSigma2(exact=%v) = %.17g, want %.17g", exact, got, want)
		}
	}
}
