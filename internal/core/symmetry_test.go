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
// the dense reference's E-step (refEStep) across the
// Woodbury edge cases: no observations, a single observation, every
// coordinate observed, and a random duplicate-free Ω in between. Run under
// -race in CI, it also guards the parallel kernels feeding the fast path.
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
			ef, err := fast.eStep(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			requireEStepMatchesReference(t, fast, ef, tol)
			if !ef.cTarget.IsSymmetric(0) {
				t.Error("fast cTarget is not exactly symmetric")
			}
		})
	}
}

// TestFitFastMatchesExact runs whole fits — not single steps — through the
// production path and the dense reference EM and requires them to agree to
// round-off: the end-to-end guarantee that the symmetric kernels and the
// shared posterior covariance changed flop counts, not results.
func TestFitFastMatchesExact(t *testing.T) {
	const n, rows, tol = 16, 6, 1e-8
	rng := rand.New(rand.NewSource(37))
	known, truth := synthData(rng, rows, n)
	idx := rng.Perm(n)[:7]
	vals := make([]float64, len(idx))
	for i, j := range idx {
		vals[i] = truth[j] + 0.01*rng.NormFloat64()
	}

	requireMatchesReference(t, known, idx, vals, Options{}, tol)
}

// TestEnsureObsReusesBuffers is the regression test for the buffer-thrash
// bug: ensureObs used to reallocate every k-dependent buffer whenever the
// observation count changed, so a session alternating between two window
// sizes paid four allocations per fit forever. The buffers are now grow-only
// backing stores re-sliced to exactly k. S = Σ[:,Ω], which only the paths
// over a dense Σ read, is sized by its first-use accessor to the k ensureObs
// last set, and reshapes without allocating as well.
func TestEnsureObsReusesBuffers(t *testing.T) {
	const n = 16
	ws := newEMWorkspace(n, 3)
	ws.ensureObs(n, 5)
	ws.ensureObs(n, 9) // high-water mark
	ws.sBuf()

	allocs := testing.AllocsPerRun(10, func() {
		ws.ensureObs(n, 5)
		ws.sBuf()
		ws.ensureObs(n, 9)
		ws.sBuf()
	})
	if allocs != 0 {
		t.Fatalf("ensureObs allocated %v times oscillating between seen sizes, want 0", allocs)
	}

	ws.ensureObs(n, 5)
	s := ws.sBuf()
	if s.Rows != n || s.Cols != 5 || ws.wT.Cols != 5 || ws.kmat.Rows != 5 ||
		len(ws.tObs) != 5 || ws.tRow.Cols != 5 || ws.chK.Size() != 5 {
		t.Fatalf("buffers not sized to k=5 after resize: s %dx%d wT cols %d kmat %d tObs %d tRow %d chK %d",
			s.Rows, s.Cols, ws.wT.Cols, ws.kmat.Rows, len(ws.tObs), ws.tRow.Cols, ws.chK.Size())
	}
}

// TestMStepSigma2HandComputed checks the Eq. (4) noise update, with its
// shared trace hoisted (trFull·rows), against a 3×3 example worked out by
// hand:
//
//	tr(Ĉ)·2 = 1.2, ‖ẑ₀−y₀‖² = 0.5, ‖ẑ₁−y₁‖² = 1.0,
//	target (idx 1): Ĉ_M[1,1] + (2−2.5)² = 0.4 + 0.25 = 0.65
//	num = 3.35, den = 2·3 + 1 = 7.
func TestMStepSigma2HandComputed(t *testing.T) {
	known := matrix.New(2, 3)
	copy(known.Data, []float64{1, 2, 3, 2, 3, 4})
	em := &Session{
		n:          3,
		known:      known,
		obsIdx:     []int{1},
		obsVal:     []float64{2.5},
		opts:       Options{}.withDefaults(),
		fitScratch: newFitScratch(3, 2),
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
	if got := em.mStepSigma2(e, 2); math.Abs(got-want) > 1e-15 {
		t.Errorf("mStepSigma2 = %.17g, want %.17g", got, want)
	}
}
