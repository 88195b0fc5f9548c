package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"leo/internal/apps"
	"leo/internal/matrix"
	"leo/internal/platform"
	"leo/internal/profile"
)

// frameCase is one cold-fit input for the subspace-frame property tests.
type frameCase struct {
	name   string
	known  *matrix.Matrix
	obsIdx []int
	obsVal []float64
	opts   Options
	// rank is the rank of the database rows (plus InitMu) with their Ω
	// entries zeroed, known by construction.
	rank int
}

// fitFrameVsExact fits c cold on the default path and on the ExactEStep
// oracle and requires TestFitFastMatchesExact's agreement: 1e-8 on every
// Result field, equal iteration counts, and an exactly symmetric Σ.
func fitFrameVsExact(t *testing.T, c frameCase) {
	t.Helper()
	const tol = 1e-8
	fast, err := Estimate(c.known, c.obsIdx, c.obsVal, c.opts)
	if err != nil {
		t.Fatal(err)
	}
	exactOpts := c.opts
	exactOpts.ExactEStep = true
	exact, err := Estimate(c.known, c.obsIdx, c.obsVal, exactOpts)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Iterations != exact.Iterations {
		t.Fatalf("iteration counts diverged: frame %d, exact %d", fast.Iterations, exact.Iterations)
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
	if d := fast.Sigma.MaxAbsDiff(exact.Sigma); d > tol {
		t.Errorf("Sigma differs by %g", d)
	}
	if d := math.Abs(fast.Noise - exact.Noise); d > tol {
		t.Errorf("Noise differs by %g", d)
	}
	if !fast.Sigma.IsSymmetric(0) {
		t.Error("frame-fit Sigma is not exactly symmetric")
	}
}

// frameDim starts c's cold fit and reports the frame dimension it chose: d
// for a subspace frame, n when the fit fell back to the identity frame.
func frameDim(t *testing.T, c frameCase) int {
	t.Helper()
	s := newEMState(c.known, c.obsIdx, c.obsVal, c.opts)
	s.coldStart()
	return s.frame().n
}

// observe draws k distinct observed configurations and their values.
func observe(rng *rand.Rand, truth []float64, k int) ([]int, []float64) {
	idx := rng.Perm(len(truth))[:k]
	vals := make([]float64, k)
	for i, j := range idx {
		vals[i] = truth[j] + 0.01*rng.NormFloat64()
	}
	return idx, vals
}

// TestFrameFitMatchesExactProperty drives randomized shapes (n, rows, k and
// the option ablations that change the cold start or the M-step) through
// frame fits and the dense ExactEStep oracle. Random databases are
// generic, so the frame is d = k + min(rows, n−k) (+1 for InitMu) wide.
// Thirty more shapes run with a π that is not a power of two, under which Σ
// must still come out exactly symmetric.
func TestFrameFitMatchesExactProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	subspace := 0
	run := func(trial int, pi float64) {
		n := 2 + rng.Intn(39)
		rows := rng.Intn(9)
		k := rng.Intn(n + 1)
		if rows == 0 && k == 0 {
			k = 1
		}
		known, truth := synthData(rng, rows, n)
		idx, vals := observe(rng, truth, k)
		c := frameCase{known: known, obsIdx: idx, obsVal: vals, rank: min(rows, n-k)}
		switch trial % 4 {
		case 1:
			c.opts.InitMu = make([]float64, n)
			for j := range c.opts.InitMu {
				c.opts.InitMu[j] = 2 + rng.NormFloat64()
			}
			c.rank = min(rows+1, n-k)
		case 2:
			c.opts.ZeroInit = true
		case 3:
			c.opts.StrictPaperSigma = true
		}
		c.name = fmt.Sprintf("n=%d/rows=%d/k=%d/opt=%d", n, rows, k, trial%4)
		if pi != 0 {
			c.opts.Pi = pi
			c.name += fmt.Sprintf("/pi=%g", pi)
		}
		t.Run(c.name, func(t *testing.T) {
			d := frameDim(t, c)
			if want := min(k+c.rank, n); d != want {
				t.Fatalf("frame dimension %d, want k+rank = %d", d, want)
			}
			if d < n {
				subspace++
			}
			fitFrameVsExact(t, c)
		})
	}
	for trial := 0; trial < 60; trial++ {
		run(trial, 0)
	}
	if subspace < 30 {
		t.Fatalf("only %d of 60 trials ran in a subspace frame", subspace)
	}
	for trial := 60; trial < 90; trial++ {
		run(trial, [...]float64{0.3, 3.7}[trial%2])
	}
}

// TestFrameDegenerateInputs covers the inputs where subspace.basis's
// rank decisions matter — empty sides, a full frame, an empty frame (zero
// rows and no observations: everything is complement), and databases whose
// rows are duplicated, zero, confined to Ω or of rank one — plus the option
// ablations, each against ExactEStep and with d = k + rank checked white-box.
func TestFrameDegenerateInputs(t *testing.T) {
	const n, rows = 14, 6
	rng := rand.New(rand.NewSource(67))
	base, truth := synthData(rng, rows, n)
	idx, vals := observe(rng, truth, 5)
	all := make([]int, n)
	allVals := make([]float64, n)
	for j := range all {
		all[j], allVals[j] = j, truth[j]
	}

	dup := base.Clone()
	dup.SetRow(3, base.RowView(0))
	dup.SetRow(5, base.RowView(1))

	zero := base.Clone()
	for _, r := range []int{1, 4} {
		for j := range zero.RowView(r) {
			zero.Set(r, j, 0)
		}
	}

	onOmega := base.Clone()
	for j := range onOmega.RowView(2) {
		onOmega.Set(2, j, 0)
	}
	for _, j := range idx {
		onOmega.Set(2, j, 1+truth[j])
	}

	rank1 := matrix.New(rows, n)
	for i := 0; i < rows; i++ {
		for j := 0; j < n; j++ {
			rank1.Set(i, j, float64(i+1)*truth[j])
		}
	}

	initMu := make([]float64, n)
	for j := range initMu {
		initMu[j] = truth[j] + 0.1
	}

	cases := []frameCase{
		{name: "rows=0", known: matrix.New(0, n), obsIdx: idx, obsVal: vals, rank: 0},
		{name: "k=0", known: base, rank: rows},
		{name: "k=n", known: base, obsIdx: all, obsVal: allVals, rank: 0},
		{name: "duplicate rows", known: dup, obsIdx: idx, obsVal: vals, rank: rows - 2},
		{name: "zero rows", known: zero, obsIdx: idx, obsVal: vals, rank: rows - 2},
		{name: "row only on Ω", known: onOmega, obsIdx: idx, obsVal: vals, rank: rows - 1},
		{name: "rank 1", known: rank1, obsIdx: idx, obsVal: vals, rank: 1},
		{name: "d=0", known: matrix.New(rows, n), rank: 0},
		{name: "InitMu", known: base, obsIdx: idx, obsVal: vals, opts: Options{InitMu: initMu}, rank: rows + 1},
		{name: "InitMu in span", known: base, obsIdx: idx, obsVal: vals,
			opts: Options{InitMu: matrix.CloneVec(base.RowView(2))}, rank: rows},
		{name: "ZeroInit", known: base, obsIdx: idx, obsVal: vals, opts: Options{ZeroInit: true}, rank: rows},
		{name: "StrictPaperSigma", known: base, obsIdx: idx, obsVal: vals,
			opts: Options{StrictPaperSigma: true}, rank: rows},
		{name: "Pi=0.3", known: base, obsIdx: idx, obsVal: vals, opts: Options{Pi: 0.3}, rank: rows},
		{name: "k=n Pi=0.3", known: base, obsIdx: all, obsVal: allVals, opts: Options{Pi: 0.3}, rank: 0},
		{name: "k=n Pi=3.7 StrictPaperSigma", known: base, obsIdx: all, obsVal: allVals,
			opts: Options{Pi: 3.7, StrictPaperSigma: true}, rank: 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if d, want := frameDim(t, c), len(c.obsIdx)+c.rank; d != want {
				t.Fatalf("frame dimension %d, want k+rank = %d", d, want)
			}
			fitFrameVsExact(t, c)
		})
	}
}

// TestFrameInLoopLLMatchesReference: the subspace frame's in-loop
// log-likelihood, complement terms included, must agree with the standalone
// LogLikelihood evaluated at the frame's parameters mapped back to
// configuration coordinates.
func TestFrameInLoopLLMatchesReference(t *testing.T) {
	known, obsIdx, obsVal := sessionFixture(t)
	s := newEMState(known, obsIdx, obsVal, Options{}.withDefaults())
	s.coldStart()
	if !s.sub.active {
		t.Fatal("cold start did not choose a subspace frame")
	}
	mu := make([]float64, s.n)
	sigma := matrix.New(s.n, s.n)
	for iter := 0; iter < 4; iter++ {
		e, err := s.eStep(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		s.sub.materialize(mu, sigma)
		ref, err := LogLikelihood(s.known, s.obsIdx, s.obsVal, mu, sigma, math.Sqrt(s.sigma2))
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(e.ll-ref) / (1 + math.Abs(ref)); rel > 1e-8 {
			t.Fatalf("iter=%d: in-loop ll %.12g vs reference %.12g (rel %g)", iter, e.ll, ref, rel)
		}
		if err := s.mStep(context.Background(), e); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFrameFitLeavesDenseBuffersUnallocated pins the lazy-allocation
// contract: a cold fit in a subspace frame touches no n×n workspace buffer
// (Σ aside) and never builds the prior's Σ₀; frozen refits, after that cold
// fit or after a restore, allocate only what the frozen path reads, which
// excludes the target posterior covariance and its Woodbury product; and
// the dense cold start (here the ExactEStep ablation) builds Σ₀ on first
// use.
func TestFrameFitLeavesDenseBuffersUnallocated(t *testing.T) {
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
	ws := s.ws
	for name, m := range map[string]*matrix.Matrix{"cFull": ws.cFull, "cTarget": ws.cTarget,
		"sw": ws.sw, "rhsFull": ws.rhsFull, "zFull": ws.zFull, "dev": ws.dev, "sigmaBak": ws.sigmaBak} {
		if m != nil {
			t.Errorf("frame cold fit allocated the dense %s buffer", name)
		}
	}
	if ws.chS != nil || ws.chA != nil {
		t.Error("frame cold fit allocated a dense Cholesky workspace")
	}
	if prior.sigma0 != nil || prior.chol0 != nil {
		t.Error("frame cold fit built the prior's Σ₀")
	}
	// Frozen refits on the same session: one with the same observations,
	// one with the first dropped (a fresh kernel factorization).
	for w := 0; w < 2; w++ {
		if w == 1 {
			s.ClearObservations()
			for i, idx := range obsIdx[1:] {
				if err := s.Add(idx, obsVal[i+1]); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := s.Fit(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if ws.cTarget != nil || ws.sw != nil {
		t.Error("frozen refits formed the dense target posterior covariance")
	}

	restored := prior.NewSession()
	if err := restored.Restore(s.State()); err != nil {
		t.Fatal(err)
	}
	if _, err := restored.Fit(context.Background()); err != nil {
		t.Fatal(err)
	}
	rw := restored.ws
	if rw.chS != nil || rw.chA != nil || rw.cFull != nil || rw.dev != nil || rw.sigmaBak != nil ||
		rw.cTarget != nil || rw.sw != nil {
		t.Error("frozen refit allocated buffers only the dense paths read")
	}

	exact, err := NewPrior(known, Options{ExactEStep: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exact.Estimate(context.Background(), obsIdx, obsVal); err != nil {
		t.Fatal(err)
	}
	if exact.sigma0 == nil || exact.chol0 == nil {
		t.Error("dense cold start did not build Σ₀ and its factor")
	}
}

// TestFrameBasisPaperSize pins subspace.basis on the databases where its
// numerics matter: at the paper's n = 1024 the power database has rank 19
// off Ω (its five smallest genuine directions sit between 1e-8 and 1e-12 of
// their rows' norms), so the basis must keep exactly those, stay
// orthonormal to round-off (which takes the reorthogonalization pass:
// plain modified Gram–Schmidt loses four digits here), vanish on Ω, and
// span every database row.
func TestFrameBasisPaperSize(t *testing.T) {
	space := platform.Paper()
	db, err := profile.Collect(space, apps.Suite(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	target, err := db.AppIndex("kmeans")
	if err != nil {
		t.Fatal(err)
	}
	rest, _, _, err := db.LeaveOneOut(target)
	if err != nil {
		t.Fatal(err)
	}
	n := space.N()
	mask := profile.RandomMask(n, 20, rand.New(rand.NewSource(1)))
	for _, c := range []struct {
		metric string
		known  *matrix.Matrix
		rank   int
	}{{"perf", rest.Perf, rest.Perf.Rows}, {"power", rest.Power, 19}} {
		sp := &subspace{}
		r := sp.basis(c.known, nil, mask)
		if r != c.rank {
			t.Fatalf("%s: basis rank %d, want %d", c.metric, r, c.rank)
		}
		worst := 0.0
		for a := 0; a < r; a++ {
			qa := sp.cand.RowView(a)
			for _, j := range mask {
				if qa[j] != 0 {
					t.Fatalf("%s: basis vector %d is nonzero on Ω", c.metric, a)
				}
			}
			for b := 0; b <= a; b++ {
				d := matrix.Dot(qa, sp.cand.RowView(b))
				if a == b {
					d--
				}
				worst = math.Max(worst, math.Abs(d))
			}
		}
		if worst > 1e-13 {
			t.Errorf("%s: basis off orthonormal by %g", c.metric, worst)
		}
		// Every row, Ω zeroed, must lie in the span to the rank tolerance.
		for i := 0; i < c.known.Rows; i++ {
			y := matrix.CloneVec(c.known.RowView(i))
			for _, j := range mask {
				y[j] = 0
			}
			norm := matrix.Norm2(y)
			for a := 0; a < r; a++ {
				qa := sp.cand.RowView(a)
				matrix.AxpyInPlace(-matrix.Dot(qa, y), qa, y)
			}
			if res := matrix.Norm2(y) / norm; res > 1e-12 {
				t.Errorf("%s: row %d leaves the frame by %g of its norm", c.metric, i, res)
			}
		}
	}
}
