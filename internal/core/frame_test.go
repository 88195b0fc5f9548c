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
// frame fits and the dense reference EM at 1e-8. Random databases are
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
			requireMatchesReference(t, c.known, c.obsIdx, c.obsVal, c.opts, 1e-8)
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
// ablations, each against the dense reference EM and with d = k + rank
// checked white-box.
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
			requireMatchesReference(t, c.known, c.obsIdx, c.obsVal, c.opts, 1e-8)
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
		s.sub.lift(mu, s.sub.mu)
		s.sub.materialize(sigma)
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
// contract: a cold fit in a subspace frame, a one-shot Prior.Estimate
// included, forms no dense Σ, touches no n×n workspace buffer, forms no
// n×r product for the variance diagonal and never builds the prior's Σ₀;
// frozen refits, after that cold fit or after a restore, allocate only what
// the frozen path reads, which excludes the target posterior covariance and
// its Woodbury product, the rows' posterior means and right-hand sides, and
// S = Σ[:,Ω]; and a cold start whose frame would span every configuration
// builds Σ₀ on first use.
func TestFrameFitLeavesDenseBuffersUnallocated(t *testing.T) {
	known, obsIdx, obsVal := sessionFixture(t)
	ctx := context.Background()
	prior, err := NewPrior(known, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Every fit below borrows the prior's own free list's scratch.
	dense := func(s *Session) string {
		if s.sigma != nil {
			return "Σ"
		}
		for _, sc := range prior.free.free {
			ws := sc.ws
			for name, m := range map[string]*matrix.Matrix{"cFull": ws.cFull, "cTarget": ws.cTarget,
				"sw": ws.sw, "rhsFull": ws.rhsFull, "zFull": ws.zFull, "dev": ws.dev, "S": ws.s} {
				if m != nil {
					return name
				}
			}
			if ws.chA != nil {
				return "Σ+σ²I factor"
			}
			if sc.sub.h != nil {
				return "n×r product Q·G"
			}
		}
		return ""
	}

	// The one-shot fit keeps no posterior; the hook catches its session.
	var oneShot *Session
	framed := false
	healthTestHook = func(em *Session, iter int) { oneShot, framed = em, em.sub.active }
	_, err = prior.Estimate(ctx, obsIdx, obsVal)
	healthTestHook = nil
	if err != nil {
		t.Fatal(err)
	}
	if oneShot == nil || !framed {
		t.Fatal("one-shot fit did not run in a subspace frame")
	}
	if oneShot.mu != nil || oneShot.heldFrame() != nil {
		t.Error("one-shot Prior.Estimate kept its posterior")
	}
	if name := dense(oneShot); name != "" {
		t.Errorf("one-shot Prior.Estimate allocated the dense %s", name)
	}

	s := prior.NewSession()
	for i, idx := range obsIdx {
		if err := s.Add(idx, obsVal[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Fit(ctx); err != nil {
		t.Fatal(err)
	}
	if name := dense(s); name != "" {
		t.Errorf("frame cold fit allocated the dense %s", name)
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
		if _, err := s.Fit(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if name := dense(s); name != "" {
		t.Errorf("frozen refits allocated the dense %s", name)
	}

	restored := prior.NewSession()
	if err := restored.Restore(s.State()); err != nil {
		t.Fatal(err)
	}
	if _, err := restored.Fit(ctx); err != nil {
		t.Fatal(err)
	}
	if name := dense(restored); name != "" {
		t.Errorf("frozen refit after a restore allocated the dense %s", name)
	}
	if prior.sigma0 != nil {
		t.Error("frame fits built the prior's Σ₀")
	}

	// Every configuration observed: the frame is the whole space.
	all := make([]int, prior.n)
	for j := range all {
		all[j] = j
	}
	if _, err := prior.Estimate(ctx, all, known.RowView(0)); err != nil {
		t.Fatal(err)
	}
	if prior.sigma0 == nil {
		t.Error("identity-frame cold start did not build Σ₀")
	}
}

// TestFrameBasisPaperSize pins subspace.basis on the databases where its
// numerics matter: at the paper's n = 1024 the power database has rank 19
// off Ω (its five smallest genuine directions sit between 1e-8 and 1e-12 of
// their rows' norms), so the basis must keep exactly those, stay
// orthonormal to round-off (which takes the second Gram–Schmidt pass: one
// pass loses digits here), vanish on Ω, and span every database row. Each
// candidate's coordinates, read from the basis build's R factor, must match
// an explicit Qᵀyᵢ, with and without InitMu. InitMu is the left-out
// application's own vector: one direction more for perf, and inside the
// power database's span to 1e-16, where it is dropped.
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
	rest, perf, power, err := db.LeaveOneOut(target)
	if err != nil {
		t.Fatal(err)
	}
	n := space.N()
	mask := profile.RandomMask(n, 20, rand.New(rand.NewSource(1)))
	for _, c := range []struct {
		metric string
		known  *matrix.Matrix
		truth  []float64
		rank   int
		rankMu int // with InitMu
	}{{"perf", rest.Perf, perf, rest.Perf.Rows, rest.Perf.Rows + 1}, {"power", rest.Power, power, 19, 19}} {
		for _, initMu := range [][]float64{nil, c.truth} {
			name, rank := c.metric, c.rank
			cands := c.known.Clone()
			if initMu != nil {
				name, rank = name+"+InitMu", c.rankMu
				cands = matrix.New(c.known.Rows+1, n)
				copy(cands.Data, c.known.Data)
				cands.SetRow(c.known.Rows, initMu)
			}
			sp := &subspace{}
			r := sp.basis(c.known, initMu, mask)
			if r != rank {
				t.Fatalf("%s: basis rank %d, want %d", name, r, rank)
			}
			worst := 0.0
			for a := 0; a < r; a++ {
				qa := sp.cand.RowView(a)
				for _, j := range mask {
					if qa[j] != 0 {
						t.Fatalf("%s: basis vector %d is nonzero on Ω", name, a)
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
				t.Errorf("%s: basis off orthonormal by %g", name, worst)
			}
			for i := 0; i < cands.Rows; i++ {
				y := matrix.CloneVec(cands.RowView(i))
				for _, j := range mask {
					y[j] = 0
				}
				norm := matrix.Norm2(y)
				// The coordinates R gives must be Qᵀyᵢ.
				coord := sp.rf.RowView(i)
				for a := 0; a < r; a++ {
					if d := math.Abs(coord[a] - matrix.Dot(sp.cand.RowView(a), y)); d > 1e-12*norm {
						t.Errorf("%s: candidate %d's coordinate %d off Qᵀyᵢ by %g of its norm", name, i, a, d/norm)
					}
				}
				// Every candidate, Ω zeroed, must lie in the span to the
				// rank tolerance.
				for a := 0; a < r; a++ {
					qa := sp.cand.RowView(a)
					matrix.AxpyInPlace(-matrix.Dot(qa, y), qa, y)
				}
				if res := matrix.Norm2(y) / norm; res > 1e-12 {
					t.Errorf("%s: candidate %d leaves the frame by %g of its norm", name, i, res)
				}
			}
		}
	}
}

// TestFrameDiagMatchesMaterialize holds subspace.diag to the diagonal of
// materialize's Σ at 1e-12 relative on random frames, k = 0 and r = 0
// included, with both callers' inputs: the cold fit's Ĉ′_M with its
// complement value, and buildA's Σ′ with α.
func TestFrameDiagMatchesMaterialize(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	ctx := context.Background()
	var k0, r0 int
	for trial := 0; trial < 40; trial++ {
		n := 20 + rng.Intn(30)
		rows := 1 + rng.Intn(8)
		k := rng.Intn(n/2 + 1)
		switch trial % 4 {
		case 0:
			k = 0
		case 1:
			rows, k = 0, 1+k
		}
		known, truth := synthData(rng, rows, n)
		idx, vals := observe(rng, truth, k)
		s := newEMState(known, idx, vals, Options{}.withDefaults())
		s.coldStart()
		sp := s.sub
		if sp == nil || !sp.active {
			t.Fatalf("trial %d (n=%d rows=%d k=%d): no subspace frame", trial, n, rows, k)
		}
		if k == 0 {
			k0++
		}
		if sp.q.Cols == 0 {
			r0++
		}
		// One EM iteration moves Σ′ and α off their starting values.
		e, err := s.eStep(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.mStep(ctx, e); err != nil {
			t.Fatal(err)
		}
		if e, err = s.eStep(ctx); err != nil {
			t.Fatal(err)
		}
		got := make([]float64, n)
		want := matrix.New(n, n)
		for _, in := range []struct {
			name  string
			m     *matrix.Matrix
			alpha float64
		}{{"Ĉ′_M", e.cTarget, e.compTarget}, {"Σ′", sp.sigma, sp.alpha}} {
			sp.diag(got, in.m, in.alpha)
			sigma, alpha := sp.sigma, sp.alpha
			sp.sigma, sp.alpha = in.m, in.alpha
			sp.materialize(want)
			sp.sigma, sp.alpha = sigma, alpha
			for j, v := range got {
				if w := want.At(j, j); math.Abs(v-w) > 1e-12*math.Abs(w) {
					t.Fatalf("trial %d (n=%d rows=%d k=%d) %s: diag[%d] = %.17g, materialize %.17g",
						trial, n, rows, k, in.name, j, v, w)
				}
			}
		}
	}
	if k0 == 0 || r0 == 0 {
		t.Fatalf("k = 0 in %d trials and r = 0 in %d, want both", k0, r0)
	}
}
