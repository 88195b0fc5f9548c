package core

import (
	"context"
	"fmt"
	"math"

	"leo/internal/matrix"
)

// emWorkspace owns every scratch buffer the E- and M-steps need. After the
// first iteration touches each buffer, eStep and mStep perform zero heap
// allocations (verified by TestEMIterationAllocs); the only exception is the
// goroutine fan-out inside the matrix kernels, which allocates O(workers)
// when the operands are large enough to parallelize and GOMAXPROCS > 1 —
// see DESIGN.md §7.
//
// The dense buffers are allocated the first time a path reads them, through
// the accessors below: a session whose cold fits run in a data-subspace
// frame (frame.go) and whose warm refits run frozen never allocates the
// buffers only the dense cold path uses. The same type is a subspace
// frame's d-dimensional workspace, whose dimension resize moves between
// fits while every buffer keeps its high-water storage. The
// observation-count-dependent buffers (stride-k indexing) are sized by
// ensureObs and resized exactly when k changes between fits.
type emWorkspace struct {
	n, rows int
	kcap    int // current width of the k-dependent buffers (-1 = unsized)

	// Allocated on first use; read them through the accessors.
	chS      *matrix.Cholesky // n×n factor of Σ
	chA      *matrix.Cholesky // n×n factor of Σ+σ²I
	cFull    *matrix.Matrix   // n×n: shared posterior covariance
	cTarget  *matrix.Matrix   // n×n: target posterior covariance
	sw       *matrix.Matrix   // n×n: S K⁻¹ Sᵀ
	rhsFull  *matrix.Matrix   // rows×n: E-step right-hand sides
	zFull    *matrix.Matrix   // rows×n: posterior means, fully observed apps
	dev      *matrix.Matrix   // n×(rows+1): one centered mean per column (M-step)
	sigmaBak *matrix.Matrix   // n×n: start Σ of a non-frozen warm fit

	chK  *matrix.Cholesky // k×k factor of the observation kernel
	s    *matrix.Matrix   // n×k: Σ[:,Ω]
	wT   *matrix.Matrix   // n×k: S K⁻¹ (exact path) or S L_K⁻ᵀ (fast path)
	kmat *matrix.Matrix   // k×k: σ²I + Σ[Ω,Ω]

	sinvMu  []float64 // Σ⁻¹μ (exact path only)
	rhs     []float64 // target right-hand side
	zTarget []float64 // target posterior mean
	vTarget []float64 // diag(Ĉ_M) of a frozen fit, which forms no cTarget
	tObs    []float64 // k: observed-coordinate residual / K⁻¹ solve scratch
	d       []float64 // centered-difference scratch (M-step, exact path)
	prev    []float64 // previous estimate (convergence check)
	hd      []float64 // health watchdog: log-likelihood residual scratch
	hs      []float64 // health watchdog: log-likelihood solve scratch

	// Start-parameter backup for the watchdog's exact-path fallback of a
	// warm fit: the retry must restart from the same μ/Σ/σ² the diverged
	// attempt did. (A cold fit's retry restarts from the prior instead.)
	muBak     []float64
	sigmaBakd bool // sigmaBak holds this fit's start Σ (skipped for frozen fits)
	sigma2Bak float64

	// wc caches the frozen-parameter operators consecutive warm fits share;
	// see warm.go.
	wc warmCache

	e eResult // reused E-step output, fields point into the buffers above
}

func newEMWorkspace(n, rows int) *emWorkspace {
	return &emWorkspace{
		n:       n,
		rows:    rows,
		kcap:    -1,
		chK:     matrix.NewCholeskyWorkspace(0),
		s:       matrix.New(n, 0),
		wT:      matrix.New(n, 0),
		kmat:    matrix.New(0, 0),
		sinvMu:  make([]float64, n),
		rhs:     make([]float64, n),
		zTarget: make([]float64, n),
		vTarget: make([]float64, n),
		d:       make([]float64, n),
		prev:    make([]float64, n),
		hd:      make([]float64, n),
		hs:      make([]float64, n),
		muBak:   make([]float64, n),
	}
}

// Accessors for the dense buffers: each allocates its buffer the first time
// a path reads it and otherwise reshapes it in place to the workspace's
// current dimension (a no-op unless resize moved it). Callers overwrite the
// contents before reading them.
func (ws *emWorkspace) factorS() *matrix.Cholesky   { return sizedChol(&ws.chS, ws.n) }
func (ws *emWorkspace) factorA() *matrix.Cholesky   { return sizedChol(&ws.chA, ws.n) }
func (ws *emWorkspace) cFullBuf() *matrix.Matrix    { return sized(&ws.cFull, ws.n, ws.n) }
func (ws *emWorkspace) cTargetBuf() *matrix.Matrix  { return sized(&ws.cTarget, ws.n, ws.n) }
func (ws *emWorkspace) swBuf() *matrix.Matrix       { return sized(&ws.sw, ws.n, ws.n) }
func (ws *emWorkspace) rhsFullBuf() *matrix.Matrix  { return sized(&ws.rhsFull, ws.rows, ws.n) }
func (ws *emWorkspace) zFullBuf() *matrix.Matrix    { return sized(&ws.zFull, ws.rows, ws.n) }
func (ws *emWorkspace) devBuf() *matrix.Matrix      { return sized(&ws.dev, ws.n, ws.rows+1) }
func (ws *emWorkspace) sigmaBakBuf() *matrix.Matrix { return sized(&ws.sigmaBak, ws.n, ws.n) }

// sized returns *p shaped rows×cols, allocating it on first use and
// otherwise reshaping it in place (grow-only storage).
func sized(p **matrix.Matrix, rows, cols int) *matrix.Matrix {
	m := *p
	if m == nil {
		m = matrix.New(rows, cols)
		*p = m
	} else if m.Rows != rows || m.Cols != cols {
		m.Reshape(rows, cols)
	}
	return m
}

// sizedChol is sized for Cholesky workspaces.
func sizedChol(p **matrix.Cholesky, n int) *matrix.Cholesky {
	if *p == nil {
		*p = matrix.NewCholeskyWorkspace(n)
	} else {
		(*p).Resize(n)
	}
	return *p
}

// growVec returns v re-sliced to length n, reallocating only past its
// capacity.
func growVec(v []float64, n int) []float64 {
	if cap(v) < n {
		return make([]float64, n)
	}
	return v[:n]
}

// resize re-dimensions the workspace for n-dimensional operands. Every
// buffer keeps its high-water storage: the vectors re-slice here, the dense
// buffers reshape on their next use, and the k-dependent ones on the next
// ensureObs.
func (ws *emWorkspace) resize(n int) {
	ws.n, ws.kcap = n, -1
	for _, v := range [...]*[]float64{&ws.sinvMu, &ws.rhs, &ws.zTarget, &ws.vTarget, &ws.d, &ws.prev, &ws.hd, &ws.hs, &ws.muBak} {
		*v = growVec(*v, n)
	}
}

// saveStart backs up the parameters a warm fit is about to start from, so a
// watchdog-tripped attempt can be re-run on the exact path from the same
// point.
func (ws *emWorkspace) saveStart(s *Session) {
	copy(ws.muBak, s.mu)
	// A frozen fit pins Σ by construction (the M-step moves μ only), so the
	// n² copy would back up a matrix the attempt cannot touch.
	ws.sigmaBakd = !s.frozen
	if ws.sigmaBakd {
		matrix.CloneInto(ws.sigmaBakBuf(), s.sigma)
	}
	ws.sigma2Bak = s.sigma2
}

// restoreStart undoes whatever a diverged warm attempt left in the
// parameters.
func (ws *emWorkspace) restoreStart(s *Session) {
	copy(s.mu, ws.muBak)
	if ws.sigmaBakd {
		matrix.CloneInto(s.sigma, ws.sigmaBak)
	}
	s.sigma2 = ws.sigma2Bak
	// A warm fit starts from a fitted posterior, never from Σ₀, so the exact
	// retry must factorize it instead of reusing the prior's factor.
	s.freshSigma = false
}

// ensureObs sizes the k-dependent buffers for exactly k observations. The
// E-step indexes them with stride k, so they must match exactly, not merely
// be large enough. The buffers are grow-only: each keeps its high-water
// backing storage and is re-sliced to exactly k, so once a session has seen
// its largest observation count, moving between previously seen counts
// allocates nothing — a session whose window oscillates between two sizes
// no longer thrashes the allocator on every Fit.
func (ws *emWorkspace) ensureObs(n, k int) {
	if ws.kcap == k {
		return
	}
	ws.kcap = k
	// ws.chK is deliberately not resized here: the warm path grows it
	// incrementally (Append) and the fresh-factorization sites resize it
	// themselves just before factorizing.
	ws.s.Reshape(n, k)
	ws.wT.Reshape(n, k)
	ws.kmat.Reshape(k, k)
	if cap(ws.tObs) < k {
		ws.tObs = make([]float64, k)
	}
	ws.tObs = ws.tObs[:k]
}

// newEMState builds a session preloaded with observations — the internal
// equivalent of the old single-shot constructor, kept as the entry point for
// the workspace tests and benchmarks. It panics on invalid input; exported
// paths validate first.
func newEMState(known *matrix.Matrix, obsIdx []int, obsVal []float64, opts Options) *Session {
	p, err := NewPrior(known, opts)
	if err != nil {
		panic(err)
	}
	s := p.NewSession()
	for i, idx := range obsIdx {
		if err := s.Add(idx, obsVal[i]); err != nil {
			panic(err)
		}
	}
	return s
}

// coldStart begins a cold fit. Fast-path fits run in the data-subspace
// frame whenever it is smaller than the configuration space (frame.go); the
// exact and naive ablations, and fits whose frame would be full, start in
// the session's own coordinates (init).
func (em *Session) coldStart() {
	if em.opts.ExactEStep || em.opts.NaiveEStep || !em.initSubspace() {
		em.init()
	}
}

// init chooses the starting parameters in the session's own coordinates
// (the identity frame): μ from the offline mean (§5.5 reports this improves
// accuracy), Σ from the offline sample covariance plus identity, and σ² at a
// small fraction of the data's variance. All three come from the prior,
// which builds Σ₀ and its factor on first use.
func (em *Session) init() {
	p := em.prior
	if em.sub != nil {
		em.sub.active = false
	}
	switch {
	case em.opts.InitMu != nil:
		copy(em.mu, em.opts.InitMu)
	case em.opts.ZeroInit || em.known.Rows == 0:
		for i := range em.mu {
			em.mu[i] = 0
		}
	default:
		copy(em.mu, p.colMean)
	}
	sigma0, chol0 := p.coldSigma()
	matrix.CloneInto(em.sigma, sigma0)
	em.sigma2 = em.initialNoise()
	em.freshSigma = chol0 != nil && !em.opts.NaiveEStep
	em.ws.ensureObs(em.n, len(em.obsIdx))
}

// initialNoise picks a starting σ² proportional to the overall data scale.
// With no data at all (no known rows, no observations) there is no scale to
// measure, so it falls back to the σ² floor rather than dividing by zero.
func (em *Session) initialNoise() float64 {
	// The prior carries the database's running sum; continuing it with the
	// observations reproduces the single-pass sum bit for bit.
	sum, count := em.prior.sumSq, em.prior.count
	for _, v := range em.obsVal {
		sum += v * v
		count++
	}
	if count == 0 {
		return em.opts.SigmaFloor
	}
	meanSq := sum / float64(count)
	// With one measurement per (app, configuration) cell, σ² moves slowly
	// under EM (it is only weakly identified against Σ), so the starting
	// point should already be a plausible measurement-noise level: 0.1% of
	// the mean square, i.e. ~3% relative noise.
	s2 := 0.001 * meanSq
	if s2 < em.opts.SigmaFloor {
		s2 = em.opts.SigmaFloor
	}
	return s2
}

// run executes EM to convergence and assembles the result. When the
// iteration budget runs out first, it returns the capped Result together
// with an *ErrNotConverged carrying the iteration count — a soft failure the
// caller can distinguish from the hard numerical errors (which return a nil
// Result). Cancellation is checked before every iteration and inside each
// step, so a canceled context aborts within one EM iteration.
func (em *Session) run(ctx context.Context, maxIter int) (*Result, error) {
	var (
		havePrev   bool
		zM         []float64
		converged  bool
		iters      int
		lastChange = math.Inf(1)
		prevLL     float64
		haveLL     bool
	)
	health := !em.opts.DisableHealthChecks
	for iter := 0; iter < maxIter; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, canceled(err)
		}
		if healthTestHook != nil {
			healthTestHook(em, iter)
		}
		iters = iter + 1
		e, err := em.eStep(ctx)
		if err != nil {
			return nil, err
		}
		if health && e.llValid {
			if err := em.checkLL(e.ll, prevLL, haveLL, iter); err != nil {
				return nil, err
			}
			prevLL, haveLL = e.ll, true
		}
		zM = em.lift(e.zTarget)
		if err := em.mStep(ctx, e); err != nil {
			return nil, err
		}
		if health {
			if err := em.scanPosterior(e, iter); err != nil {
				return nil, err
			}
		}

		if havePrev {
			lastChange = relChange(em.ws.prev, zM)
			if lastChange < em.opts.Tol {
				converged = true
				break
			}
		}
		copy(em.ws.prev, zM)
		havePrev = true
	}

	// One final E-step so the returned prediction is conditioned on the
	// final parameters.
	e, err := em.eStep(ctx)
	if err != nil {
		return nil, err
	}
	if health {
		if e.llValid {
			if err := em.checkLL(e.ll, prevLL, haveLL, iters); err != nil {
				return nil, err
			}
		}
		if err := em.scanPosterior(e, iters); err != nil {
			return nil, err
		}
	}
	// Observability: totals recorded once per fit, outside the iteration
	// loop, with allocation-free counter/gauge operations.
	mEMIterations.Add(uint64(iters))
	mEMLastChange.Set(lastChange)
	if !converged {
		mEMUnconverged.Inc()
	}
	estimate := matrix.CloneVec(em.lift(e.zTarget))
	variance := make([]float64, em.n)
	switch sp := em.sub; {
	case sp != nil && sp.active:
		// Back to the session's own coordinates: warm refits, State,
		// FrozenOps and the one-shot entry points' results all read the
		// dense μ and Σ.
		sp.variance(variance, e)
		sp.materialize(em.mu, em.sigma)
		sp.active = false
	case e.cTarget == nil:
		copy(variance, e.vTarget)
	default:
		for i := range variance {
			variance[i] = e.cTarget.At(i, i)
		}
	}
	// μ and Σ stay with the session (Session.State copies them out); the
	// one-shot entry points, which discard theirs, hand them over.
	res := &Result{
		Estimate:   estimate,
		Variance:   variance,
		Noise:      math.Sqrt(em.sigma2),
		Iterations: iters,
		Converged:  converged,
	}
	if !converged {
		return res, &ErrNotConverged{Iterations: iters, Change: lastChange, Tol: em.opts.Tol}
	}
	return res, nil
}

// relChange returns max_i |a_i − b_i| / (1 + |b_i|), or +Inf when the
// lengths disagree (mismatched estimates can never have converged).
func relChange(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	worst := 0.0
	for i, v := range a {
		if d := math.Abs(v-b[i]) / (1 + math.Abs(b[i])); d > worst {
			worst = d
		}
	}
	return worst
}

// eResult holds the E-step posteriors (Eq. 3), in the coordinates of the
// frame the E-step ran in. On the fast path the fields alias emWorkspace
// buffers that the next eStep overwrites.
type eResult struct {
	zFull     *matrix.Matrix // (M−1)×n posterior means of fully observed apps
	cFull     *matrix.Matrix // shared posterior covariance of fully observed apps
	zTarget   []float64      // posterior mean of the target app
	cTarget   *matrix.Matrix // posterior covariance of the target app (nil when frozen)
	vTarget   []float64      // a frozen E-step's diag(Ĉ_M), in place of cTarget
	sinvMu    []float64      // Σ^{-1} μ, reused by both branches
	targetObs int

	// compFull and compTarget are Ĉ's and Ĉ_M's eigenvalue on a subspace
	// frame's complement (zero in the identity frame, which has none).
	compFull, compTarget float64

	// ll is the observed-data log-likelihood of the parameters this E-step
	// evaluated (same quantity as LogLikelihood, computed from the factors
	// already in hand) — the regression watchdog's input. llValid is false
	// when the path does not compute it (naive ablation, health checks off).
	ll      float64
	llValid bool
}

// eStep evaluates Eq. (3) for every application.
//
// For a fully observed application (L_i = 1 everywhere) the posterior
// covariance is the same for all i:
//
//	Ĉ = (I/σ² + Σ^{-1})^{-1} = σ² · Σ (Σ + σ²I)^{-1} = σ²(I − σ²(Σ+σ²I)^{-1}),
//
// so it is computed once and shared — the key optimization ablated by
// Options.NaiveEStep. The target application's posterior uses the Woodbury
// identity on its |Ω| observed coordinates:
//
//	Ĉ_M = Σ − Σ_{:,Ω} (σ²I + Σ_{Ω,Ω})^{-1} Σ_{Ω,:}
//
// The default path (eStepFast) exploits the symmetry of every posterior:
// the shared covariance comes from the DPOTRI-style symmetric inverse (the
// rightmost identity above), and the Woodbury correction is assembled as a
// symmetric rank-k product — roughly a third of the exact path's flops.
// Options.ExactEStep selects the pre-symmetry-aware evaluation, and
// Options.NaiveEStep the one-factorization-per-application literal form.
func (em *Session) eStep(ctx context.Context) (*eResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, canceled(err)
	}
	if em.opts.NaiveEStep {
		return em.eStepNaive()
	}
	if em.opts.ExactEStep || em.fallbackExact {
		return em.eStepExact()
	}
	if em.frozen {
		return em.eStepWarm()
	}
	return em.eStepFast(em.frame())
}

// ln2pi is the Gaussian normalization constant log(2π).
var ln2pi = math.Log(2 * math.Pi)

// llRows accumulates the fully observed applications' share of the
// observed-data log-likelihood: each row contributes −½(quadᵢ + log|A| +
// n·log 2π) with A = Σ+σ²I, whose factor in frame f must already sit in
// f.ws.chA. A subspace frame adds log(α+σ²) per complement direction to
// log|A|; the quadratic needs nothing, because yᵢ−μ lies in the frame. It
// runs entirely in the hd/hs scratch vectors — zero allocations.
func (em *Session) llRows(f *frame) float64 {
	ws, n := f.ws, f.n
	logDet := ws.chA.LogDet()
	if c := f.comp(); c > 0 {
		logDet += float64(c) * math.Log(f.alpha+em.sigma2)
	}
	total := 0.0
	for i := 0; i < f.known.Rows; i++ {
		row := f.known.RowView(i)
		for j := 0; j < n; j++ {
			ws.hd[j] = row[j] - f.mu[j]
		}
		ws.chA.SolveVecInto(ws.hs, ws.hd)
		total += -0.5 * (matrix.Dot(ws.hd, ws.hs) + logDet + float64(f.full)*ln2pi)
	}
	return total
}

// llTarget is the target application's share: −½(quad + log|K| + k·log 2π)
// with K = σ²I + Σ[Ω,Ω] factored in chK. diff must hold y_Ω − μ_Ω and
// solved K⁻¹(y_Ω − μ_Ω); both are already produced by the E-step's Woodbury
// work.
func llTarget(chK *matrix.Cholesky, diff, solved []float64) float64 {
	k := len(diff)
	return -0.5 * (matrix.Dot(diff, solved) + chK.LogDet() + float64(k)*ln2pi)
}

// eStepFast is the production E-step, run in frame f (the session's own
// coordinates, or a cold fit's data subspace — see frame.go). Beyond
// sharing the fully observed posterior, it does only the symmetric half of
// the work:
//
//   - Ĉ = σ²(I − σ²(Σ+σ²I)⁻¹) via Cholesky.InverseInto — ~2n³/3 flops where
//     the exact path's n-right-hand-side solve costs 2n³ — and never
//     factorizes Σ itself (the GP-form means below don't need Σ⁻¹μ).
//   - ẑ_i = μ + Ĉ(y_i−μ)/σ², algebraically equal to Ĉ(y_i/σ² + Σ⁻¹μ)
//     because Ĉ(I/σ² + Σ⁻¹) = I.
//   - The Woodbury correction S K⁻¹ Sᵀ = VᵀV with Vᵀ = S L_K⁻ᵀ: one
//     half-flop forward solve plus one symmetric rank-k product, and
//     ẑ_M = μ + S K⁻¹(y_Ω − μ_Ω) reuses the same factor.
//
// Every matrix it produces is exactly symmetric by construction (the
// symmetric kernels mirror bits), so the exact path's Symmetrize passes
// disappear. Everything runs in the frame's workspace; after the first
// iteration it allocates nothing.
func (em *Session) eStepFast(f *frame) (*eResult, error) {
	n, ws := f.n, f.ws
	out := &ws.e
	*out = eResult{targetObs: len(f.obsIdx)}
	s2 := em.sigma2
	if f.comp() > 0 {
		// Σ acts as α on the complement, so Ĉ acts as σ²α/(α+σ²) and Ĉ_M,
		// which no observation touches there, as α.
		out.compFull = s2 * f.alpha / (f.alpha + s2)
		out.compTarget = f.alpha
	}

	// Shared covariance and means for the fully observed applications.
	zFull := ws.zFullBuf()
	if f.known.Rows > 0 {
		chA, cFull, rhsFull := ws.factorA(), ws.cFullBuf(), ws.rhsFullBuf()
		if err := chA.FactorizeShift(f.sigma, s2); err != nil {
			return nil, fmt.Errorf("core: Σ+σ²I not factorable: %w", err)
		}
		chA.InverseInto(cFull)
		out.cFull = cFull.ScaleInPlace(-s2 * s2).AddDiagonal(s2)

		inv := 1 / s2
		for i := 0; i < f.known.Rows; i++ {
			row := f.known.RowView(i)
			rhs := rhsFull.RowView(i)
			for j := range rhs {
				rhs[j] = (row[j] - f.mu[j]) * inv
			}
		}
		// ẑ_i = μ + Ĉ rhs_i for every app at once; Ĉ is symmetric so the
		// transposed-B kernel applies it directly.
		matrix.MulTransBInto(zFull, rhsFull, out.cFull)
		for i := 0; i < f.known.Rows; i++ {
			matrix.AxpyInPlace(1, f.mu, zFull.RowView(i))
		}
		if !em.opts.DisableHealthChecks {
			// chA still holds the factor of Σ+σ²I (InverseInto leaves it
			// intact), which is exactly the marginal the likelihood needs.
			out.ll += em.llRows(f)
			out.llValid = true
		}
	}
	out.zFull = zFull

	// Target application via Woodbury on the observed coordinates.
	k := len(f.obsIdx)
	cTarget := ws.cTargetBuf()
	if k == 0 {
		out.cTarget = matrix.CloneInto(cTarget, f.sigma)
		copy(ws.zTarget, f.mu)
		out.zTarget = ws.zTarget
		return out, nil
	}
	// S = Σ[:, Ω] (n×k), K = σ²I_k + Σ[Ω, Ω].
	for col, idx := range f.obsIdx {
		for r := 0; r < n; r++ {
			ws.s.Data[r*k+col] = f.sigma.Data[r*n+idx]
		}
	}
	for a, ia := range f.obsIdx {
		for b, ib := range f.obsIdx {
			ws.kmat.Data[a*k+b] = f.sigma.Data[ia*n+ib]
		}
	}
	ws.kmat.AddDiagonal(s2)
	ws.chK.Resize(k)
	applied, err := ws.chK.FactorizeJitter(ws.kmat, matrix.DefaultJitter, matrix.DefaultJitterTries)
	if err != nil {
		return nil, fmt.Errorf("core: observation kernel not factorable: %w", err)
	}
	em.noteJitter(applied)
	// Row r of wT is L_K⁻¹ S[r,:], i.e. wT = S L_K⁻ᵀ, so the Woodbury
	// correction S K⁻¹ Sᵀ = wT·wTᵀ lands as one symmetric rank-k product —
	// exactly symmetric, like Σ, so their difference needs no Symmetrize.
	ws.chK.ForwardSolveTInto(ws.wT, ws.s)
	sw := matrix.SyrkInto(ws.swBuf(), 1, ws.wT)
	out.cTarget = matrix.SubInto(cTarget, f.sigma, sw)

	// GP-form posterior mean: ẑ_M = μ + S K⁻¹ (y_Ω − μ_Ω).
	for i, idx := range f.obsIdx {
		ws.tObs[i] = f.obsVal[i] - f.mu[idx]
	}
	health := !em.opts.DisableHealthChecks
	if health {
		copy(ws.hd[:k], ws.tObs)
	}
	ws.chK.SolveVecInto(ws.tObs, ws.tObs)
	if health {
		// The solved residual K⁻¹(y_Ω − μ_Ω) is the likelihood's quadratic
		// term — the watchdog's input comes free with the Woodbury work.
		out.ll += llTarget(ws.chK, ws.hd[:k], ws.tObs)
		out.llValid = true
	}
	matrix.MulVecInto(ws.zTarget, ws.s, ws.tObs)
	matrix.AxpyInPlace(1, f.mu, ws.zTarget)
	out.zTarget = ws.zTarget
	return out, nil
}

// eStepExact is the pre-symmetry-aware evaluation of Eq. (3), selected by
// Options.ExactEStep: the shared covariance through a full n-right-hand-side
// triangular solve, posterior means through Σ⁻¹μ, and explicit Symmetrize
// passes. Same math as eStepFast to round-off; kept as an ablation and as
// the oracle the fast path is property-tested against.
func (em *Session) eStepExact() (*eResult, error) {
	n, ws := em.n, em.ws
	out := &ws.e
	*out = eResult{targetObs: len(em.obsIdx)}

	chS := ws.factorS()
	if em.freshSigma {
		// Cold start: Σ is exactly the prior's Σ₀, whose factor the prior
		// already computed — copy it instead of refactorizing.
		_, chol0 := em.prior.coldSigma()
		chS.CopyFrom(chol0)
		em.freshSigma = false
	} else {
		applied, err := chS.FactorizeJitter(em.sigma, matrix.DefaultJitter, matrix.DefaultJitterTries)
		if err != nil {
			return nil, fmt.Errorf("core: Σ not factorable: %w", err)
		}
		em.noteJitter(applied)
	}
	out.sinvMu = chS.SolveVecInto(ws.sinvMu, em.mu)

	// Shared covariance for fully observed applications.
	zFull := ws.zFullBuf()
	if em.known.Rows > 0 {
		chA, cFull, rhsFull := ws.factorA(), ws.cFullBuf(), ws.rhsFullBuf()
		if err := chA.FactorizeShift(em.sigma, em.sigma2); err != nil {
			return nil, fmt.Errorf("core: Σ+σ²I not factorable: %w", err)
		}
		// SolveTInto yields Σ(Σ+σ²I)⁻¹ transposed relative to the textbook
		// order; symmetrizing erases the distinction exactly.
		chA.SolveTInto(cFull, em.sigma)
		out.cFull = cFull.ScaleInPlace(em.sigma2).Symmetrize()

		inv := 1 / em.sigma2
		for i := 0; i < em.known.Rows; i++ {
			row := em.known.RowView(i)
			rhs := rhsFull.RowView(i)
			for j := range rhs {
				rhs[j] = row[j]*inv + out.sinvMu[j]
			}
		}
		// ẑ_i = Ĉ rhs_i for every app at once; Ĉ is symmetric so the
		// transposed-B kernel applies it directly.
		out.zFull = matrix.MulTransBInto(zFull, rhsFull, out.cFull)
		if !em.opts.DisableHealthChecks {
			out.ll += em.llRows(em.frame())
			out.llValid = true
		}
	} else {
		out.zFull = zFull // 0×n
	}

	// Target application via Woodbury on the observed coordinates.
	k := len(em.obsIdx)
	cTarget := ws.cTargetBuf()
	if k == 0 {
		out.cTarget = matrix.CloneInto(cTarget, em.sigma)
		copy(ws.zTarget, em.mu)
		out.zTarget = ws.zTarget
		return out, nil
	}
	// S = Σ[:, Ω] (n×k), K = σ²I_k + Σ[Ω, Ω].
	for col, idx := range em.obsIdx {
		for r := 0; r < n; r++ {
			ws.s.Data[r*k+col] = em.sigma.Data[r*n+idx]
		}
	}
	for a, ia := range em.obsIdx {
		for b, ib := range em.obsIdx {
			ws.kmat.Data[a*k+b] = em.sigma.Data[ia*n+ib]
		}
	}
	ws.kmat.AddDiagonal(em.sigma2)
	ws.chK.Resize(k)
	applied, err := ws.chK.FactorizeJitter(ws.kmat, matrix.DefaultJitter, matrix.DefaultJitterTries)
	if err != nil {
		return nil, fmt.Errorf("core: observation kernel not factorable: %w", err)
	}
	em.noteJitter(applied)
	// Each row of S is one right-hand side: wT = S K⁻¹ (n×k), and the
	// Woodbury correction S K⁻¹ Sᵀ is then a single transposed-B GEMM.
	ws.chK.SolveTInto(ws.wT, ws.s)
	sw := matrix.MulTransBInto(ws.swBuf(), ws.wT, ws.s)
	out.cTarget = matrix.SubInto(cTarget, em.sigma, sw).Symmetrize()
	if !em.opts.DisableHealthChecks {
		for i, idx := range em.obsIdx {
			ws.hd[i] = em.obsVal[i] - em.mu[idx]
		}
		ws.chK.SolveVecInto(ws.hs[:k], ws.hd[:k])
		out.ll += llTarget(ws.chK, ws.hd[:k], ws.hs[:k])
		out.llValid = true
	}

	copy(ws.rhs, out.sinvMu)
	inv := 1 / em.sigma2
	for i, idx := range em.obsIdx {
		ws.rhs[idx] += em.obsVal[i] * inv
	}
	out.zTarget = matrix.MulVecInto(ws.zTarget, out.cTarget, ws.rhs)
	return out, nil
}

// eStepNaive computes Eq. (3) literally: one n×n factorization per
// application. It exists to quantify the value of the shared-covariance
// fast path; results are identical up to round-off. Unlike the fast path it
// allocates freely — it is the ablation baseline, not a production path.
func (em *Session) eStepNaive() (*eResult, error) {
	n := em.n
	out := &eResult{targetObs: len(em.obsIdx)}

	chS, applied, err := matrix.NewCholeskyJitter(em.sigma, matrix.DefaultJitter, matrix.DefaultJitterTries)
	if err != nil {
		return nil, fmt.Errorf("core: Σ not factorable: %w", err)
	}
	em.noteJitter(applied)
	sigmaInv := chS.Inverse()
	out.sinvMu = sigmaInv.MulVec(em.mu)
	inv := 1 / em.sigma2

	posterior := func(mask []int, values []float64) (*matrix.Matrix, []float64, error) {
		a := sigmaInv.Clone()
		for _, idx := range mask {
			a.Set(idx, idx, a.At(idx, idx)+inv)
		}
		chA, appliedA, err := matrix.NewCholeskyJitter(a, matrix.DefaultJitter, matrix.DefaultJitterTries)
		if err != nil {
			return nil, nil, fmt.Errorf("core: naive posterior not factorable: %w", err)
		}
		em.noteJitter(appliedA)
		c := chA.Inverse()
		rhs := matrix.CloneVec(out.sinvMu)
		for i, idx := range mask {
			rhs[idx] += values[i] * inv
		}
		return c, c.MulVec(rhs), nil
	}

	fullMask := make([]int, n)
	for i := range fullMask {
		fullMask[i] = i
	}
	out.zFull = matrix.New(em.known.Rows, n)
	for i := 0; i < em.known.Rows; i++ {
		c, z, err := posterior(fullMask, em.known.RowView(i))
		if err != nil {
			return nil, err
		}
		out.cFull = c // identical for every fully observed app
		out.zFull.SetRow(i, z)
	}
	c, z, err := posterior(em.obsIdx, em.obsVal)
	if err != nil {
		return nil, err
	}
	out.cTarget, out.zTarget = c, z
	return out, nil
}

// mStep applies Eq. (4): closed-form updates of μ, Σ and σ² given the
// E-step posteriors, in the frame the E-step ran in. It writes μ and Σ in
// place — the E-step result it consumes lives in separate workspace
// buffers, so nothing it reads can alias what it writes. A canceled context
// aborts before any parameter is touched, leaving the session consistent.
//
// The Σ and σ² updates have a fast and an exact form. The fast form batches
// the M+1 centered outer products into one symmetric rank-(M+1) kernel and
// hoists the shared trace out of the σ² accumulation; it preserves exact
// symmetry end to end, so the final Symmetrize disappears. The exact form
// (Options.ExactEStep or NaiveEStep) reproduces the pre-symmetry-aware
// reduction orders bit for bit.
func (em *Session) mStep(ctx context.Context, e *eResult) error {
	if err := ctx.Err(); err != nil {
		return canceled(err)
	}
	f := em.frame()
	mf := float64(em.m)
	rows := e.zFull.Rows

	// μ = (Σ_i ẑ_i) / (M + π).
	mu := f.mu
	for i := range mu {
		mu[i] = 0
	}
	for i := 0; i < rows; i++ {
		matrix.AxpyInPlace(1, e.zFull.RowView(i), mu)
	}
	matrix.AxpyInPlace(1, e.zTarget, mu)
	scale := 1 / (mf + em.opts.Pi)
	for i := range mu {
		mu[i] *= scale
	}

	if em.frozen {
		// Frozen warm fit: Σ and σ² are pinned to the last cold/full fit's
		// posterior so the cached operators in warm.go stay exact — the
		// M-step propagates the new observations through μ only.
		return nil
	}

	// Σ update: sum of posterior covariances and centered outer products,
	// plus the NIW prior terms πμμ' and Ψ = I.
	sigma := f.sigma
	if e.cFull != nil && rows > 0 {
		rf := float64(rows)
		for i, v := range e.cFull.Data {
			sigma.Data[i] = v*rf + e.cTarget.Data[i]
		}
	} else {
		copy(sigma.Data, e.cTarget.Data)
	}
	exact := em.opts.ExactEStep || em.opts.NaiveEStep || em.fallbackExact
	if exact {
		d := em.ws.d
		for i := 0; i < rows; i++ {
			z := e.zFull.RowView(i)
			for j := range d {
				d[j] = z[j] - mu[j]
			}
			matrix.OuterAccumInto(sigma, 1, d, d)
		}
		for j := range d {
			d[j] = e.zTarget[j] - mu[j]
		}
		matrix.OuterAccumInto(sigma, 1, d, d)
	} else {
		// One batched symmetric rank-(M+1) update over the centered means
		// (one per column of dev, so Σ += dev·devᵀ) replaces M+1
		// full-square rank-1 passes.
		dev, w := f.ws.devBuf(), rows+1
		n := f.n
		for i := 0; i < rows; i++ {
			z := e.zFull.RowView(i)
			for j := 0; j < n; j++ {
				dev.Data[j*w+i] = z[j] - mu[j]
			}
		}
		for j := 0; j < n; j++ {
			dev.Data[j*w+rows] = e.zTarget[j] - mu[j]
		}
		matrix.SyrkAccumInto(sigma, 1, dev)
	}

	// πμμᵀ goes through the symmetric rank-1 update: each product lands in
	// both mirrored entries, so Σ stays exactly symmetric for any π.
	norm := 1 / (mf + 1)
	if em.opts.StrictPaperSigma {
		sigma.ScaleInPlace(norm)
		sigma.AddScaledSymOuter(em.opts.Pi, mu)
		sigma.AddDiagonal(1)
	} else {
		sigma.AddScaledSymOuter(em.opts.Pi, mu)
		sigma.AddDiagonal(1) // Ψ = I
		sigma.ScaleInPlace(norm)
	}
	if f.comp() > 0 {
		// Σ on the complement takes the same update, to which every outer
		// product (each lies in the frame) contributes nothing.
		a := e.compTarget
		if rows > 0 {
			a = e.compFull*float64(rows) + e.compTarget
		}
		if em.opts.StrictPaperSigma {
			f.alpha = a*norm + 1
		} else {
			f.alpha = (a + 1) * norm
		}
	}
	if exact {
		// The rank-1 updates above round asymmetrically; the fast path's
		// symmetric kernels make this pass unnecessary.
		sigma.Symmetrize()
	}

	em.sigma2 = em.mStepSigma2(e, rows, exact)
	return nil
}

// mStepSigma2 evaluates the Eq. (4) noise update
//
//	σ² = Σ_i tr(diag(L_i)(Ĉ_i + (ẑ_i−y_i)(ẑ_i−y_i)')) / ‖L‖²_F.
//
// Every fully observed application contributes the same tr(Ĉ) term; the
// fast form accumulates it once as tr(Ĉ)·(M−1) instead of re-adding it per
// application, while the exact form keeps the historical order. In a
// subspace frame tr(Ĉ) gains Ĉ's eigenvalue once per complement direction;
// the residuals need nothing, because ẑᵢ−yᵢ lies in the frame.
func (em *Session) mStepSigma2(e *eResult, rows int, exact bool) float64 {
	f := em.frame()
	n := f.n
	num := 0.0
	if rows > 0 {
		trFull := e.cFull.Trace()
		if c := f.comp(); c > 0 {
			trFull += float64(c) * e.compFull
		}
		if !exact {
			num = trFull * float64(rows)
		}
		for i := 0; i < rows; i++ {
			row := f.known.RowView(i)
			z := e.zFull.RowView(i)
			if exact {
				num += trFull
			}
			for j := 0; j < n; j++ {
				d := z[j] - row[j]
				num += d * d
			}
		}
	}
	for i, idx := range f.obsIdx {
		d := e.zTarget[idx] - f.obsVal[i]
		num += e.cTarget.At(idx, idx) + d*d
	}
	den := float64(rows*f.full + len(f.obsIdx))
	sigma2 := em.opts.SigmaFloor
	if den > 0 {
		if s := num / den; s > sigma2 {
			sigma2 = s
		}
	}
	return sigma2
}
