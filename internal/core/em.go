package core

import (
	"context"
	"fmt"
	"math"

	"leo/internal/matrix"
)

// emWorkspace owns every scratch buffer the E- and M-steps need. It is fit
// scratch (FreeList): a session borrows it for the length of a fit, and
// after the first iteration through a workspace touches each buffer, eStep
// and mStep perform zero heap allocations (verified by
// TestEMIterationAllocs).
//
// The dense buffers are allocated the first time a path reads them, through
// the accessors below: a session whose cold fits run in a data-subspace
// frame (frame.go) and whose warm refits run frozen never allocates the n×n
// buffers only an identity-frame cold fit uses. The same type is a subspace
// frame's d-dimensional workspace, whose dimension resize moves between
// fits while every buffer keeps its high-water storage. The
// observation-count-dependent buffers (stride-k indexing) are sized by
// ensureObs and resized exactly when k changes between fits.
type emWorkspace struct {
	n, rows int
	kcap    int // current width of the k-dependent buffers (-1 = unsized)

	// Allocated on first use; read them through the accessors.
	chA     *matrix.Cholesky // n×n factor of Σ+σ²I
	cFull   *matrix.Matrix   // n×n: shared posterior covariance
	cTarget *matrix.Matrix   // n×n: target posterior covariance
	sw      *matrix.Matrix   // n×n: S K⁻¹ Sᵀ
	rhsFull *matrix.Matrix   // rows×n: E-step right-hand sides
	zFull   *matrix.Matrix   // rows×n: posterior means, fully observed apps
	dev     *matrix.Matrix   // n×(rows+1): one centered mean per column (M-step)
	s       *matrix.Matrix   // n×k: Σ[:,Ω], gathered from a dense Σ

	chK  *matrix.Cholesky // k×k factor of the observation kernel
	wT   *matrix.Matrix   // n×k: S L_K⁻ᵀ
	kmat *matrix.Matrix   // k×k: σ²I + Σ[Ω,Ω]
	tRow matrix.Matrix    // 1×k view of tObs, a forward-solve operand

	zTarget []float64 // target posterior mean
	vTarget []float64 // diag(Ĉ_M) of a frozen fit, which forms no cTarget
	tObs    []float64 // k: observed-coordinate residual / K⁻¹ solve scratch
	prev    []float64 // previous estimate (convergence check)
	hd      []float64 // health watchdog: log-likelihood residual scratch
	zsum    []float64 // a frozen iteration's Ĉμ, then Σᵢẑᵢ (warm.go)

	// fitPrepared marks the frozen fit's per-fit target quantities (chK, Vᵀ
	// in wT, and vTarget) as current for this Fit's observation set; reset
	// at every Fit entry.
	fitPrepared bool

	e eResult // reused E-step output, fields point into the buffers above
}

func newEMWorkspace(n, rows int) *emWorkspace {
	return &emWorkspace{
		n:       n,
		rows:    rows,
		kcap:    -1,
		chK:     matrix.NewCholeskyWorkspace(0),
		wT:      matrix.New(n, 0),
		kmat:    matrix.New(0, 0),
		zTarget: make([]float64, n),
		vTarget: make([]float64, n),
		prev:    make([]float64, n),
		hd:      make([]float64, n),
	}
}

// Accessors for the dense buffers: each allocates its buffer the first time
// a path reads it and otherwise reshapes it in place to the workspace's
// current dimension (a no-op unless resize moved it). Callers overwrite the
// contents before reading them.
func (ws *emWorkspace) factorA() *matrix.Cholesky  { return sizedChol(&ws.chA, ws.n) }
func (ws *emWorkspace) cFullBuf() *matrix.Matrix   { return sized(&ws.cFull, ws.n, ws.n) }
func (ws *emWorkspace) cTargetBuf() *matrix.Matrix { return sized(&ws.cTarget, ws.n, ws.n) }
func (ws *emWorkspace) swBuf() *matrix.Matrix      { return sized(&ws.sw, ws.n, ws.n) }
func (ws *emWorkspace) rhsFullBuf() *matrix.Matrix { return sized(&ws.rhsFull, ws.rows, ws.n) }
func (ws *emWorkspace) zFullBuf() *matrix.Matrix   { return sized(&ws.zFull, ws.rows, ws.n) }
func (ws *emWorkspace) devBuf() *matrix.Matrix     { return sized(&ws.dev, ws.n, ws.rows+1) }
func (ws *emWorkspace) sBuf() *matrix.Matrix       { return sized(&ws.s, ws.n, ws.kcap) }

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
	for _, v := range [...]*[]float64{&ws.zTarget, &ws.vTarget, &ws.prev, &ws.hd} {
		*v = growVec(*v, n)
	}
}

// ensureObs sizes the k-dependent buffers for exactly k observations. The
// E-step indexes them with stride k, so they must match exactly, not merely
// be large enough. The buffers are grow-only: each keeps its high-water
// backing storage and is re-sliced to exactly k, so once a session has seen
// its largest observation count, moving between previously seen counts
// allocates nothing — a session whose window oscillates between two sizes
// no longer thrashes the allocator on every Fit. S, which only the paths
// over a dense Σ read, takes its k from here on its next sBuf.
func (ws *emWorkspace) ensureObs(n, k int) {
	if ws.kcap == k {
		return
	}
	ws.kcap = k
	ws.chK.Resize(k)
	ws.wT.Reshape(n, k)
	ws.kmat.Reshape(k, k)
	if cap(ws.tObs) < k {
		ws.tObs = make([]float64, k)
	}
	ws.tObs = ws.tObs[:k]
	ws.tRow = matrix.Matrix{Rows: 1, Cols: k, Data: ws.tObs}
}

// coldStart begins a cold fit. It runs in the data-subspace frame whenever
// that is smaller than the configuration space (frame.go); a fit whose
// frame would be full starts in the session's own coordinates (init).
// Either way the held frame goes first: another session may share it, and
// the new frame is built in the scratch's own storage.
func (em *Session) coldStart() {
	em.sub.unbind()
	em.held = heldFrame{}
	if !em.initSubspace() {
		em.init()
	}
}

// init chooses the starting parameters in the session's own coordinates
// (the identity frame): μ from the offline mean (§5.5 reports this improves
// accuracy), Σ from the offline sample covariance plus identity, and σ² at a
// small fraction of the data's variance. All three come from the prior,
// which builds Σ₀ on first use.
func (em *Session) init() {
	p := em.prior
	em.sub.active = false
	em.mu = growVec(em.mu, em.n)
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
	matrix.CloneInto(em.sigmaBuf(), p.coldSigma())
	em.sigma2 = em.initialNoise()
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
	case sp.active:
		sp.diag(variance, e.cTarget, e.compTarget) // Ĉ_M's diagonal
		sp.active = false
		if !em.oneShot {
			// μ goes back to the session's own coordinates, where the next
			// window moves it; Σ stays in the frame, which the session now
			// holds for frozen refits, State and FrozenOps (frame.go).
			em.mu = growVec(em.mu, em.n)
			sp.lift(em.mu, sp.mu)
			em.held = sp.take()
		}
	case e.cTarget == nil:
		copy(variance, e.vTarget)
	default:
		for i := range variance {
			variance[i] = e.cTarget.At(i, i)
		}
	}
	// μ and Σ stay with the session; Session.State copies them out.
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
	zSum      []float64      // a frozen E-step's Σᵢẑᵢ over them, in place of zFull
	cFull     *matrix.Matrix // shared posterior covariance of fully observed apps
	zTarget   []float64      // posterior mean of the target app
	cTarget   *matrix.Matrix // posterior covariance of the target app (nil when frozen)
	vTarget   []float64      // a frozen E-step's diag(Ĉ_M), in place of cTarget
	targetObs int

	// compFull and compTarget are Ĉ's and Ĉ_M's eigenvalue on a subspace
	// frame's complement (zero in the identity frame, which has none).
	compFull, compTarget float64

	// ll is the observed-data log-likelihood of the parameters this E-step
	// evaluated (same quantity as LogLikelihood, computed from the factors
	// already in hand) — the regression watchdog's input. llValid is false
	// when the health checks are off.
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
// so it is computed once and shared. The target application's posterior
// uses the Woodbury identity on its |Ω| observed coordinates:
//
//	Ĉ_M = Σ − Σ_{:,Ω} (σ²I + Σ_{Ω,Ω})^{-1} Σ_{Ω,:}
//
// A frozen refit runs eStepWarm from its operator cache (warm.go); every
// other fit runs eStepFast in the frame the cold fit chose. The dense
// reference EM the tests hold both to evaluates the same equations one
// application at a time.
func (em *Session) eStep(ctx context.Context) (*eResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, canceled(err)
	}
	if em.frozen {
		return em.eStepWarm()
	}
	return em.eStepFast(em.frame())
}

// ln2pi is the Gaussian normalization constant log(2π).
var ln2pi = math.Log(2 * math.Pi)

// llRowsFromMeans accumulates the fully observed applications' share of the
// observed-data log-likelihood: each row contributes −½(quadᵢ + log|A| +
// n·log 2π) with A = Σ+σ²I, whose factor in frame f must already sit in
// f.ws.chA. A subspace frame adds log(α+σ²) per complement direction to
// log|A|; the quadratic needs nothing, because yᵢ−μ lies in the frame. No
// row needs a solve: with dᵢ = yᵢ−μ the posterior mean satisfies
// ẑᵢ−μ = (I−σ²A⁻¹)dᵢ, so A⁻¹dᵢ = (yᵢ−ẑᵢ)/σ² and the quadratic is
// dᵢᵀ(yᵢ−ẑᵢ)/σ², from the means z the E-step already formed. The frozen
// E-step (eStepWarm) takes its quadratic the same way.
func (em *Session) llRowsFromMeans(f *frame, z *matrix.Matrix) float64 {
	logDet := f.ws.chA.LogDet()
	if c := f.comp(); c > 0 {
		logDet += float64(c) * math.Log(f.alpha+em.sigma2)
	}
	inv := 1 / em.sigma2
	total := 0.0
	for i := 0; i < f.known.Rows; i++ {
		zi := z.RowView(i)
		quad := 0.0
		for j, y := range f.known.RowView(i) {
			quad += (y - f.mu[j]) * (y - zi[j])
		}
		total += -0.5 * (quad*inv + logDet + float64(f.full)*ln2pi)
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

// eStepFast is the cold-fit E-step, run in frame f (the session's own
// coordinates, or a cold fit's data subspace — see frame.go). Beyond
// sharing the fully observed posterior, it does only the symmetric half of
// the work:
//
//   - Ĉ = σ²(I − σ²(Σ+σ²I)⁻¹) via Cholesky.InverseInto — ~2n³/3 flops where
//     an n-right-hand-side solve costs 2n³ — and never factorizes Σ itself
//     (the GP-form means below don't need Σ⁻¹μ).
//   - ẑ_i = μ + Ĉ(y_i−μ)/σ², algebraically equal to Ĉ(y_i/σ² + Σ⁻¹μ)
//     because Ĉ(I/σ² + Σ⁻¹) = I.
//   - The Woodbury correction S K⁻¹ Sᵀ = VᵀV with Vᵀ = S L_K⁻ᵀ: one
//     half-flop forward solve plus one symmetric rank-k product, and
//     ẑ_M = μ + S K⁻¹(y_Ω − μ_Ω) reuses the same factor.
//
// Every matrix it produces is exactly symmetric by construction (the
// symmetric kernels mirror bits), so no Symmetrize pass is needed.
// Everything runs in the frame's workspace; after the first iteration it
// allocates nothing.
func (em *Session) eStepFast(f *frame) (*eResult, error) {
	ws := f.ws
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
			// intact), whose log-determinant the likelihood needs; each
			// row's quadratic comes from its posterior mean (llRowsFromMeans).
			out.ll += em.llRowsFromMeans(f, zFull)
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
	if err := em.factorTarget(f); err != nil {
		return nil, err
	}
	// wT = S L_K⁻ᵀ, so the Woodbury correction S K⁻¹ Sᵀ = wT·wTᵀ lands as
	// one symmetric rank-k product — exactly symmetric, like Σ, so their
	// difference needs no Symmetrize.
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

// factorTarget builds the target's Woodbury operands in frame f: S =
// Σ[:,Ω] (n×k) in ws.s, the factor of K = σ²I_k + Σ[Ω,Ω], taken from S's
// Ω rows, in ws.chK, and the half-solve Vᵀ = S L_K⁻ᵀ in ws.wT (row r of
// Vᵀ is L_K⁻¹ S[r,:]). eStepFast calls it every iteration, eStepWarm once
// per fit on an identity-frame posterior.
func (em *Session) factorTarget(f *frame) error {
	n, k, ws := f.n, len(f.obsIdx), f.ws
	s := ws.sBuf()
	for col, idx := range f.obsIdx {
		for r := 0; r < n; r++ {
			s.Data[r*k+col] = f.sigma.Data[r*n+idx]
		}
	}
	for a, ia := range f.obsIdx {
		copy(ws.kmat.Data[a*k:(a+1)*k], s.Data[ia*k:(ia+1)*k])
	}
	ws.kmat.AddDiagonal(em.sigma2)
	if err := em.factorKernel(ws); err != nil {
		return err
	}
	ws.chK.ForwardSolveTInto(ws.wT, s)
	return nil
}

// factorKernel factors the observation kernel K, which ws.kmat must hold,
// into ws.chK.
func (em *Session) factorKernel(ws *emWorkspace) error {
	applied, err := ws.chK.FactorizeJitter(ws.kmat, matrix.DefaultJitter, matrix.DefaultJitterTries)
	if err != nil {
		return fmt.Errorf("core: observation kernel not factorable: %w", err)
	}
	em.noteJitter(applied)
	return nil
}

// mStep applies Eq. (4): closed-form updates of μ, Σ and σ² given the
// E-step posteriors, in the frame the E-step ran in. It writes μ and Σ in
// place — the E-step result it consumes lives in separate workspace
// buffers, so nothing it reads can alias what it writes. A canceled context
// aborts before any parameter is touched, leaving the session consistent.
//
// The Σ update batches the M+1 centered outer products into one symmetric
// rank-(M+1) kernel, and the σ² update hoists the shared trace out of its
// accumulation; Σ stays exactly symmetric end to end, with no Symmetrize
// pass.
func (em *Session) mStep(ctx context.Context, e *eResult) error {
	if err := ctx.Err(); err != nil {
		return canceled(err)
	}
	f := em.frame()
	mf := float64(em.m)
	scale := 1 / (mf + em.opts.Pi)
	mu := f.mu
	if em.frozen {
		// Frozen warm fit: Σ and σ² are pinned to the last cold fit's
		// posterior so the cached operators in warm.go stay exact — the
		// M-step propagates the new observations through μ only, from the
		// rows' summed posterior means.
		for i := range mu {
			mu[i] = (e.zSum[i] + e.zTarget[i]) * scale
		}
		return nil
	}

	// μ = (Σ_i ẑ_i) / (M + π).
	rows := e.zFull.Rows
	for i := range mu {
		mu[i] = 0
	}
	for i := 0; i < rows; i++ {
		matrix.AxpyInPlace(1, e.zFull.RowView(i), mu)
	}
	matrix.AxpyInPlace(1, e.zTarget, mu)
	for i := range mu {
		mu[i] *= scale
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
	// One batched symmetric rank-(M+1) update over the centered means (one
	// per column of dev, so Σ += dev·devᵀ) replaces M+1 full-square rank-1
	// passes.
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

	em.sigma2 = em.mStepSigma2(e, rows)
	return nil
}

// mStepSigma2 evaluates the Eq. (4) noise update
//
//	σ² = Σ_i tr(diag(L_i)(Ĉ_i + (ẑ_i−y_i)(ẑ_i−y_i)')) / ‖L‖²_F.
//
// Every fully observed application contributes the same tr(Ĉ) term, so it
// is accumulated once as tr(Ĉ)·(M−1) instead of re-added per application.
// In a subspace frame tr(Ĉ) gains Ĉ's eigenvalue once per complement
// direction; the residuals need nothing, because ẑᵢ−yᵢ lies in the frame.
func (em *Session) mStepSigma2(e *eResult, rows int) float64 {
	f := em.frame()
	n := f.n
	num := 0.0
	if rows > 0 {
		trFull := e.cFull.Trace()
		if c := f.comp(); c > 0 {
			trFull += float64(c) * e.compFull
		}
		num = trFull * float64(rows)
		for i := 0; i < rows; i++ {
			row := f.known.RowView(i)
			z := e.zFull.RowView(i)
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
