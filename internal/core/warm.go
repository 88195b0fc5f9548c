package core

import (
	"fmt"
	"math"

	"leo/internal/matrix"
)

// Warm-refit operator cache.
//
// Across consecutive warm fits the session freezes Σ and σ² (the M-step
// updates μ only — see mStep), which makes every expensive operator of the
// E-step a constant of the fit sequence: the shared posterior covariance
// Ĉ = σ²(I−σ²A⁻¹) with A = Σ+σ²I, the per-application products Ĉyᵢ/σ²,
// log|A| and diag(Σ). buildA computes them once per posterior, in the frame
// the posterior lives in (frame.go):
//
//   - Identity frame (Σ′ = Σ, P = I): Ĉ is n×n and each EM iteration applies
//     it with one n² matvec, the order every identity-frame fit has always
//     used.
//   - Subspace frame, Σ = αI + P(Σ′−αI)Pᵀ: Ĉ is c⊥ = σ²α/(α+σ²) on V⊥ and
//     Ĉ′ = σ²(I−σ²(Σ′+σ²I)⁻¹) on V, so buildA factors the d×d Σ′+σ²I,
//     log|A| = log|Σ′+σ²I| + (n−d)·log(α+σ²), Ĉyᵢ/σ² = PĈ′Pᵀyᵢ/σ² (the
//     database rows lie in V) and diag(Σ) comes from the structure —
//     O(d³ + rows·n·d + n·r²) in all. An iteration applies
//     Ĉμ = c⊥μ + P(Ĉ′−c⊥I)Pᵀμ in O(n·d): μ stays a dense n-vector, because
//     each window's observations move it out of V.
//
// Each iteration adds O(rows·n) work on the database rows, and each fit
// O(n·r·k + nk² + k³) target work. The likelihood watchdog needs no solve
// against A: A⁻¹(yᵢ−μ) = (yᵢ−ẑᵢ)/σ², and ẑᵢ is already in hand. The target
// posterior covariance Ĉ_M is formed only by its diagonal, because a frozen
// fit reads nothing else of it (Result.Variance and the non-finite scan;
// the M-step stops before the Σ and σ² updates).
//
// The target kernel K = σ²I+Σ[Ω,Ω] is factored once per fit and reused
// across that fit's iterations. At a calibration window's ~20 observations
// that factorization costs a few thousand multiply-adds, against the
// O(n·r·k) that forms S and the O(n·d) applications of Ĉ the rest of a
// steady window costs, so nothing carries it from one fit to the next.
//
// Everything cached is a pure function of the posterior's frame (α, Ω, Q,
// Σ′; Σ itself in the identity frame), σ² and the prior database, so a
// rebuild from scratch reproduces the same bits; the cache is invalidated
// whenever a non-frozen fit (cold, exact, naive, watchdog fallback) or a
// Restore may change Σ or σ².
type warmCache struct {
	// ops is the A-side operator set, immutable once built (invalidation
	// drops the pointer; a rebuild allocates fresh). Immutability is what
	// makes it shareable: a seed-transferred session can adopt its donor's
	// ops instead of re-deriving the identical bits — see Session.FrozenOps.
	ops *frozenOps

	cmu []float64 // per-iteration: Ĉ μ / σ²

	// fitPrepared marks the per-fit target quantities (chK, S, wT and the
	// workspace's vTarget) as current for this Fit's observation set; reset
	// at every Fit entry.
	fitPrepared bool
}

// frozenOps is the A-side operator set of a frozen warm fit: every quantity
// that depends only on the pinned posterior (its frame and σ²) and the
// prior's database. Never written after buildA publishes it, so any number
// of sessions over the same parameters may hold the same instance. The
// factor of A is not kept: nothing after buildA solves against it.
// paramsDigest fingerprints the exact parameters it was built at.
type frozenOps struct {
	cHat    *matrix.Matrix // d×d: Ĉ′, Ĉ in frame coordinates (Ĉ itself when d = n)
	cComp   float64        // c⊥ = σ²α/(α+σ²), Ĉ on the complement (zero when d = n)
	cy      *matrix.Matrix // rows×n: Ĉ yᵢ / σ²
	diag    []float64      // n: diag(Σ)
	logDetA float64        // log|Σ+σ²I|

	paramsDigest uint64 // FNV over (prior digest, σ², α, Ω, Q, Σ′)
}

// invalidate drops everything: the next frozen fit rebuilds from scratch.
func (wc *warmCache) invalidate() {
	wc.ops = nil
	wc.fitPrepared = false
}

// frozenParamsDigest fingerprints the exact parameters a frozenOps set is a
// function of: the prior's digest, σ², and the posterior's frame — α, Ω, Q
// and Σ′ (the dense Σ, with no Ω or Q, in the identity frame).
func (em *Session) frozenParamsDigest() uint64 {
	h := fnvOffset
	h = fnvU64(h, em.prior.Digest())
	h = fnvU64(h, math.Float64bits(em.sigma2))
	sigma := em.sigma
	if sp := em.heldFrame(); sp != nil {
		h = fnvU64(h, math.Float64bits(sp.alpha))
		h = fnvU64(h, uint64(len(sp.omega)))
		for _, j := range sp.omega {
			h = fnvU64(h, uint64(j))
		}
		h = fnvMatrix(h, sp.q)
		sigma = sp.sigma
	}
	return fnvMatrix(h, sigma)
}

// fnvMatrix folds m's shape and every bit of its entries into h.
func fnvMatrix(h uint64, m *matrix.Matrix) uint64 {
	h = fnvU64(h, uint64(m.Rows))
	h = fnvU64(h, uint64(m.Cols))
	for _, v := range m.Data {
		h = fnvU64(h, math.Float64bits(v))
	}
	return h
}

// buildA computes the A-side operators for the current (frozen) posterior
// and σ² into a freshly allocated frozenOps (the previous set, if any, may
// still be shared with other sessions and is never overwritten).
func (em *Session) buildA() error {
	n, rows, s2 := em.n, em.known.Rows, em.sigma2
	sp := em.heldFrame()
	sigma := em.sigma
	if sp != nil {
		sigma = sp.sigma
	}
	d := sigma.Rows
	ops := &frozenOps{
		cHat: matrix.New(d, d),
		cy:   matrix.New(rows, n),
		diag: make([]float64, n),
	}
	chA := matrix.NewCholeskyWorkspace(d)
	if err := chA.FactorizeShift(sigma, s2); err != nil {
		return fmt.Errorf("core: Σ+σ²I not factorable: %w", err)
	}
	// Same operation sequence as eStepFast, so Ĉ′ carries the same bits a
	// non-cached evaluation at these parameters would.
	chA.InverseInto(ops.cHat)
	ops.cHat.ScaleInPlace(-s2 * s2).AddDiagonal(s2)
	ops.logDetA = chA.LogDet()

	inv := 1 / s2
	if sp == nil {
		rhsFull := em.ws.rhsFullBuf()
		for i := 0; i < rows; i++ {
			row := em.known.RowView(i)
			rhs := rhsFull.RowView(i)
			for j := range rhs {
				rhs[j] = row[j] * inv
			}
		}
		matrix.MulTransBInto(ops.cy, rhsFull, ops.cHat)
		for j := range ops.diag {
			ops.diag[j] = sigma.Data[j*n+j]
		}
	} else {
		ops.logDetA += float64(n-d) * math.Log(sp.alpha+s2)
		ops.cComp = s2 * sp.alpha / (sp.alpha + s2)
		// Ĉyᵢ/σ² = PĈ′(Pᵀyᵢ/σ²): the frame coordinates of every row, then
		// one product with Ĉ′ (d×d) and one lift (Q times the rows' Q
		// coordinates, rows×r by r×n; Q vanishes on Ω, whose entries are
		// the Ω coordinates). The coordinates run through project, which
		// reads Q in its stored n×r layout: a GEMM would need Qᵀ, a second
		// r×n copy of Q.
		k, r := len(sp.omega), sp.q.Cols
		rhs := sized(&sp.ws.rhsFull, rows, d)
		for i := 0; i < rows; i++ {
			y := sp.project(rhs.RowView(i), em.known.RowView(i))
			for c := range y {
				y[c] *= inv
			}
		}
		cy := matrix.MulTransBInto(sized(&sp.ws.zFull, rows, d), rhs, ops.cHat)
		matrix.MulTransBInto(ops.cy, sp.block(cy, 0, k, rows, r), sp.q)
		for i := 0; i < rows; i++ {
			row := ops.cy.RowView(i)
			for a, j := range sp.omega {
				row[j] = cy.Data[i*d+a]
			}
		}
		sp.diag(ops.diag, sp.sigma, sp.alpha)
	}
	ops.paramsDigest = em.frozenParamsDigest()
	em.ws.wc.ops = ops
	return nil
}

// applyC writes Ĉv = c⊥v + P(Ĉ′−c⊥I)Pᵀv into dst for a subspace-frame
// posterior: O(n·d), where the dense Ĉ costs an n² matvec.
func (sp *subspace) applyC(dst []float64, ops *frozenOps, v []float64) {
	d := sp.n
	sp.pt, sp.pu = growVec(sp.pt, d), growVec(sp.pu, d)
	t := sp.project(sp.pt, v)
	u := matrix.MulVecInto(sp.pu, ops.cHat, t)
	for i, x := range t {
		u[i] -= ops.cComp * x
	}
	sp.lift(dst, u)
	for j, x := range v {
		dst[j] += ops.cComp * x
	}
}

// FrozenOps is an immutable, shareable A-side operator cache for frozen warm
// refits — the REOH-style transfer vehicle: a class's seed donor exports its
// operators once and every transferred session adopts them instead of
// re-deriving the identical bits. Opaque outside core; obtain via
// Session.FrozenOps, install via Session.AdoptFrozenOps.
type FrozenOps struct {
	ops *frozenOps
}

// FrozenOps returns the session's current frozen-fit operator cache,
// building it first when the session does not have one. It requires a warm
// session over a populated prior (the operators are a function of the
// fitted posterior). The returned set stays bit-identical to what the next
// frozen refit would compute on its own.
func (s *Session) FrozenOps() (*FrozenOps, error) {
	if !s.warm {
		return nil, fmt.Errorf("core: FrozenOps needs a warm session")
	}
	if s.known.Rows == 0 {
		return nil, fmt.Errorf("core: FrozenOps needs a populated prior")
	}
	if s.ws.wc.ops == nil {
		if err := s.buildA(); err != nil {
			return nil, err
		}
	}
	return &FrozenOps{ops: s.ws.wc.ops}, nil
}

// AdoptFrozenOps installs a shared operator cache, skipping the rebuild a
// restored session would otherwise pay on its first frozen refit. The set
// is adopted only when its parameter digest matches the session's current
// prior, σ² and Σ in its frame exactly — anything else reports false and leaves the
// session to rebuild on demand, which yields the same bits either way.
func (s *Session) AdoptFrozenOps(o *FrozenOps) bool {
	if o == nil || o.ops == nil || !s.warm {
		return false
	}
	if o.ops.paramsDigest != s.frozenParamsDigest() {
		return false
	}
	if wc := &s.ws.wc; wc.ops == nil {
		wc.ops = o.ops
	}
	return true
}

// eStepWarm is the frozen-parameter E-step: with Σ and σ² pinned, every
// operator of the posterior comes from the cache and one iteration costs one
// application of Ĉ (Ĉμ: O(n·d) in a subspace frame, one n² matvec in the
// identity frame), O(rows·n) for the database rows' means and likelihood,
// and O(nk+k²) target work. Posterior means and the log-likelihood are the
// same quantities the general path evaluates, and the target posterior
// variance is Ĉ_M's diagonal (vTarget, with no cTarget) — the health
// watchdogs run the same per-iteration scans over them.
func (em *Session) eStepWarm() (*eResult, error) {
	ws, wc, n := em.ws, &em.ws.wc, em.n
	sp := em.heldFrame()
	out := &ws.e
	*out = eResult{targetObs: len(em.obsIdx)}
	if wc.ops == nil {
		if err := em.buildA(); err != nil {
			return nil, err
		}
	}
	ops := wc.ops
	s2 := em.sigma2
	rows := em.known.Rows
	health := !em.opts.DisableHealthChecks

	// ẑᵢ = μ + Ĉ(yᵢ−μ)/σ² = μ + (Ĉyᵢ/σ²) − (Ĉμ/σ²): the cached per-app
	// product plus one shared application of Ĉ.
	wc.cmu = growVec(wc.cmu, n)
	if sp != nil {
		sp.applyC(wc.cmu, ops, em.mu)
	} else {
		matrix.MulVecInto(wc.cmu, ops.cHat, em.mu)
	}
	inv := 1 / s2
	for j := range wc.cmu {
		wc.cmu[j] *= inv
	}
	// Row i's likelihood quadratic dᵢᵀA⁻¹dᵢ with dᵢ = yᵢ−μ comes in the
	// same pass: ẑᵢ−μ = (I−σ²A⁻¹)dᵢ, so A⁻¹dᵢ = (yᵢ−ẑᵢ)/σ² and no solve
	// is needed. Two rows per pass share each load of μ and Ĉμ/σ².
	zFull := ws.zFullBuf()
	mu, cmu := em.mu, wc.cmu[:n]
	llRow := func(quad float64) {
		if health {
			out.ll += -0.5 * (quad*inv + ops.logDetA + float64(n)*ln2pi)
		}
	}
	i := 0
	for ; i+2 <= rows; i += 2 {
		z0, z1 := zFull.RowView(i)[:n], zFull.RowView(i + 1)[:n]
		c0, c1 := ops.cy.RowView(i)[:n], ops.cy.RowView(i + 1)[:n]
		y0, y1 := em.known.RowView(i)[:n], em.known.RowView(i + 1)[:n]
		var q0, q1 float64
		for j, m := range mu {
			cm := cmu[j]
			v0 := m + c0[j] - cm
			v1 := m + c1[j] - cm
			z0[j], z1[j] = v0, v1
			q0 += (y0[j] - m) * (y0[j] - v0)
			q1 += (y1[j] - m) * (y1[j] - v1)
		}
		llRow(q0)
		llRow(q1)
	}
	for ; i < rows; i++ {
		z, cyi, y := zFull.RowView(i)[:n], ops.cy.RowView(i)[:n], em.known.RowView(i)[:n]
		quad := 0.0
		for j, m := range mu {
			v := m + cyi[j] - cmu[j]
			z[j] = v
			quad += (y[j] - m) * (y[j] - v)
		}
		llRow(quad)
	}
	out.zFull = zFull
	out.cFull = ops.cHat
	out.llValid = health
	out.vTarget = ws.vTarget

	k := len(em.obsIdx)
	if k == 0 {
		copy(ws.vTarget, ops.diag)
		copy(ws.zTarget, em.mu)
		out.zTarget = ws.zTarget
		return out, nil
	}
	if !wc.fitPrepared {
		// Once per fit: S (from the frame, or gathered from the dense Σ),
		// the factor of K, the half-solve Vᵀ = S L_K⁻ᵀ and the diagonal of
		// Ĉ_M = Σ − VᵀV, whose entry r is Σ_rr − ‖row r of Vᵀ‖² — O(nk)
		// where forming Ĉ_M costs O(n²k).
		if sp != nil {
			sp.columns(ws.s, em.obsIdx)
			if err := em.factorKernel(ws, em.obsIdx); err != nil {
				return nil, err
			}
		} else if err := em.factorTarget(em.frame()); err != nil {
			return nil, err
		}
		ws.chK.ForwardSolveTInto(ws.wT, ws.s)
		for r := 0; r < n; r++ {
			v := ws.wT.RowView(r)
			ws.vTarget[r] = ops.diag[r] - matrix.Dot(v, v)
		}
		wc.fitPrepared = true
	}

	// GP-form posterior mean: ẑ_M = μ + S K⁻¹ (y_Ω − μ_Ω).
	for i, idx := range em.obsIdx {
		ws.tObs[i] = em.obsVal[i] - em.mu[idx]
	}
	if health {
		copy(ws.hd[:k], ws.tObs)
	}
	ws.chK.SolveVecInto(ws.tObs, ws.tObs)
	if health {
		out.ll += llTarget(ws.chK, ws.hd[:k], ws.tObs)
		out.llValid = true
	}
	matrix.MulVecInto(ws.zTarget, ws.s, ws.tObs)
	matrix.AxpyInPlace(1, em.mu, ws.zTarget)
	out.zTarget = ws.zTarget
	return out, nil
}
