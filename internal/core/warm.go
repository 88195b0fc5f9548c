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
// Ĉ = σ²(I−σ²A⁻¹) with A = Σ+σ²I, log|A|, diag(Σ) and two constants of the
// database rows below. buildA computes them once per posterior, in the
// frame the posterior lives in (frame.go):
//
//   - Identity frame (Σ′ = Σ, P = I): Ĉ is n×n and each EM iteration applies
//     it with one n² matvec.
//   - Subspace frame, Σ = αI + P(Σ′−αI)Pᵀ: Ĉ is c⊥ = σ²α/(α+σ²) on V⊥ and
//     Ĉ′ = σ²(I−σ²(Σ′+σ²I)⁻¹) on V, so buildA factors the d×d Σ′+σ²I,
//     log|A| = log|Σ′+σ²I| + (n−d)·log(α+σ²) and diag(Σ) comes from the
//     structure — O(d³ + rows·n·d + n·r²) in all. An iteration applies
//     Ĉμ = c⊥μ + P(Ĉ′−c⊥I)Pᵀμ in O(n·d): μ stays a dense n-vector, because
//     each window's observations move it out of V.
//
// No iteration reads a database row. The rows' posterior means
// ẑᵢ = μ + Ĉ(yᵢ−μ)/σ² enter the M-step only through their sum and the
// likelihood watchdog only through the sum of their quadratics, and both
// sums follow from the rows' column means ȳ. With cμ = Ĉμ/σ², z̄ = Ĉȳ/σ²
// and δ = ȳ−μ:
//
//	Σᵢ ẑᵢ = rows·(μ − cμ + z̄)
//	Σᵢ (yᵢ−μ)ᵀA⁻¹(yᵢ−μ) = ll0 + rows·δᵀ(δ − z̄ + cμ)/σ²
//
// where ll0 = Σᵢ (yᵢ−ȳ)ᵀA⁻¹(yᵢ−ȳ) is a constant of the posterior: the
// centred rows sum to zero, so the cross terms vanish, and
// A⁻¹ = (I − Ĉ/σ²)/σ². An iteration therefore costs one application of Ĉ
// plus O(n) and O(n·k) target work, and each fit O(n·r·k + k·d²) more
// (frameTarget). The target posterior covariance Ĉ_M is formed only by its
// diagonal, because a frozen fit reads nothing else of it (Result.Variance
// and the non-finite scan; the M-step stops before the Σ and σ² updates).
//
// The target kernel K = σ²I+Σ[Ω,Ω] is factored once per fit and reused
// across that fit's iterations. At a calibration window's ~20 observations
// that factorization costs a few thousand multiply-adds, against the
// O(n·r·k) that forms Vᵀ and the O(n·d) applications of Ĉ the rest of a
// steady window costs, so nothing carries it from one fit to the next.
//
// Everything cached is a pure function of the posterior's frame (α, Ω, Q,
// Σ′; Σ itself in the identity frame), σ² and the prior database, so a
// rebuild from scratch reproduces the same bits; the session drops its set
// whenever a cold fit (including the one that rescues a tripped frozen
// refit) or a Restore may change Σ or σ². The per-iteration and per-fit
// quantities (Ĉμ, the target's factor and Vᵀ) are fit scratch.

// frozenOps is the A-side operator set of a frozen warm fit: every quantity
// that depends only on the pinned posterior (its frame and σ²) and the
// prior's database. Never written after buildA publishes it (dropping it
// drops the pointer; a rebuild allocates fresh), so any number of sessions
// over the same parameters may hold the same instance: a seed-transferred
// session adopts its donor's set instead of re-deriving the identical bits
// (Session.FrozenOps). The factor of A is not kept: nothing after buildA
// solves against it.
type frozenOps struct {
	cHat    *matrix.Matrix // d×d: Ĉ′, Ĉ in frame coordinates (Ĉ itself when d = n)
	cComp   float64        // c⊥ = σ²α/(α+σ²), Ĉ on the complement (zero when d = n)
	zbar    []float64      // n: z̄ = Ĉȳ/σ², ȳ the database column means
	ll0     float64        // Σᵢ (yᵢ−ȳ)ᵀA⁻¹(yᵢ−ȳ)
	diag    []float64      // n: diag(Σ)
	logDetA float64        // log|Σ+σ²I|
}

// frozenParamsDigest fingerprints the exact parameters a frozenOps set is a
// function of: the prior's digest, σ², and the posterior's frame — α, Ω, Q
// and Σ′ (the dense Σ, with no Ω or Q, in the identity frame). Only seed
// transfer reads it, so FrozenOps pays it at export and AdoptFrozenOps at
// adoption; buildA, which every first frozen refit runs, does not.
func (em *Session) frozenParamsDigest() uint64 {
	h := fnvOffset
	h = fnvU64(h, em.prior.Digest())
	h = fnvU64(h, math.Float64bits(em.sigma2))
	sigma := em.sigma
	if hf := em.heldFrame(); hf != nil {
		h = fnvU64(h, math.Float64bits(hf.alpha))
		h = fnvU64(h, uint64(len(hf.omega)))
		for _, j := range hf.omega {
			h = fnvU64(h, uint64(j))
		}
		h = fnvMatrix(h, hf.q)
		sigma = hf.sigma
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
// still be shared with other sessions and is never overwritten). It runs in
// borrowed scratch.
func (em *Session) buildA() error {
	n, rows, s2 := em.n, em.known.Rows, em.sigma2
	sp := em.heldSub()
	sigma := em.sigma
	if sp != nil {
		sigma = sp.sigma
	}
	d := sigma.Rows
	ops := &frozenOps{
		cHat: matrix.New(d, d),
		zbar: make([]float64, n),
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

	// ll0 = Σᵢ ‖L⁻¹(yᵢ−ȳ)‖² with L the factor chA still holds: the rows'
	// centred coordinates (Pᵀ(yᵢ−ȳ) in a subspace frame, where the rows lie
	// in V and A acts there as Σ′+σ²I), forward-solved in one pass.
	ybar := em.prior.colMean
	var dev *matrix.Matrix
	if sp == nil {
		dev = em.ws.rhsFullBuf()
		for i := 0; i < rows; i++ {
			e := dev.RowView(i)
			for j, y := range em.known.RowView(i) {
				e[j] = y - ybar[j]
			}
		}
		matrix.MulVecInto(ops.zbar, ops.cHat, ybar)
		for j := range ops.diag {
			ops.diag[j] = sigma.Data[j*n+j]
		}
	} else {
		ops.logDetA += float64(n-d) * math.Log(sp.alpha+s2)
		ops.cComp = s2 * sp.alpha / (sp.alpha + s2)
		// The coordinates run through project, which reads Q in its stored
		// n×r layout: a GEMM would need Qᵀ, a second r×n copy of Q.
		sp.mean = sp.project(growVec(sp.mean, d), ybar)
		dev = sized(&sp.ws.rhsFull, rows, d)
		for i := 0; i < rows; i++ {
			e := sp.project(dev.RowView(i), em.known.RowView(i))
			for c, m := range sp.mean {
				e[c] -= m
			}
		}
		sp.applyC(ops.zbar, ops, ybar)
		sp.diag(ops.diag, sp.sigma, sp.alpha)
	}
	chA.ForwardSolveTInto(dev, dev)
	for _, v := range dev.Data {
		ops.ll0 += v * v
	}
	inv := 1 / s2
	for j := range ops.zbar {
		ops.zbar[j] *= inv
	}
	em.ops = ops
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
	ops    *frozenOps
	digest uint64 // frozenParamsDigest of the parameters ops was built at
}

// FrozenOps returns the session's current frozen-fit operator cache,
// building it first when the session does not have one. It requires a warm
// session over a populated prior (the operators are a function of the
// fitted posterior). The returned set stays bit-identical to what the next
// frozen refit would compute on its own. The session's parameters are the
// ones the cached set was built at (anything that changes them drops the
// cache), so the digest taken here fingerprints the set.
func (s *Session) FrozenOps() (*FrozenOps, error) {
	if !s.warm {
		return nil, fmt.Errorf("core: FrozenOps needs a warm session")
	}
	if s.known.Rows == 0 {
		return nil, fmt.Errorf("core: FrozenOps needs a populated prior")
	}
	if s.ops == nil {
		if s.borrow() {
			defer s.giveBack()
		}
		if err := s.buildA(); err != nil {
			return nil, err
		}
	}
	return &FrozenOps{ops: s.ops, digest: s.frozenParamsDigest()}, nil
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
	if o.digest != s.frozenParamsDigest() {
		return false
	}
	if s.ops == nil {
		s.ops = o.ops
	}
	return true
}

// eStepWarm is the frozen-parameter E-step: with Σ and σ² pinned, every
// operator of the posterior comes from the cache and one iteration costs one
// application of Ĉ (Ĉμ: O(n·d) in a subspace frame, one n² matvec in the
// identity frame), O(n) for the database rows' summed means and
// likelihood, and O(n·k) target work. The log-likelihood is the quantity
// the general path evaluates, the rows' posterior means arrive as their sum
// (zSum, in place of zFull) and the target posterior variance as Ĉ_M's
// diagonal (vTarget, in place of cTarget) — the health watchdogs run the
// same per-iteration scans over them.
func (em *Session) eStepWarm() (*eResult, error) {
	ws, n := em.ws, em.n
	sp := em.heldSub()
	out := &ws.e
	*out = eResult{targetObs: len(em.obsIdx)}
	if em.ops == nil {
		if err := em.buildA(); err != nil {
			return nil, err
		}
	}
	ops := em.ops
	s2 := em.sigma2
	health := !em.opts.DisableHealthChecks

	// One pass over μ turns cμ = Ĉμ/σ² into Σᵢẑᵢ = rows·(μ − cμ + z̄) and
	// the rows' likelihood quadratic δᵀ(δ − z̄ + cμ) with δ = ȳ−μ (see the
	// identities at the top of this file).
	ws.zsum = growVec(ws.zsum, n)
	if sp != nil {
		sp.applyC(ws.zsum, ops, em.mu)
	} else {
		matrix.MulVecInto(ws.zsum, ops.cHat, em.mu)
	}
	inv, rows := 1/s2, float64(em.known.Rows)
	zsum, ybar, zbar := ws.zsum[:n], em.prior.colMean[:n], ops.zbar[:n]
	quad := 0.0
	for j, m := range em.mu {
		c := zsum[j] * inv
		dl := ybar[j] - m
		quad += dl * (dl - zbar[j] + c)
		zsum[j] = rows * (m - c + zbar[j])
	}
	if health {
		out.ll = -0.5 * (ops.ll0 + rows*(quad*inv+ops.logDetA+float64(n)*ln2pi))
	}
	out.zSum = zsum
	out.llValid = health
	out.vTarget = ws.vTarget

	k := len(em.obsIdx)
	if k == 0 {
		copy(ws.vTarget, ops.diag)
		copy(ws.zTarget, em.mu)
		out.zTarget = ws.zTarget
		return out, nil
	}
	if !ws.fitPrepared {
		// Once per fit: the factor of K and the half-solve Vᵀ = S L_K⁻ᵀ with
		// S = Σ[:,Ω] (from the frame's structure, or through S gathered from
		// the dense Σ), then the diagonal of Ĉ_M = Σ − VᵀV, whose entry r is
		// Σ_rr − ‖row r of Vᵀ‖² — O(nk) where forming Ĉ_M costs O(n²k).
		var err error
		if sp != nil {
			err = em.frameTarget(sp)
		} else {
			err = em.factorTarget(em.frame())
		}
		if err != nil {
			return nil, err
		}
		for r := 0; r < n; r++ {
			v := ws.wT.RowView(r)
			ws.vTarget[r] = ops.diag[r] - matrix.Dot(v, v)
		}
		ws.fitPrepared = true
	}

	// GP-form posterior mean: ẑ_M = μ + S K⁻¹(y_Ω − μ_Ω) = μ + Vᵀu with
	// u = L_K⁻¹(y_Ω − μ_Ω), whose squared norm is the target's likelihood
	// quadratic. tRow is u's 1×k view for the forward solve.
	for i, idx := range em.obsIdx {
		ws.tObs[i] = em.obsVal[i] - em.mu[idx]
	}
	ws.chK.ForwardSolveTInto(&ws.tRow, &ws.tRow)
	if health {
		out.ll += llTarget(ws.chK, ws.tObs, ws.tObs)
		out.llValid = true
	}
	matrix.MulVecInto(ws.zTarget, ws.wT, ws.tObs)
	matrix.AxpyInPlace(1, em.mu, ws.zTarget)
	out.zTarget = ws.zTarget
	return out, nil
}

// frameTarget prepares a window's target on a subspace-frame posterior
// without forming S = Σ[:,Ω′] for its observations Ω′. With G = Σ′−αI and
// Wᵀ = P[Ω′,:]·G (k′×d), S = αE_Ω′ + P·W, so
//
//	K  = (σ²+α)I + Wᵀ·P[Ω′,:]ᵀ
//	Vᵀ = S L_K⁻ᵀ = P·Uᵀ + α·E_Ω′·L_K⁻ᵀ,   U = L_K⁻¹Wᵀ (k′×d).
//
// It factors K into chK and writes Vᵀ into wT: one n×r by r×k′ product
// Q·U[:,Q]ᵀ for the rows outside Ω, U's Ω columns on Ω's rows (where Q
// vanishes), and α·(column c of L_K⁻¹) added to row Ω′_c, which covers
// configurations in both Ω and Ω′. O(n·r·k′ + k′·d²), where forming S and
// solving for Vᵀ costs O(n·r·k′ + n·k′²).
func (em *Session) frameTarget(sp *subspace) error {
	ws, obs := em.ws, em.obsIdx
	k, r, d, kw := len(sp.omega), sp.q.Cols, sp.n, len(obs)
	pk := sized(&sp.pk, kw, d)
	for c, j := range obs {
		row := pk.RowView(c)
		for a, ja := range sp.omega {
			row[a] = 0
			if ja == j {
				row[a] = 1
			}
		}
		copy(row[k:], sp.q.RowView(j)) // zero when j ∈ Ω
	}
	wt := matrix.MulTransBInto(sized(&sp.wt, kw, d), pk, sp.sigma) // Σ′ is symmetric
	for i, v := range pk.Data {
		wt.Data[i] -= sp.alpha * v
	}
	matrix.MulTransBInto(ws.kmat, wt, pk).AddDiagonal(em.sigma2 + sp.alpha)
	if err := em.factorKernel(ws); err != nil {
		return err
	}
	// Uᵀ = W L_K⁻ᵀ (d×k′): one forward solve per row of W, the transpose
	// of Wᵀ; then U's Q columns (k′×r) as the product's second operand.
	ut := sized(&sp.ut, d, kw)
	for c := 0; c < kw; c++ {
		for i, v := range wt.RowView(c) {
			ut.Data[i*kw+c] = v
		}
	}
	ws.chK.ForwardSolveTInto(ut, ut)
	uq := sized(&sp.uq, kw, r)
	for c := 0; c < kw; c++ {
		for i := range uq.RowView(c) {
			uq.Data[c*r+i] = ut.Data[(k+i)*kw+c]
		}
	}
	vt := matrix.MulTransBInto(ws.wT, sp.q, uq)
	for a, ja := range sp.omega {
		copy(vt.RowView(ja), ut.RowView(a))
	}
	// Column c of L_K⁻¹ is the forward solve of e_c, row c of the identity;
	// kmat, whose copy of K is spent once factored, holds them.
	li := ws.kmat
	for i := range li.Data {
		li.Data[i] = 0
	}
	ws.chK.ForwardSolveTInto(li, li.AddDiagonal(1))
	for c, j := range obs {
		matrix.AxpyInPlace(sp.alpha, li.RowView(c), vt.RowView(j))
	}
	return nil
}
