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
// Ĉ = σ²(I−σ²A⁻¹) with A = Σ+σ²I, the per-application products Ĉyᵢ/σ², and
// log|A|. eStepWarm computes them once (buildA) and then runs each EM
// iteration with one n² matvec (Ĉμ) and O(rows·n) work on the database
// rows, plus O(nk² + k³) target work once per fit — against the O(n³)
// factorize+invert of the general path. The likelihood watchdog needs no
// solve against A: A⁻¹(yᵢ−μ) = (yᵢ−ẑᵢ)/σ², and ẑᵢ is already in hand. The
// target posterior covariance Ĉ_M is formed only by its diagonal, because
// a frozen fit reads nothing else of it (Result.Variance and the
// non-finite scan; the M-step stops before the Σ and σ² updates).
//
// The target kernel K = σ²I+Σ[Ω,Ω] is factored once per fit and reused
// across that fit's iterations. At a calibration window's ~20 observations
// that factorization costs a few thousand multiply-adds, against the three
// n² matvecs the rest of a steady window costs, so nothing carries it from
// one fit to the next.
//
// Everything cached is a pure function of (Σ, σ², prior database), so a
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
// that depends only on the pinned (Σ, σ²) and the prior's database. Never
// written after buildA publishes it, so any number of sessions over the
// same parameters may hold the same instance. The factor of A is not kept:
// nothing after buildA solves against it. paramsDigest fingerprints the
// exact parameters it was built at.
type frozenOps struct {
	cHat    *matrix.Matrix // n×n: shared posterior covariance Ĉ
	cy      *matrix.Matrix // rows×n: Ĉ yᵢ / σ²
	logDetA float64        // log|Σ+σ²I|

	paramsDigest uint64 // FNV over (prior digest, σ², Σ bits)
}

// invalidate drops everything: the next frozen fit rebuilds from scratch.
func (wc *warmCache) invalidate() {
	wc.ops = nil
	wc.fitPrepared = false
}

// frozenParamsDigest fingerprints the exact parameters a frozenOps set is a
// function of: the prior's digest, σ², and every bit of Σ.
func (em *Session) frozenParamsDigest() uint64 {
	h := fnvOffset
	h = fnvU64(h, em.prior.Digest())
	h = fnvU64(h, math.Float64bits(em.sigma2))
	for _, v := range em.sigma.Data {
		h = fnvU64(h, math.Float64bits(v))
	}
	return h
}

// buildA computes the A-side operators for the current (frozen) Σ and σ²
// into a freshly allocated frozenOps (the previous set, if any, may still be
// shared with other sessions and is never reused as scratch).
func (em *Session) buildA() error {
	ws, wc, n := em.ws, &em.ws.wc, em.n
	rows := em.known.Rows
	ops := &frozenOps{
		cHat: matrix.New(n, n),
		cy:   matrix.New(rows, n),
	}
	s2 := em.sigma2
	chA := matrix.NewCholeskyWorkspace(n)
	if err := chA.FactorizeShift(em.sigma, s2); err != nil {
		return fmt.Errorf("core: Σ+σ²I not factorable: %w", err)
	}
	// Same operation sequence as eStepFast, so Ĉ carries the same bits a
	// non-cached evaluation at these parameters would.
	chA.InverseInto(ops.cHat)
	ops.cHat.ScaleInPlace(-s2 * s2).AddDiagonal(s2)
	ops.logDetA = chA.LogDet()

	inv := 1 / s2
	rhsFull := ws.rhsFullBuf()
	for i := 0; i < rows; i++ {
		row := em.known.RowView(i)
		rhs := rhsFull.RowView(i)
		for j := range rhs {
			rhs[j] = row[j] * inv
		}
	}
	matrix.MulTransBInto(ops.cy, rhsFull, ops.cHat)
	ops.paramsDigest = em.frozenParamsDigest()
	wc.ops = ops
	return nil
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
// (prior, Σ, σ²) exactly — anything else reports false and leaves the
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
// O(n³) operator comes from the cache and one iteration costs one n² matvec
// (Ĉμ), O(rows·n) for the database rows' means and likelihood, and O(nk+k²)
// target work. Posterior means and the log-likelihood are the same
// quantities the general path evaluates, and the target posterior variance
// is Ĉ_M's diagonal (vTarget, with no cTarget) — the health watchdogs run
// the same per-iteration scans over them.
func (em *Session) eStepWarm() (*eResult, error) {
	ws, wc, n := em.ws, &em.ws.wc, em.n
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
	// product plus one shared matvec.
	wc.cmu = growVec(wc.cmu, n)
	matrix.MulVecInto(wc.cmu, ops.cHat, em.mu)
	inv := 1 / s2
	for j := range wc.cmu {
		wc.cmu[j] *= inv
	}
	zFull := ws.zFullBuf()
	for i := 0; i < rows; i++ {
		z := zFull.RowView(i)
		cyi := ops.cy.RowView(i)
		for j := 0; j < n; j++ {
			z[j] = em.mu[j] + cyi[j] - wc.cmu[j]
		}
		if health {
			// Row i's likelihood quadratic dᵢᵀA⁻¹dᵢ with dᵢ = yᵢ−μ: ẑᵢ−μ =
			// (I−σ²A⁻¹)dᵢ, so A⁻¹dᵢ = (yᵢ−ẑᵢ)/σ² and no solve is needed.
			quad := 0.0
			for j, y := range em.known.RowView(i) {
				quad += (y - em.mu[j]) * (y - z[j])
			}
			out.ll += -0.5 * (quad*inv + ops.logDetA + float64(n)*ln2pi)
		}
	}
	out.zFull = zFull
	out.cFull = ops.cHat
	out.llValid = health
	out.vTarget = ws.vTarget

	k := len(em.obsIdx)
	if k == 0 {
		for i := range ws.vTarget {
			ws.vTarget[i] = em.sigma.Data[i*n+i]
		}
		copy(ws.zTarget, em.mu)
		out.zTarget = ws.zTarget
		return out, nil
	}
	if !wc.fitPrepared {
		// Once per fit: S, the factor of K, the half-solve Vᵀ = S L_K⁻ᵀ and
		// the diagonal of Ĉ_M = Σ − VᵀV, whose entry r is Σ_rr − ‖row r of
		// Vᵀ‖² — O(nk) where forming Ĉ_M costs O(n²k).
		if err := em.factorTarget(em.frame()); err != nil {
			return nil, err
		}
		ws.chK.ForwardSolveTInto(ws.wT, ws.s)
		for r := 0; r < n; r++ {
			v := ws.wT.RowView(r)
			ws.vTarget[r] = em.sigma.Data[r*n+r] - matrix.Dot(v, v)
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
