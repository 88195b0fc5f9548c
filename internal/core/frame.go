package core

import (
	"math"

	"leo/internal/matrix"
)

// Data-subspace frames (DESIGN.md §16).
//
// A cold fit starts from μ₀ ∈ V and Σ₀ = I + (sample covariance of the
// database), where
//
//	V = span{database rows, e_j for j ∈ Ω, InitMu}.
//
// Every E-step posterior and M-step update from there adds only multiples
// of I and vectors in V, so for an orthonormal basis P of V
//
//	μ = Pμ′,   Σ = αI + P(Σ′−αI)Pᵀ
//
// hold exactly at every iteration, with d = dim V ≤ |Ω| + M − 1 (one more
// with InitMu). The fast E- and M-steps therefore run unchanged on the d×d
// coordinates Σ′ = PᵀΣP and μ′ = Pᵀμ, the database coordinates YP and the
// observations at frame coordinates 0..k−1, plus three scalar terms for the
// complement V⊥, on which Σ, Ĉ and Ĉ_M all act as multiples of the
// identity: the α recurrence (mStep), (n−d)·log(α+σ²) in log|Σ+σ²I|
// (llRowsFromMeans), and Ĉ's complement trace in the σ² update
// (mStepSigma2). A cold fit at the paper's n = 1024 then costs
// O(n·rows·r + iters·d³) instead of O(iters·n³).
//
// The basis is P = [E_Ω | Q]: the observed coordinates' unit vectors, then a
// rank-revealing orthonormal basis Q of the database rows (and InitMu) with
// their Ω entries zeroed. When d = n the frame is the whole space and the
// fit runs in the identity frame — the session's own coordinates — instead.
//
// The fitted posterior stays in its cold fit's frame (DESIGN.md §16): μ is
// lifted to a dense n-vector, because the next window's observations move
// it out of V, but Σ = αI + P(Σ′−αI)Pᵀ is kept as (α, Q, Ω, Σ′). Frozen
// refits never change Σ, so they act on it through that structure
// (warm.go). No fit forms the dense Σ; SessionState.DenseSigma does, for a
// caller that wants it (materialize).

// frameRankTol is the rank tolerance of subspace.basis: a candidate whose
// residual, once the basis so far is projected out, is at most frameRankTol
// of its own norm is numerically inside that span and is dropped. Residuals
// of exactly dependent rows land near 1e-15 at every size this model runs
// at; the smallest genuine direction of the paper-size databases sits near
// 1e-12 (the power database has rank 19 off Ω, not 24).
const frameRankTol = 1e-13

// frame is the coordinate system the fast E- and M-steps run in. The
// identity frame is the session's own n-dimensional parameters; a subspace
// frame holds d-dimensional coordinates plus α, Σ's eigenvalue on the
// complement.
type frame struct {
	n      int            // operand dimension (d in a subspace frame)
	full   int            // configurations: full−n complement directions
	alpha  float64        // Σ's eigenvalue on the complement
	known  *matrix.Matrix // rows×n database coordinates
	mu     []float64      // n
	sigma  *matrix.Matrix // n×n
	obsIdx []int          // coordinates of the observations
	obsVal []float64
	ws     *emWorkspace // n-dimensional buffers
}

// comp is the number of complement directions, zero in the identity frame.
func (f *frame) comp() int { return f.full - f.n }

// subspace is a session's subspace-frame storage: allocated on its first
// frame fit, reused (grow-only) by every later one. P = [E_Ω | Q] is never
// formed: the E_Ω half is index bookkeeping on Ω, and only Q is stored.
type subspace struct {
	frame
	active bool  // a cold fit is running in this frame
	held   bool  // the session's posterior Σ is (α, Q, Ω, Σ′) of this frame
	omega  []int // Ω: the configurations of frame coordinates 0..k−1 (owned)

	cand  *matrix.Matrix // basis candidates; Qᵀ (r×n) once basis returns
	norms []float64      // candidates' norms before projection, then residual norms
	q     *matrix.Matrix // n×r: Q, zero on Ω's rows
	obs   []int          // 0..k−1, the observations' frame coordinates
	mean  []float64      // d: Pᵀ × the database column means
	devT  *matrix.Matrix // d×rows: centered database coordinates
	z     []float64      // n: the last lifted vector
	blk   *matrix.Matrix // a block of a d×d frame matrix
	h     *matrix.Matrix // n×r: Q times an r×r block
	u     *matrix.Matrix // n×k: Q·(Σ′−αI)[Q,Ω]

	// Frozen-refit work buffers (warm.go): Pᵀv and Ĉ′Pᵀv, and the per-fit
	// target operands for a window's observations Ω′ (frameTarget).
	pt, pu []float64      // d
	pk     *matrix.Matrix // k′×d: P[Ω′,:]
	wt     *matrix.Matrix // k′×d: Wᵀ = P[Ω′,:]·(Σ′−αI)
	ut     *matrix.Matrix // d×k′: Uᵀ = (L_K⁻¹Wᵀ)ᵀ
	uq     *matrix.Matrix // k′×r: U's Q columns
}

// subspaceBuf returns the session's subspace-frame storage, allocating it
// on first use.
func (em *Session) subspaceBuf() *subspace {
	if em.sub == nil {
		em.sub = &subspace{}
		em.sub.ws = newEMWorkspace(0, em.known.Rows)
	}
	return em.sub
}

// heldFrame returns the subspace frame the session's posterior lives in, or
// nil when it lives in the identity frame (the dense em.sigma).
func (em *Session) heldFrame() *subspace {
	if em.sub != nil && em.sub.held {
		return em.sub
	}
	return nil
}

// sigmaBuf returns the session's dense Σ, allocating it on first use: only
// identity-frame posteriors hold one.
func (em *Session) sigmaBuf() *matrix.Matrix { return sized(&em.sigma, em.n, em.n) }

// frame returns the coordinates the fast E- and M-steps run in: the
// subspace frame while a cold fit runs in one, otherwise the session's own
// parameters.
func (em *Session) frame() *frame {
	if em.sub != nil && em.sub.active {
		return &em.sub.frame
	}
	em.own = frame{n: em.n, full: em.n, known: em.known, mu: em.mu, sigma: em.sigma,
		obsIdx: em.obsIdx, obsVal: em.obsVal, ws: em.ws}
	return &em.own
}

// lift maps a vector from frame coordinates to configurations: Pv′ in a
// subspace frame (into scratch the next lift overwrites), v′ itself in the
// identity frame.
func (em *Session) lift(v []float64) []float64 {
	if em.sub == nil || !em.sub.active {
		return v
	}
	return em.sub.lift(em.sub.z, v)
}

// lift writes Pv′ = Qv′[k:] + E_Ω v′[:k] into dst.
func (sp *subspace) lift(dst, v []float64) []float64 {
	k := len(sp.omega)
	matrix.MulVecInto(dst, sp.q, v[k:])
	for a, j := range sp.omega {
		dst[j] = v[a] // Q vanishes on Ω
	}
	return dst
}

// initSubspace starts a cold fit in the subspace frame: it builds the basis,
// then the starting parameters exactly as init defines them, in frame
// coordinates (α₀ = 1). It reports false, leaving the session's parameters
// untouched, when the frame would span every configuration.
func (em *Session) initSubspace() bool {
	sp := em.subspaceBuf()
	n, k, rows := em.n, len(em.obsIdx), em.known.Rows
	r := sp.basis(em.known, em.opts.InitMu, em.obsIdx)
	d := k + r
	if d >= n {
		return false
	}
	sp.omega = append(sp.omega[:0], em.obsIdx...)
	sp.held = false
	q := sized(&sp.q, n, r)
	for c := 0; c < r; c++ {
		for j, v := range sp.cand.RowView(c) {
			q.Data[j*r+c] = v
		}
	}

	f := &sp.frame
	f.n, f.full, f.alpha = d, n, 1
	f.ws.resize(d)
	// The database rows' coordinates: their Ω entries, then Qᵀyᵢ for every
	// row at once from the Qᵀ basis left in sp.cand.
	qty := matrix.MulTransBInto(sized(&sp.blk, rows, r), em.known, sp.cand)
	f.known = sized(&f.known, rows, d)
	for i := 0; i < rows; i++ {
		row, y := f.known.RowView(i), em.known.RowView(i)
		for a, j := range sp.omega {
			row[a] = y[j]
		}
		copy(row[k:], qty.RowView(i))
	}
	sp.obs = sp.obs[:0]
	for i := 0; i < k; i++ {
		sp.obs = append(sp.obs, i)
	}
	f.obsIdx, f.obsVal = sp.obs, em.obsVal

	// μ′₀ = Pᵀμ₀ for init's μ₀; Σ′₀ = PᵀΣ₀P = I + D′ᵀD′/rows with D′ the
	// centered database coordinates.
	f.mu = growVec(f.mu, d)
	sp.mean = growVec(sp.mean, d)
	if rows > 0 {
		sp.coords(sp.mean, em.prior.colMean)
	}
	switch {
	case em.opts.InitMu != nil:
		sp.coords(f.mu, em.opts.InitMu)
	case em.opts.ZeroInit || rows == 0:
		for i := range f.mu {
			f.mu[i] = 0
		}
	default:
		copy(f.mu, sp.mean)
	}
	f.sigma = sized(&f.sigma, d, d)
	if rows > 0 {
		devT := sized(&sp.devT, d, rows)
		for i := 0; i < rows; i++ {
			y := f.known.RowView(i)
			for c := 0; c < d; c++ {
				devT.Data[c*rows+i] = y[c] - sp.mean[c]
			}
		}
		matrix.SyrkInto(f.sigma, 1/float64(rows), devT)
	} else {
		for i := range f.sigma.Data {
			f.sigma.Data[i] = 0
		}
	}
	f.sigma.AddDiagonal(1)

	em.sigma2 = em.initialNoise()
	f.ws.ensureObs(d, k)
	sp.z = growVec(sp.z, n)
	sp.active = true
	return true
}

// basis builds Qᵀ, an orthonormal basis of the database rows (and initMu)
// with their Ω entries zeroed, into sp.cand (r×n) and returns its rank r.
// It is pivoted modified Gram–Schmidt: each step accepts the candidate with
// the largest residual relative to its own norm, re-orthogonalizes it
// against the accepted rows, and projects it out of the rest; candidates
// whose relative residual falls to frameRankTol are dropped. Q's Ω entries
// stay exactly zero.
//
// A step's projection coefficients for all remaining candidates come from
// one MulVecInto over the contiguous tail, and projectOut fuses each axpy
// with the residual norm the next step's pivot search reads. The
// reorthogonalization stays one dot and axpy at a time: each of its dots
// reads the previous update.
func (sp *subspace) basis(known *matrix.Matrix, initMu []float64, obsIdx []int) int {
	nc, n := known.Rows, known.Cols
	if initMu != nil {
		nc++
	}
	cand := sized(&sp.cand, nc, n)
	copy(cand.Data, known.Data)
	if initMu != nil {
		copy(cand.RowView(nc-1), initMu)
	}
	// The candidates' norms before projection, then their residual norms.
	sp.norms = growVec(sp.norms, 2*nc)
	norms, res := sp.norms[:nc], sp.norms[nc:]
	for i := 0; i < nc; i++ {
		row := cand.RowView(i)
		for _, j := range obsIdx {
			row[j] = 0
		}
		norms[i] = matrix.Norm2(row)
		res[i] = norms[i]
	}
	r := 0
	for ; r < nc; r++ {
		piv, best := -1, frameRankTol
		for i := r; i < nc; i++ {
			if norms[i] == 0 {
				continue
			}
			if rel := res[i] / norms[i]; rel > best {
				piv, best = i, rel
			}
		}
		if piv < 0 {
			break
		}
		q := cand.RowView(r)
		if piv != r {
			pr := cand.RowView(piv)
			for j := range q {
				q[j], pr[j] = pr[j], q[j]
			}
			norms[r], norms[piv] = norms[piv], norms[r]
			res[r], res[piv] = res[piv], res[r]
		}
		for c := 0; c < r; c++ {
			qc := cand.RowView(c)
			matrix.AxpyInPlace(-matrix.Dot(qc, q), qc, q)
		}
		inv := 1 / matrix.Norm2(q)
		for j := range q {
			q[j] *= inv
		}
		if lo := r + 1; lo < nc {
			tail := matrix.Matrix{Rows: nc - lo, Cols: n, Data: cand.Data[lo*n : nc*n]}
			matrix.MulVecInto(res[lo:], &tail, q)
			projectOut(cand, res, q, lo, nc)
		}
	}
	cand.Reshape(r, n)
	return r
}

// projectOut subtracts from each candidate i in [lo, hi) its component
// res[i]·q along the unit vector q, then leaves the residual's norm in
// res[i]: the axpy and Norm2 of one step in a single pass, four candidates
// per pass, each on its own chain in ascending order.
func projectOut(cand *matrix.Matrix, res, q []float64, lo, hi int) {
	n := len(q)
	i := lo
	for ; i+4 <= hi; i += 4 {
		r0 := cand.Data[i*n : (i+1)*n][:n]
		r1 := cand.Data[(i+1)*n : (i+2)*n][:n]
		r2 := cand.Data[(i+2)*n : (i+3)*n][:n]
		r3 := cand.Data[(i+3)*n : (i+4)*n][:n]
		a0, a1, a2, a3 := -res[i], -res[i+1], -res[i+2], -res[i+3]
		var s0, s1, s2, s3 float64
		for j, qv := range q {
			v0 := r0[j] + a0*qv
			v1 := r1[j] + a1*qv
			v2 := r2[j] + a2*qv
			v3 := r3[j] + a3*qv
			r0[j], r1[j], r2[j], r3[j] = v0, v1, v2, v3
			s0 += v0 * v0
			s1 += v1 * v1
			s2 += v2 * v2
			s3 += v3 * v3
		}
		res[i], res[i+1], res[i+2], res[i+3] = math.Sqrt(s0), math.Sqrt(s1), math.Sqrt(s2), math.Sqrt(s3)
	}
	for ; i < hi; i++ {
		row := cand.RowView(i)
		matrix.AxpyInPlace(-res[i], q, row)
		res[i] = matrix.Norm2(row)
	}
}

// coords writes Pᵀv, v's frame coordinates, into dst: the observed
// entries, then v's components along Q's columns.
func (sp *subspace) coords(dst, v []float64) {
	k := len(sp.omega)
	for a, j := range sp.omega {
		dst[a] = v[j]
	}
	for c := k; c < len(dst); c++ {
		dst[c] = matrix.Dot(sp.cand.RowView(c-k), v)
	}
}

// block copies the rows×cols block of the frame matrix m at (r0, c0) into
// scratch the next block call overwrites.
func (sp *subspace) block(m *matrix.Matrix, r0, c0, rows, cols int) *matrix.Matrix {
	b := sized(&sp.blk, rows, cols)
	for i := 0; i < rows; i++ {
		copy(b.RowView(i), m.Data[(r0+i)*m.Cols+c0:][:cols])
	}
	return b
}

// diag writes the diagonal of αI + P(m−αI)Pᵀ, the configuration-coordinate
// form of the frame matrix m with complement eigenvalue alpha:
// m[a,a] at Ω_a, where P_j is a unit vector, and
// alpha(1−‖Q_j‖²) + Q_j m[Q,Q] Q_jᵀ elsewhere. O(n·r²).
func (sp *subspace) diag(dst []float64, m *matrix.Matrix, alpha float64) {
	k, r := len(sp.omega), sp.q.Cols
	h := sized(&sp.h, sp.full, r)
	matrix.MulTransBInto(h, sp.q, sp.block(m, k, k, r, r)) // the block is symmetric
	for j := range dst {
		qj := sp.q.RowView(j)
		dst[j] = alpha*(1-matrix.Dot(qj, qj)) + matrix.Dot(h.RowView(j), qj)
	}
	for a, j := range sp.omega {
		dst[j] = m.At(a, a)
	}
}

// materialize writes the frame's Σ = αI + PGPᵀ with G = Σ′−αI in
// configuration coordinates, block by block —
//
//	Σ[Q,Q] = αI + Q G[Q,Q] Qᵀ,   Σ[Ω,·] = G[Ω,Q] Qᵀ,   Σ[Ω,Ω] = Σ′[Ω,Ω]
//
// where "Q" stands for the configurations outside Ω. The first block is
// one computed triangle mirrored, and the Ω rows are written to their
// columns too, so Σ is exactly symmetric. O(n²·d): only
// SessionState.DenseSigma calls it.
func (sp *subspace) materialize(sigma *matrix.Matrix) {
	n, k, r := sp.full, len(sp.omega), sp.q.Cols
	g := sp.block(sp.sigma, k, k, r, r).AddDiagonal(-sp.alpha)
	h := matrix.MulTransBInto(sized(&sp.h, n, r), sp.q, g) // G[Q,Q] is symmetric
	matrix.SymmetricProductInto(sigma, 1, h, sp.q).AddDiagonal(sp.alpha)
	u := matrix.MulTransBInto(sized(&sp.u, n, k), sp.q, sp.block(sp.sigma, 0, k, k, r))
	for a, ja := range sp.omega {
		for j := 0; j < n; j++ {
			v := u.Data[j*k+a]
			sigma.Data[ja*n+j] = v
			sigma.Data[j*n+ja] = v
		}
	}
	for a, ja := range sp.omega {
		for b, jb := range sp.omega[:a+1] {
			v := sp.sigma.Data[a*sp.n+b]
			sigma.Data[ja*n+jb] = v
			sigma.Data[jb*n+ja] = v
		}
	}
}

// project writes Pᵀv into dst (length d): v's Ω entries, then Qᵀv,
// accumulated over Q's rows four at a time — one load and store of each
// coordinate per four rows. Each coordinate still adds v_j·Q[j,c] for j
// ascending in a single chain, the order of one axpy per row. O(n·r).
func (sp *subspace) project(dst, v []float64) []float64 {
	k := len(sp.omega)
	for a, j := range sp.omega {
		dst[a] = v[j]
	}
	t := dst[k:]
	for c := range t {
		t[c] = 0
	}
	r := len(t)
	j := 0
	for ; j+4 <= len(v); j += 4 {
		x0, x1, x2, x3 := v[j], v[j+1], v[j+2], v[j+3]
		q0 := sp.q.Data[j*r : (j+1)*r][:r]
		q1 := sp.q.Data[(j+1)*r : (j+2)*r][:r]
		q2 := sp.q.Data[(j+2)*r : (j+3)*r][:r]
		q3 := sp.q.Data[(j+3)*r : (j+4)*r][:r]
		for c, s := range t {
			s += x0 * q0[c]
			s += x1 * q1[c]
			s += x2 * q2[c]
			s += x3 * q3[c]
			t[c] = s
		}
	}
	for ; j < len(v); j++ {
		matrix.AxpyInPlace(v[j], sp.q.RowView(j), t)
	}
	return dst
}
