package core

import "leo/internal/matrix"

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
// (llRows), and Ĉ's complement trace in the σ² update (mStepSigma2). A cold
// fit at the paper's n = 1024 then costs O(n·r² + iters·d³ + n²·d) instead
// of O(iters·n³).
//
// The basis is P = [E_Ω | Q]: the observed coordinates' unit vectors, then a
// rank-revealing orthonormal basis Q of the database rows (and InitMu) with
// their Ω entries zeroed. When d = n the frame is the whole space and the
// fit runs in the identity frame — the session's own coordinates — instead.

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
	omega  []int // Ω: the configurations of frame coordinates 0..k−1

	cand  *matrix.Matrix // basis candidates; Q's columns in the leading r rows
	norms []float64      // candidates' norms before projection
	q     *matrix.Matrix // n×r: Q, zero on Ω's rows
	obs   []int          // 0..k−1, the observations' frame coordinates
	mean  []float64      // d: Pᵀ × the database column means
	devT  *matrix.Matrix // d×rows: centered database coordinates
	z     []float64      // n: the last lifted vector
	blk   *matrix.Matrix // a block of a d×d frame matrix
	h     *matrix.Matrix // n×r: Q times an r×r block
	u     *matrix.Matrix // n×k: Q·(Σ′−αI)[Q,Ω]
}

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
	sp := em.sub
	if sp == nil {
		sp = &subspace{}
		sp.ws = newEMWorkspace(0, em.known.Rows)
		em.sub = sp
	}
	n, k, rows := em.n, len(em.obsIdx), em.known.Rows
	r := sp.basis(em.known, em.opts.InitMu, em.obsIdx)
	d := k + r
	if d >= n {
		return false
	}
	sp.omega = em.obsIdx
	q := sized(&sp.q, n, r)
	for c := 0; c < r; c++ {
		for j, v := range sp.cand.RowView(c) {
			q.Data[j*r+c] = v
		}
	}

	f := &sp.frame
	f.n, f.full, f.alpha = d, n, 1
	f.ws.resize(d)
	f.known = sized(&f.known, rows, d)
	for i := 0; i < rows; i++ {
		sp.coords(f.known.RowView(i), em.known.RowView(i))
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
	em.freshSigma = false
	f.ws.ensureObs(d, k)
	sp.z = growVec(sp.z, n)
	sp.active = true
	return true
}

// basis builds Q, an orthonormal basis of the database rows (and initMu)
// with their Ω entries zeroed, into the leading rows of sp.cand and returns
// its rank r. It is pivoted modified Gram–Schmidt: each step accepts the
// candidate with the largest residual relative to its own norm, re-
// orthogonalizes it against the accepted rows, and projects it out of the
// rest; candidates whose relative residual falls to frameRankTol are
// dropped. Q's Ω entries stay exactly zero.
func (sp *subspace) basis(known *matrix.Matrix, initMu []float64, obsIdx []int) int {
	nc := known.Rows
	if initMu != nil {
		nc++
	}
	cand := sized(&sp.cand, nc, known.Cols)
	copy(cand.Data, known.Data)
	if initMu != nil {
		copy(cand.RowView(nc-1), initMu)
	}
	sp.norms = growVec(sp.norms, nc)
	for i := 0; i < nc; i++ {
		row := cand.RowView(i)
		for _, j := range obsIdx {
			row[j] = 0
		}
		sp.norms[i] = matrix.Norm2(row)
	}
	r := 0
	for ; r < nc; r++ {
		piv, best := -1, frameRankTol
		for i := r; i < nc; i++ {
			if sp.norms[i] == 0 {
				continue
			}
			if rel := matrix.Norm2(cand.RowView(i)) / sp.norms[i]; rel > best {
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
			sp.norms[r], sp.norms[piv] = sp.norms[piv], sp.norms[r]
		}
		for c := 0; c < r; c++ {
			qc := cand.RowView(c)
			matrix.AxpyInPlace(-matrix.Dot(qc, q), qc, q)
		}
		inv := 1 / matrix.Norm2(q)
		for j := range q {
			q[j] *= inv
		}
		for i := r + 1; i < nc; i++ {
			row := cand.RowView(i)
			matrix.AxpyInPlace(-matrix.Dot(q, row), q, row)
		}
	}
	return r
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

// variance writes the diagonal of the target posterior covariance in
// configuration coordinates, Ĉ_M[j,j] = α(1−‖P_j‖²) + P_j Ĉ′_M P_jᵀ with
// P_j row j of P and e the frame's final E-step: Ĉ′_M[a,a] at Ω_a, where
// P_j is a unit vector, and α(1−‖Q_j‖²) + Q_j Ĉ′_M[Q,Q] Q_jᵀ elsewhere.
func (sp *subspace) variance(dst []float64, e *eResult) {
	k, r := len(sp.omega), sp.q.Cols
	h := sized(&sp.h, sp.full, r)
	matrix.MulTransBInto(h, sp.q, sp.block(e.cTarget, k, k, r, r)) // the block is symmetric
	for j := range dst {
		qj := sp.q.RowView(j)
		dst[j] = e.compTarget*(1-matrix.Dot(qj, qj)) + matrix.Dot(h.RowView(j), qj)
	}
	for a, j := range sp.omega {
		dst[j] = e.cTarget.At(a, a)
	}
}

// materialize writes the frame's parameters in configuration coordinates:
// μ = Pμ′ and Σ = αI + PGPᵀ with G = Σ′−αI, block by block —
//
//	Σ[Q,Q] = αI + Q G[Q,Q] Qᵀ,   Σ[Ω,·] = G[Ω,Q] Qᵀ,   Σ[Ω,Ω] = Σ′[Ω,Ω]
//
// where "Q" stands for the configurations outside Ω. The first block is
// one computed triangle mirrored, and the Ω rows are written to their
// columns too, so Σ is exactly symmetric.
func (sp *subspace) materialize(mu []float64, sigma *matrix.Matrix) {
	n, k, r := sp.full, len(sp.omega), sp.q.Cols
	sp.lift(mu, sp.mu)
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
