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
// (llRowsFromMeans), and Ĉ's complement trace in the σ² update
// (mStepSigma2). A cold fit at the paper's n = 1024 then costs
// O(n·rows·r + n·r² + iters·d³) instead of O(iters·n³).
//
// The basis is P = [E_Ω | Q]: the observed coordinates' unit vectors, then
// an orthonormal basis Q of the database rows (and InitMu) with their Ω
// entries zeroed, built by Gram–Schmidt with one reorthogonalization pass
// (subspace.basis), whose R factor holds the rows' Q coordinates. When
// d = n the frame is the whole space and the fit runs in the identity frame
// — the session's own coordinates — instead. The three n-dimensional steps
// of a frame build (the basis, the rows' coordinates and the variance
// diagonal, subspace.diag) run serially, four rows per pass, and need no
// n×r scratch beyond Q itself.
//
// The fitted posterior stays in its cold fit's frame (DESIGN.md §16): μ is
// lifted to a dense n-vector, because the next window's observations move
// it out of V, but Σ = αI + P(Σ′−αI)Pᵀ is kept as (α, Q, Ω, Σ′), the
// session's heldFrame. Frozen refits never change Σ, so they act on it
// through that structure (warm.go). No fit forms the dense Σ;
// SessionState.DenseSigma does, for a caller that wants it (materialize).
//
// Everything else a frame uses is fit scratch (FreeList): the basis build,
// the frame's coordinates and workspace, and the frozen refit's per-fit
// operands live in a subspace the session borrows for one fit. A cold fit
// builds its frame there, in storage no session holds, and hands Ω, Q and
// Σ′ to the session when it ends; a frozen refit binds the borrowed
// subspace to the held frame, which it only reads.

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

// heldFrame is a fitted posterior's subspace frame, the part of a frame a
// session keeps between fits: Σ = αI + P(Σ′−αI)Pᵀ with P = [E_Ω | Q]. A
// cold fit builds it; Restore takes it by reference from the state it
// restores, so sessions seeded from one state share one frame, and no fit
// writes through it.
type heldFrame struct {
	alpha float64        // Σ's eigenvalue on the complement
	omega []int          // Ω: the configurations of frame coordinates 0..k−1
	q     *matrix.Matrix // n×r: Q, zero on Ω's rows
	sigma *matrix.Matrix // d×d: Σ′
}

// subspace is a subspace frame's fit scratch, reused (grow-only) by every
// fit that borrows it. P = [E_Ω | Q] is never formed: the E_Ω half is index
// bookkeeping on Ω, and only Q is stored. omega, q and the frame's alpha
// and sigma are either the frame a cold fit is building, in the scratch's
// own storage, or — while bound — a session's held frame, read-only.
type subspace struct {
	frame
	active bool           // a cold fit is running in this frame
	bound  bool           // omega, q, alpha and sigma are a session's held frame
	omega  []int          // Ω: the configurations of frame coordinates 0..k−1
	q      *matrix.Matrix // n×r: Q, zero on Ω's rows

	cand *matrix.Matrix // Qᵀ (r×n): the accepted basis candidates
	rf   *matrix.Matrix // nc×nc: row i is candidate i's components along Q
	coef []float64      // one projection pass's coefficients
	obs  []int          // 0..k−1, the observations' frame coordinates
	mean []float64      // d: Pᵀ × the database column means
	devT *matrix.Matrix // d×rows: centered database coordinates
	z    []float64      // n: the last lifted vector
	blk  *matrix.Matrix // a block of a d×d frame matrix
	h    *matrix.Matrix // n×r: Q times an r×r block (materialize only)
	u    *matrix.Matrix // n×k: Q·(Σ′−αI)[Q,Ω]

	// Frozen-refit work buffers (warm.go): Pᵀv and Ĉ′Pᵀv, and the per-fit
	// target operands for a window's observations Ω′ (frameTarget).
	pt, pu []float64      // d
	pk     *matrix.Matrix // k′×d: P[Ω′,:]
	wt     *matrix.Matrix // k′×d: Wᵀ = P[Ω′,:]·(Σ′−αI)
	ut     *matrix.Matrix // d×k′: Uᵀ = (L_K⁻¹Wᵀ)ᵀ
	uq     *matrix.Matrix // k′×r: U's Q columns
}

func newSubspace(rows int) *subspace {
	sp := &subspace{}
	sp.ws = newEMWorkspace(0, rows)
	return sp
}

// bind points the subspace at a session's held frame over n
// configurations, for a frozen refit or an operator build to read.
func (sp *subspace) bind(h *heldFrame, n int) {
	sp.omega, sp.q, sp.alpha, sp.sigma = h.omega, h.q, h.alpha, h.sigma
	sp.n, sp.full = h.sigma.Rows, n
	sp.active, sp.bound = false, true
}

// unbind drops a bound held frame, so that nothing built next in this
// scratch writes through it.
func (sp *subspace) unbind() {
	if sp.bound {
		sp.omega, sp.q, sp.sigma = nil, nil, nil
		sp.bound = false
	}
}

// take hands the frame a cold fit just built to its session: the scratch
// lets go of Ω, Q and Σ′, and builds the next frame in fresh storage.
func (sp *subspace) take() heldFrame {
	h := heldFrame{alpha: sp.alpha, omega: sp.omega, q: sp.q, sigma: sp.sigma}
	sp.omega, sp.q, sp.sigma = nil, nil, nil
	return h
}

// heldFrame returns the subspace frame the session's posterior lives in, or
// nil when it lives in the identity frame (the dense em.sigma).
func (em *Session) heldFrame() *heldFrame {
	if em.held.sigma != nil {
		return &em.held
	}
	return nil
}

// heldSub returns the borrowed subspace bound to the session's held frame,
// or nil when the posterior lives in the identity frame.
func (em *Session) heldSub() *subspace {
	h := em.heldFrame()
	if h == nil {
		return nil
	}
	em.sub.bind(h, em.n)
	return em.sub
}

// sigmaBuf returns the session's dense Σ, allocating it on first use: only
// identity-frame posteriors hold one.
func (em *Session) sigmaBuf() *matrix.Matrix { return sized(&em.sigma, em.n, em.n) }

// frame returns the coordinates the fast E- and M-steps run in: the
// subspace frame while a cold fit runs in one, otherwise the session's own
// parameters.
func (em *Session) frame() *frame {
	if em.sub.active {
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
	if !em.sub.active {
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
// untouched, when the frame would span every configuration. The scratch
// must be unbound: Ω, Q and Σ′ are built in its own storage.
func (em *Session) initSubspace() bool {
	sp := em.sub
	n, k, rows := em.n, len(em.obsIdx), em.known.Rows
	r := sp.basis(em.known, em.opts.InitMu, em.obsIdx)
	d := k + r
	if d >= n {
		return false
	}
	sp.omega = append(sp.omega[:0], em.obsIdx...)
	q := sized(&sp.q, n, r)
	for c := 0; c < r; c++ {
		for j, v := range sp.cand.RowView(c) {
			q.Data[j*r+c] = v
		}
	}

	f := &sp.frame
	f.n, f.full, f.alpha = d, n, 1
	f.ws.resize(d)
	// The database rows' coordinates: their Ω entries, then Qᵀyᵢ, which is
	// row i of the basis build's R factor.
	f.known = sized(&f.known, rows, d)
	for i := 0; i < rows; i++ {
		row, y := f.known.RowView(i), em.known.RowView(i)
		for a, j := range sp.omega {
			row[a] = y[j]
		}
		copy(row[k:], sp.rf.RowView(i)[:r])
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
		sp.project(sp.mean, em.prior.colMean)
	}
	switch {
	case em.opts.InitMu != nil:
		sp.project(f.mu, em.opts.InitMu)
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
// It is left-looking classical Gram–Schmidt with one full second pass
// ("twice is enough": Giraud, Langou and Rozložník, 2005). The candidates
// are taken in order: each is projected against the accepted rows twice and
// is accepted when its residual exceeds frameRankTol of its own norm. Q's Ω
// entries stay exactly zero.
//
// Both passes' coefficients, and an accepted candidate's residual norm, are
// its row of R (sp.rf, nc×nc): candidate i is Σ_c R[i,c]·q_c to round-off
// (to frameRankTol of its norm when dropped), so R's row i is its Q
// coordinates. Its components along directions accepted after it are zero:
// they were orthogonalized against it.
//
// A pass is one MulVecInto for the coefficients, then subtractRows.
func (sp *subspace) basis(known *matrix.Matrix, initMu []float64, obsIdx []int) int {
	nc, n := known.Rows, known.Cols
	if initMu != nil {
		nc++
	}
	cand := sized(&sp.cand, nc, n)
	rf := sized(&sp.rf, nc, nc)
	for i := range rf.Data {
		rf.Data[i] = 0
	}
	sp.coef = growVec(sp.coef, nc)
	r := 0
	for i := 0; i < nc; i++ {
		// The candidate goes into the first unaccepted row; a dropped one is
		// overwritten by the next.
		v := cand.RowView(r)
		if i < known.Rows {
			copy(v, known.RowView(i))
		} else {
			copy(v, initMu)
		}
		for _, j := range obsIdx {
			v[j] = 0
		}
		norm := matrix.Norm2(v)
		ri := rf.RowView(i)
		if r > 0 {
			acc := matrix.Matrix{Rows: r, Cols: n, Data: cand.Data[:r*n]}
			t := sp.coef[:r]
			for pass := 0; pass < 2; pass++ {
				matrix.MulVecInto(t, &acc, v)
				subtractRows(v, &acc, t)
				for c, x := range t {
					ri[c] += x
				}
			}
		}
		if res := matrix.Norm2(v); res > frameRankTol*norm {
			inv := 1 / res
			for j := range v {
				v[j] *= inv
			}
			ri[r] = res
			r++
		}
	}
	cand.Reshape(r, n)
	return r
}

// subtractRows writes v −= aᵀt, the combination of a's rows with weights t,
// taking four rows per pass over v: one load and store of each entry per
// four rows.
func subtractRows(v []float64, a *matrix.Matrix, t []float64) {
	n := len(v)
	c := 0
	for ; c+4 <= len(t); c += 4 {
		a0 := a.Data[c*n : (c+1)*n][:n]
		a1 := a.Data[(c+1)*n : (c+2)*n][:n]
		a2 := a.Data[(c+2)*n : (c+3)*n][:n]
		a3 := a.Data[(c+3)*n : (c+4)*n][:n]
		t0, t1, t2, t3 := t[c], t[c+1], t[c+2], t[c+3]
		for j := range v {
			v[j] -= t0*a0[j] + t1*a1[j] + t2*a2[j] + t3*a3[j]
		}
	}
	for ; c < len(t); c++ {
		matrix.AxpyInPlace(-t[c], a.RowView(c), v)
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
// form of the frame matrix m with complement eigenvalue alpha: m[a,a] at
// Ω_a, where P_j is a unit vector, and α + Q_j·G·Q_jᵀ elsewhere, with
// G = m[Q,Q] − αI read from its lower triangle as
// Σ_c q_c·(G_cc·q_c + 2·Σ_{b<c} G_cb·q_b). Four rows of Q per pass, each
// row on its own chains: O(n·r²/2) multiply-adds and no n×r product.
func (sp *subspace) diag(dst []float64, m *matrix.Matrix, alpha float64) {
	k, r, n := len(sp.omega), sp.q.Cols, len(dst)
	row := func(j int) []float64 {
		// A last pass short of four rows repeats row n−1 and stores only
		// the rows it owns.
		j = min(j, n-1)
		return sp.q.Data[j*r : (j+1)*r][:r]
	}
	for j := 0; j < n; j += 4 {
		q0, q1, q2, q3 := row(j), row(j+1), row(j+2), row(j+3)
		var s0, s1, s2, s3 float64
		for c := 0; c < r; c++ {
			g := m.Data[(k+c)*m.Cols+k:][:c+1]
			var t0, t1, t2, t3 float64
			for b, gv := range g[:c] {
				t0 += gv * q0[b]
				t1 += gv * q1[b]
				t2 += gv * q2[b]
				t3 += gv * q3[b]
			}
			gc := g[c] - alpha
			s0 += q0[c] * (2*t0 + gc*q0[c])
			s1 += q1[c] * (2*t1 + gc*q1[c])
			s2 += q2[c] * (2*t2 + gc*q2[c])
			s3 += q3[c] * (2*t3 + gc*q3[c])
		}
		for i, s := range [4]float64{s0, s1, s2, s3} {
			if j+i < n {
				dst[j+i] = alpha + s
			}
		}
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
