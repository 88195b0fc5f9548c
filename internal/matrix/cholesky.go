package matrix

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotPositiveDefinite is returned when a Cholesky factorization encounters
// a non-positive pivot.
var ErrNotPositiveDefinite = errors.New("matrix: not positive definite")

// cholTile is the panel width of the blocked factorization. 64 columns keep
// the diagonal block (64×64×8 B = 32 KB) in L1 while the trailing update —
// where ~n³/3 of the flops live — runs as a tiled rank-64 GEMM.
const cholTile = 64

// Cholesky is the lower-triangular factor L of a symmetric positive-definite
// matrix A = L L'.
//
// The zero value is unusable; obtain one from NewCholesky (factor once) or
// NewCholeskyWorkspace (pre-size once, Factorize repeatedly without
// allocating — the EM loop's steady state).
type Cholesky struct {
	n int
	l *Matrix // lower triangular, upper part zeroed

	// inv is InverseInto's scratch for L⁻¹ (row j holds column j, so both
	// phases stream contiguously). Allocated on first use, reused after —
	// a steady-state loop calling InverseInto every iteration allocates
	// nothing.
	inv *Matrix
}

// NewCholeskyWorkspace returns an unfactored Cholesky with storage for n×n
// systems. Factorize and FactorizeJitter fill it in place, so a loop that
// re-factors every iteration performs zero steady-state allocations.
func NewCholeskyWorkspace(n int) *Cholesky {
	if n < 0 {
		panic(fmt.Sprintf("matrix: negative Cholesky size %d", n))
	}
	return &Cholesky{n: n, l: New(n, n)}
}

// NewCholesky factors the symmetric positive-definite matrix a. The input is
// not modified. It returns ErrNotPositiveDefinite if a pivot is not strictly
// positive.
func NewCholesky(a *Matrix) (*Cholesky, error) {
	a.checkSquare("NewCholesky")
	c := NewCholeskyWorkspace(a.Rows)
	if err := c.Factorize(a); err != nil {
		return nil, err
	}
	return c, nil
}

// Factorize overwrites the receiver with the factorization of a (which must
// match the workspace size and is not modified). On failure the workspace
// contents are undefined but the workspace remains reusable.
func (c *Cholesky) Factorize(a *Matrix) error { return c.FactorizeShift(a, 0) }

// FactorizeShift is Factorize of a + shift·I without forming it: the copy
// into the workspace adds shift to each diagonal entry, so the factor
// carries the same bits as factorizing a shifted copy of a.
//
// It copies a (plus shift·I) into the workspace and runs the blocked
// right-looking algorithm: factor a cholTile-wide diagonal block, solve the
// panel below it, then apply the rank-cholTile update to the trailing
// submatrix with rows fanned out across goroutines. Each element of the
// trailing matrix accumulates its panel contribution in a fixed order, so
// the result is bit-identical for every worker count.
func (c *Cholesky) FactorizeShift(a *Matrix, shift float64) error {
	if a.Rows != c.n || a.Cols != c.n {
		panic(fmt.Sprintf("matrix: Factorize got %dx%d for workspace size %d", a.Rows, a.Cols, c.n))
	}
	t := kernelClock()
	defer kernelDone(t, mCholCalls, mCholNs)
	n, data := c.n, c.l.Data
	copy(data, a.Data)
	if shift != 0 {
		for i := 0; i < n; i++ {
			data[i*n+i] += shift
		}
	}
	for j0 := 0; j0 < n; j0 += cholTile {
		jb := cholTile
		if j0+jb > n {
			jb = n - j0
		}
		if err := cholFactorDiag(data, n, j0, jb); err != nil {
			return err
		}
		cholPanelSolve(data, n, j0, jb)
		cholTrailingUpdate(data, n, j0, jb)
	}
	// Zero the strictly upper triangle so l is exactly lower triangular.
	for r := 0; r < n; r++ {
		row := data[r*n : (r+1)*n]
		for cc := r + 1; cc < n; cc++ {
			row[cc] = 0
		}
	}
	return nil
}

// cholFactorDiag runs the unblocked factorization on the jb×jb diagonal
// block starting at (j0, j0). Trailing updates from earlier panels have
// already been applied, so only columns within the block participate.
func cholFactorDiag(data []float64, n, j0, jb int) error {
	for j := j0; j < j0+jb; j++ {
		jrow := data[j*n+j0 : j*n+j]
		d := data[j*n+j]
		for _, v := range jrow {
			d -= v * v
		}
		if d <= 0 || math.IsNaN(d) {
			return fmt.Errorf("%w: pivot %d is %g", ErrNotPositiveDefinite, j, d)
		}
		d = math.Sqrt(d)
		data[j*n+j] = d
		inv := 1 / d
		for i := j + 1; i < j0+jb; i++ {
			irow := data[i*n+j0 : i*n+j]
			s := data[i*n+j]
			for t, v := range jrow {
				s -= irow[t] * v
			}
			data[i*n+j] = s * inv
		}
	}
	return nil
}

// cholPanelSolve computes L21 = A21 L11⁻ᵀ for the rows below the diagonal
// block: each row solves a jb-wide lower-triangular system independently, so
// rows parallelize freely.
func cholPanelSolve(data []float64, n, j0, jb int) {
	lo := j0 + jb
	rows := n - lo
	if useParallel(rows, rows*jb*jb/2) {
		parallelRange(rows, func(rlo, rhi int) {
			cholPanelSolveRange(data, n, j0, jb, lo+rlo, lo+rhi)
		})
		return
	}
	cholPanelSolveRange(data, n, j0, jb, lo, lo+rows)
}

func cholPanelSolveRange(data []float64, n, j0, jb, ilo, ihi int) {
	for i := ilo; i < ihi; i++ {
		irow := data[i*n:]
		for j := j0; j < j0+jb; j++ {
			jrow := data[j*n+j0 : j*n+j]
			s := irow[j]
			for t, v := range jrow {
				s -= irow[j0+t] * v
			}
			irow[j] = s / data[j*n+j]
		}
	}
}

// cholTrailingUpdate applies A22 -= L21 L21ᵀ to the lower triangle of the
// trailing submatrix — the rank-jb GEMM where ~n³/3 of the factorization's
// flops live. It runs the same 4×4 register-blocked kernel as the GEMM
// (sixteen independent accumulator chains hide the FP-add latency a single
// running dot would serialize on), falling back to scalar dots along the
// diagonal and at partition edges. Every element subtracts one jb-length dot
// product accumulated in ascending panel order on both paths, so the bits
// never depend on which goroutine — or which path — produced them.
func cholTrailingUpdate(data []float64, n, j0, jb int) {
	lo := j0 + jb
	rows := n - lo
	// Triangular region: rows near the bottom carry more work, but contiguous
	// ranges keep each goroutine on adjacent memory; the imbalance is at most
	// 2× and only on the last panels.
	if useParallel(rows, rows*rows/2*jb) {
		parallelRange(rows, func(rlo, rhi int) {
			cholTrailingRange(data, n, j0, jb, lo+rlo, lo+rhi)
		})
		return
	}
	cholTrailingRange(data, n, j0, jb, lo, lo+rows)
}

// cholTrailingRange updates rows [ilo, end) of the trailing submatrix.
func cholTrailingRange(data []float64, n, j0, jb, ilo, end int) {
	lo := j0 + jb
	i := ilo
	for ; i+4 <= end; i += 4 {
		p0 := data[i*n+j0 : i*n+j0+jb]
		p1 := data[(i+1)*n+j0 : (i+1)*n+j0+jb][:len(p0)]
		p2 := data[(i+2)*n+j0 : (i+2)*n+j0+jb][:len(p0)]
		p3 := data[(i+3)*n+j0 : (i+3)*n+j0+jb][:len(p0)]
		r0 := data[i*n : (i+1)*n]
		r1 := data[(i+1)*n : (i+2)*n]
		r2 := data[(i+2)*n : (i+3)*n]
		r3 := data[(i+3)*n : (i+4)*n]
		cc := lo
		// Full 4×4 blocks: columns cc..cc+3 are at or left of the
		// diagonal for all four rows iff cc+3 <= i.
		for ; cc+3 <= i; cc += 4 {
			q0 := data[cc*n+j0 : cc*n+j0+jb][:len(p0)]
			q1 := data[(cc+1)*n+j0 : (cc+1)*n+j0+jb][:len(p0)]
			q2 := data[(cc+2)*n+j0 : (cc+2)*n+j0+jb][:len(p0)]
			q3 := data[(cc+3)*n+j0 : (cc+3)*n+j0+jb][:len(p0)]
			var s00, s01, s02, s03 float64
			var s10, s11, s12, s13 float64
			var s20, s21, s22, s23 float64
			var s30, s31, s32, s33 float64
			for t := range p0 {
				pv0, pv1, pv2, pv3 := p0[t], p1[t], p2[t], p3[t]
				qv0, qv1, qv2, qv3 := q0[t], q1[t], q2[t], q3[t]
				s00 += pv0 * qv0
				s01 += pv0 * qv1
				s02 += pv0 * qv2
				s03 += pv0 * qv3
				s10 += pv1 * qv0
				s11 += pv1 * qv1
				s12 += pv1 * qv2
				s13 += pv1 * qv3
				s20 += pv2 * qv0
				s21 += pv2 * qv1
				s22 += pv2 * qv2
				s23 += pv2 * qv3
				s30 += pv3 * qv0
				s31 += pv3 * qv1
				s32 += pv3 * qv2
				s33 += pv3 * qv3
			}
			r0[cc] -= s00
			r0[cc+1] -= s01
			r0[cc+2] -= s02
			r0[cc+3] -= s03
			r1[cc] -= s10
			r1[cc+1] -= s11
			r1[cc+2] -= s12
			r1[cc+3] -= s13
			r2[cc] -= s20
			r2[cc+1] -= s21
			r2[cc+2] -= s22
			r2[cc+3] -= s23
			r3[cc] -= s30
			r3[cc+1] -= s31
			r3[cc+2] -= s32
			r3[cc+3] -= s33
		}
		// Diagonal-crossing remainder: scalar per row up to its diagonal.
		cholTrailingRowScalar(data, n, j0, jb, i, cc)
		cholTrailingRowScalar(data, n, j0, jb, i+1, cc)
		cholTrailingRowScalar(data, n, j0, jb, i+2, cc)
		cholTrailingRowScalar(data, n, j0, jb, i+3, cc)
	}
	for ; i < end; i++ {
		cholTrailingRowScalar(data, n, j0, jb, i, lo)
	}
}

// cholTrailingRowScalar subtracts the panel contribution from row i's
// trailing elements in columns [cc, i].
func cholTrailingRowScalar(data []float64, n, j0, jb, i, cc int) {
	ipanel := data[i*n+j0 : i*n+j0+jb]
	irow := data[i*n:]
	for ; cc <= i; cc++ {
		irow[cc] -= dotUnchecked(ipanel, data[cc*n+j0:cc*n+j0+jb])
	}
}

// DefaultJitter is the starting identity shift of the jitter ladder — small
// enough to be invisible against any well-scaled Σ, large enough to rescue a
// factorization lost to round-off.
const DefaultJitter = 1e-10

// DefaultJitterTries bounds the ladder's escalation: DefaultJitter·10^13 ≈ 1e3
// is the point past which Σ is no longer meaningfully the caller's matrix.
const DefaultJitterTries = 14

// jitterLadder is the one shared escalation policy behind FactorizeJitter and
// NewCholeskyJitter: attempt the unshifted factorization, then retry with an
// identity shift starting at jitter and growing 10× up to maxTries times. It
// returns the shift that succeeded (0 for the clean first attempt).
func jitterLadder(try func(shift float64) error, jitter float64, maxTries int) (float64, error) {
	if jitter <= 0 {
		jitter = DefaultJitter
	}
	if err := try(0); err == nil {
		return 0, nil
	}
	cur := jitter
	for attempt := 0; attempt < maxTries; attempt++ {
		if err := try(cur); err == nil {
			return cur, nil
		}
		cur *= 10
	}
	return 0, fmt.Errorf("%w even after jitter up to %g", ErrNotPositiveDefinite, cur/10)
}

// FactorizeJitter factors a, adding progressively larger multiples of the
// identity (starting at jitter, growing 10× up to maxTries times) until the
// factorization succeeds, and returns the jitter actually applied. Like
// Factorize it allocates nothing: every attempt re-copies a into the
// workspace.
func (c *Cholesky) FactorizeJitter(a *Matrix, jitter float64, maxTries int) (float64, error) {
	return jitterLadder(func(shift float64) error { return c.FactorizeShift(a, shift) }, jitter, maxTries)
}

// NewCholeskyJitter factors a, adding progressively larger multiples of the
// identity (starting at jitter, growing 10× up to maxTries times) until the
// factorization succeeds. It returns the factor and the jitter actually
// applied. This is how LEO keeps Σ usable despite floating-point drift.
func NewCholeskyJitter(a *Matrix, jitter float64, maxTries int) (*Cholesky, float64, error) {
	a.checkSquare("NewCholeskyJitter")
	c := NewCholeskyWorkspace(a.Rows)
	applied, err := c.FactorizeJitter(a, jitter, maxTries)
	if err != nil {
		return nil, 0, err
	}
	return c, applied, nil
}

// CopyFrom copies src's factorization into the receiver, which must have the
// same size. It lets a precomputed factor seed a reusable workspace without
// paying for (or re-deriving) the factorization.
func (c *Cholesky) CopyFrom(src *Cholesky) {
	if c.n != src.n {
		panic(fmt.Sprintf("matrix: CopyFrom size %d != %d", src.n, c.n))
	}
	copy(c.l.Data, src.l.Data)
}

// Size returns the dimension of the factored matrix.
func (c *Cholesky) Size() int { return c.n }

// Resize re-sizes the workspace for n×n systems, reusing the backing
// storage whenever it is large enough (grow-only). Once a workspace has
// seen its largest size, alternating between previously seen sizes
// allocates nothing. The factor contents after Resize are undefined until
// the next Factorize.
func (c *Cholesky) Resize(n int) {
	if n < 0 {
		panic(fmt.Sprintf("matrix: negative Cholesky size %d", n))
	}
	if n == c.n {
		return
	}
	c.n = n
	c.l.Reshape(n, n)
	if c.inv != nil {
		c.inv.Reshape(n, n)
	}
}

// L returns a copy of the lower-triangular factor.
func (c *Cholesky) L() *Matrix { return c.l.Clone() }

// SolveVec solves A x = b for x, where A = L L'.
func (c *Cholesky) SolveVec(b []float64) []float64 {
	return c.SolveVecInto(make([]float64, c.n), b)
}

// SolveVecInto solves A x = b into dst and returns dst. dst may be b itself
// (the solve then runs fully in place).
func (c *Cholesky) SolveVecInto(dst, b []float64) []float64 {
	if len(b) != c.n {
		panic(fmt.Sprintf("matrix: SolveVec length %d != size %d", len(b), c.n))
	}
	if len(dst) != c.n {
		panic(fmt.Sprintf("matrix: SolveVecInto dst length %d != size %d", len(dst), c.n))
	}
	t := kernelClock()
	defer kernelDone(t, mSolveCalls, mSolveNs)
	copy(dst, b)
	c.solveInPlace(dst)
	return dst
}

// solveInPlace solves L L' x = x, overwriting x.
func (c *Cholesky) solveInPlace(x []float64) {
	n, data := c.n, c.l.Data
	// Forward substitution: L y = b.
	for i := 0; i < n; i++ {
		s := x[i]
		row := data[i*n : i*n+i]
		for k, v := range row {
			s -= v * x[k]
		}
		x[i] = s / data[i*n+i]
	}
	// Back substitution: L' x = y.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for k := i + 1; k < n; k++ {
			s -= data[k*n+i] * x[k]
		}
		x[i] = s / data[i*n+i]
	}
}

// Solve solves A X = B for X, column by column, in parallel for large B.
func (c *Cholesky) Solve(b *Matrix) *Matrix { return c.SolveBatch(b) }

// SolveBatch solves A X = B for X (B holds one right-hand side per column),
// allocating the result. The columns are solved independently across
// goroutines via SolveTInto on a transposed copy, so each right-hand side is
// contiguous in memory.
func (c *Cholesky) SolveBatch(b *Matrix) *Matrix {
	if b.Rows != c.n {
		panic(fmt.Sprintf("matrix: Solve rows %d != size %d", b.Rows, c.n))
	}
	bt := b.Transpose()
	c.SolveTInto(bt, bt)
	return bt.Transpose()
}

// SolveTInto treats every row of b as a right-hand side: it writes A⁻¹ b_i
// into row i of dst, i.e. dst = (A⁻¹ Bᵀ)ᵀ = B A⁻¹ (A is symmetric). b.Cols
// must equal the system size; dst must share b's shape and may be b itself.
// Rows solve independently in parallel. This is the allocation-free path for
// multi-RHS solves against matrices whose transpose the caller would
// otherwise have to materialize.
func (c *Cholesky) SolveTInto(dst, b *Matrix) *Matrix {
	if b.Cols != c.n {
		panic(fmt.Sprintf("matrix: SolveTInto cols %d != size %d", b.Cols, c.n))
	}
	if dst.Rows != b.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("matrix: SolveTInto dst %dx%d, want %dx%d", dst.Rows, dst.Cols, b.Rows, b.Cols))
	}
	t := kernelClock()
	defer kernelDone(t, mSolveCalls, mSolveNs)
	if useParallel(b.Rows, b.Rows*c.n*c.n) {
		parallelRange(b.Rows, func(lo, hi int) {
			c.solveTRange(dst, b, lo, hi)
		})
		return dst
	}
	c.solveTRange(dst, b, 0, b.Rows)
	return dst
}

func (c *Cholesky) solveTRange(dst, b *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		row := dst.RowView(i)
		copy(row, b.RowView(i))
		c.solveInPlace(row)
	}
}

// ForwardSolveTInto half-solves: it writes L⁻¹bᵢ into row i of dst, where bᵢ
// is row i of b — the forward substitution of the full solve only, half its
// flops. Callers use it to factor symmetric products: with V = L⁻¹Bᵀ (i.e.
// dst = Vᵀ) the correction B A⁻¹ Bᵀ equals VᵀV — a SYRK, exactly symmetric
// by construction — instead of a full solve followed by a general (and only
// approximately symmetric) GEMM. b.Cols must equal the system size; dst must
// share b's shape and may be b itself. Rows solve independently in parallel.
func (c *Cholesky) ForwardSolveTInto(dst, b *Matrix) *Matrix {
	if b.Cols != c.n {
		panic(fmt.Sprintf("matrix: ForwardSolveTInto cols %d != size %d", b.Cols, c.n))
	}
	if dst.Rows != b.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("matrix: ForwardSolveTInto dst %dx%d, want %dx%d", dst.Rows, dst.Cols, b.Rows, b.Cols))
	}
	t := kernelClock()
	defer kernelDone(t, mSolveCalls, mSolveNs)
	if useParallel(b.Rows, b.Rows*c.n*c.n/2) {
		parallelRange(b.Rows, func(lo, hi int) {
			c.forwardSolveTRange(dst, b, lo, hi)
		})
		return dst
	}
	c.forwardSolveTRange(dst, b, 0, b.Rows)
	return dst
}

func (c *Cholesky) forwardSolveTRange(dst, b *Matrix, lo, hi int) {
	n, data := c.n, c.l.Data
	for i := lo; i < hi; i++ {
		x := dst.RowView(i)
		copy(x, b.RowView(i))
		for j := 0; j < n; j++ {
			s := x[j]
			row := data[j*n : j*n+j]
			for k, v := range row {
				s -= v * x[k]
			}
			x[j] = s / data[j*n+j]
		}
	}
}

// Inverse returns A^{-1} where A = L L'. The result is symmetrized to remove
// round-off asymmetry. It allocates; steady-state loops use InverseInto.
func (c *Cholesky) Inverse() *Matrix {
	inv := c.Solve(Identity(c.n))
	return inv.Symmetrize()
}

// InverseInto writes A⁻¹ = L⁻ᵀL⁻¹ into dst and returns dst — the
// DPOTRI-style path: invert the triangular factor, then form the product of
// the halves, touching only the lower triangle and mirroring it. Each phase
// costs ~n³/3 flops, so the whole inverse is ~n³/1.5 — against the 2n³ of
// substituting n identity right-hand sides through SolveTInto — and the
// result is exactly symmetric by construction (the mirror copies bits).
// dst must be n×n; the L⁻¹ scratch is allocated on first use and reused.
func (c *Cholesky) InverseInto(dst *Matrix) *Matrix {
	n := c.n
	if dst.Rows != n || dst.Cols != n {
		panic(fmt.Sprintf("matrix: InverseInto dst %dx%d, want %dx%d", dst.Rows, dst.Cols, n, n))
	}
	t := kernelClock()
	defer kernelDone(t, mInverseCalls, mInverseNs)
	if c.inv == nil {
		c.inv = New(n, n)
	}
	// Phase 1: W = L⁻¹, stored transposed — row j of c.inv holds column j of
	// L⁻¹, so the forward substitution below and the dots of phase 2 both
	// stream contiguously. Columns are independent forward solves of
	// L x = e_j; column j only has entries at indices ≥ j and costs
	// ~(n−j)²/2 flops, hence the weighted partition.
	if useParallel(n, n*n*n/3) {
		parallelRangeWeighted(n, func(j int) float64 { d := float64(n - j); return d * d },
			func(lo, hi int) { c.triInverseCols(lo, hi) })
	} else {
		c.triInverseCols(0, n)
	}
	// Phase 2: A⁻¹[i][j] = Σ_{k≥i} W[k][i]·W[k][j] for i ≥ j — a dot of the
	// tails of w's rows i and j, both starting at index i. Row i of the
	// lower triangle carries i+1 dots of length n−i.
	if useParallel(n, n*n*n/3) {
		parallelRangeWeighted(n, func(i int) float64 { return float64(i+1) * float64(n-i) },
			func(lo, hi int) { c.invProductRows(dst, lo, hi) })
	} else {
		c.invProductRows(dst, 0, n)
	}
	mirrorLower(dst)
	return dst
}

// triInverseCols fills rows [jlo, jhi) of the transposed triangular inverse
// scratch: row j gets column j of L⁻¹. Columns advance four at a time (the
// TRTRI register blocking): each row of L is loaded once and feeds four
// independent accumulator chains, where the scalar form reloads it per
// column and serializes on a single chain's FP-add latency. Every element
// still accumulates its own chain over t ascending with one accumulator —
// first the ragged head inside the column block, then the shared tail — so
// the bits match the scalar form (and any partition) exactly.
func (c *Cholesky) triInverseCols(jlo, jhi int) {
	n, data := c.n, c.l.Data
	j := jlo
	for ; j+4 <= jhi; j += 4 {
		w0 := c.inv.Data[j*n : (j+1)*n]
		w1 := c.inv.Data[(j+1)*n : (j+2)*n]
		w2 := c.inv.Data[(j+2)*n : (j+3)*n]
		w3 := c.inv.Data[(j+3)*n : (j+4)*n]
		// The 4×4 head (rows j..j+3) runs the scalar recurrence: each
		// column's entries above row j+4 only involve the block itself.
		c.triInverseColsScalar(j, j+4, j+4)
		for i := j + 4; i < n; i++ {
			lrow := data[i*n:]
			// Ragged heads: column j+c's chain starts at t = j+c. The
			// per-term statements keep each chain sequential in t (Go never
			// reassociates float adds), matching the scalar form's order.
			var s0, s1, s2, s3 float64
			s0 -= lrow[j] * w0[j]
			s0 -= lrow[j+1] * w0[j+1]
			s1 -= lrow[j+1] * w1[j+1]
			s0 -= lrow[j+2] * w0[j+2]
			s1 -= lrow[j+2] * w1[j+2]
			s2 -= lrow[j+2] * w2[j+2]
			s0 -= lrow[j+3] * w0[j+3]
			s1 -= lrow[j+3] * w1[j+3]
			s2 -= lrow[j+3] * w2[j+3]
			s3 -= lrow[j+3] * w3[j+3]
			// Shared tail: one load of L[i][t] drives all four chains.
			for t := j + 4; t < i; t++ {
				lv := lrow[t]
				s0 -= lv * w0[t]
				s1 -= lv * w1[t]
				s2 -= lv * w2[t]
				s3 -= lv * w3[t]
			}
			d := data[i*n+i]
			w0[i] = s0 / d
			w1[i] = s1 / d
			w2[i] = s2 / d
			w3[i] = s3 / d
		}
	}
	c.triInverseColsScalar(j, jhi, n)
}

// triInverseColsScalar is the unblocked recurrence over columns [jlo, jhi),
// filling rows up to (exclusive) ihi — the reference order the blocked form
// reproduces bit for bit, used for the 4×4 block heads (ihi = block end) and
// the ragged last columns (ihi = n).
func (c *Cholesky) triInverseColsScalar(jlo, jhi, ihi int) {
	n, data := c.n, c.l.Data
	for j := jlo; j < jhi; j++ {
		wrow := c.inv.Data[j*n : (j+1)*n]
		wrow[j] = 1 / data[j*n+j]
		for i := j + 1; i < ihi; i++ {
			lrow := data[i*n+j : i*n+i]
			s := 0.0
			for t, v := range lrow {
				s -= v * wrow[j+t]
			}
			wrow[i] = s / data[i*n+i]
		}
	}
}

// invProductRows fills rows [ilo, ihi) of dst's lower triangle with the
// tail dots of phase 2 — the LAUUM product, blocked four columns at a time.
// Wider 4×4 row/column blocks were measured ~2× slower here: their sixteen
// accumulator chains exceed the register file and spill, while four chains
// per row already amortize the wi loads and hide the FP-add latency.
func (c *Cholesky) invProductRows(dst *Matrix, ilo, ihi int) {
	for i := ilo; i < ihi; i++ {
		c.invProductRowTail(dst, i, 0)
	}
}

// invProductRowTail fills columns [j, i] of dst's row i: four-chain column
// blocks (as in the SYRK kernel) with a scalar remainder; every chain
// reduces t ascending in a single accumulator, so the bits never depend on
// the blocking or the partition.
func (c *Cholesky) invProductRowTail(dst *Matrix, i, j int) {
	n := c.n
	wi := c.inv.Data[i*n+i : (i+1)*n]
	drow := dst.Data[i*n : i*n+i+1]
	for ; j+4 <= i+1; j += 4 {
		w0 := c.inv.Data[j*n+i : (j+1)*n][:len(wi)]
		w1 := c.inv.Data[(j+1)*n+i : (j+2)*n][:len(wi)]
		w2 := c.inv.Data[(j+2)*n+i : (j+3)*n][:len(wi)]
		w3 := c.inv.Data[(j+3)*n+i : (j+4)*n][:len(wi)]
		var s0, s1, s2, s3 float64
		for t, v := range wi {
			s0 += v * w0[t]
			s1 += v * w1[t]
			s2 += v * w2[t]
			s3 += v * w3[t]
		}
		drow[j], drow[j+1], drow[j+2], drow[j+3] = s0, s1, s2, s3
	}
	for ; j <= i; j++ {
		drow[j] = dotUnchecked(wi, c.inv.Data[j*n+i:(j+1)*n])
	}
}

// LogDet returns log(det(A)) = 2 * sum(log(diag(L))).
func (c *Cholesky) LogDet() float64 {
	s := 0.0
	for i := 0; i < c.n; i++ {
		s += math.Log(c.l.Data[i*c.n+i])
	}
	return 2 * s
}

// Det returns det(A). It can overflow to +Inf for large well-scaled systems;
// prefer LogDet for likelihood computations.
func (c *Cholesky) Det() float64 {
	return math.Exp(c.LogDet())
}

// MulLVec returns L * x; useful for sampling from N(mu, A) via mu + L*z.
func (c *Cholesky) MulLVec(x []float64) []float64 {
	if len(x) != c.n {
		panic(fmt.Sprintf("matrix: MulLVec length %d != size %d", len(x), c.n))
	}
	n, data := c.n, c.l.Data
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		row := data[i*n : i*n+i+1]
		s := 0.0
		for k, v := range row {
			s += v * x[k]
		}
		out[i] = s
	}
	return out
}
