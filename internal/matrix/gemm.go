package matrix

import (
	"fmt"
	"sync"
)

// GEMM kernels. The inner kernel always runs with the right operand stored
// transposed, so both streams are contiguous: dst[i][j] is a dot product of
// row i of A and row j of Bᵀ. A 3×2 register block amortizes the loads —
// six multiply-adds per five element reads — and a column tile keeps
// the active slice of Bᵀ resident in L2 while a block of A rows sweeps it.
// Rows are fanned out across goroutines (parallelize); each element's
// reduction order is fixed by its indices, so results are bit-identical for
// every worker count.

// gemmColTile is the number of Bᵀ rows (output columns) per cache tile:
// 128 rows × 8 KB keeps the tile ~1 MB, comfortably inside L2.
const gemmColTile = 128

// packPool recycles the transposed copy of B that MulInto builds, so
// steady-state callers (the EM loop) do not re-allocate an n×n buffer per
// multiplication.
var packPool sync.Pool

func getPacked(rows, cols int) *Matrix {
	if v := packPool.Get(); v != nil {
		m := v.(*Matrix)
		if cap(m.Data) >= rows*cols {
			m.Rows, m.Cols = rows, cols
			m.Data = m.Data[:rows*cols]
			return m
		}
	}
	return New(rows, cols)
}

func putPacked(m *Matrix) { packPool.Put(m) }

// transposeInto writes srcᵀ into dst (dst must be src.Cols×src.Rows).
func transposeInto(dst, src *Matrix) {
	for r := 0; r < src.Rows; r++ {
		row := src.Data[r*src.Cols : (r+1)*src.Cols]
		for c, v := range row {
			dst.Data[c*dst.Cols+r] = v
		}
	}
}

// Mul returns m * other.
func (m *Matrix) Mul(other *Matrix) *Matrix {
	out := New(m.Rows, other.Cols)
	return MulInto(out, m, other)
}

// MulInto computes dst = a * b and returns dst. dst must not alias a or b;
// its shape must be a.Rows × b.Cols.
func MulInto(dst, a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("matrix: MulInto shape mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("matrix: MulInto dst %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	if dst == a || dst == b {
		panic("matrix: MulInto dst must not alias an operand")
	}
	bt := getPacked(b.Cols, b.Rows)
	transposeInto(bt, b)
	mulTransB(dst, a, bt)
	putPacked(bt)
	return dst
}

// MulTransBInto computes dst = a * bᵀ and returns dst, reading b directly in
// its row-major storage (no transposed copy is made — this is the natural
// layout for the inner kernel). a is r×k, b is p×k, dst is r×p. dst must not
// alias a or b.
func MulTransBInto(dst, a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("matrix: MulTransBInto inner dim mismatch %dx%d * (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("matrix: MulTransBInto dst %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Rows))
	}
	if dst == a || dst == b {
		panic("matrix: MulTransBInto dst must not alias an operand")
	}
	mulTransB(dst, a, b)
	return dst
}

// mulTransB computes dst = a * btᵀ with bt already in transposed layout.
// Every GEMM entry point funnels through here, so this is where the kernel
// call/nanosecond metrics are recorded.
func mulTransB(dst, a, bt *Matrix) {
	t := kernelClock()
	defer kernelDone(t, mGemmCalls, mGemmNs)
	mulrows, p, k := a.Rows, bt.Rows, a.Cols
	if useParallel(mulrows, mulrows*p*k) {
		parallelRange(mulrows, func(lo, hi int) {
			mulTransBRange(dst, a, bt, lo, hi)
		})
		return
	}
	mulTransBRange(dst, a, bt, 0, mulrows)
}

// mulTransBRange fills rows [lo, hi) of dst. Within a column tile it walks
// the A rows in blocks of three and the Bᵀ rows in pairs: a 3×2 register
// block, the largest whose accumulators, products and Bᵀ values stay in
// amd64's XMM registers (DESIGN.md §7), so each pair of Bᵀ elements loaded
// from L2 feeds six output elements without spilling. The last one or two
// rows run four columns per pass, one chain each.
func mulTransBRange(dst, a, bt *Matrix, lo, hi int) {
	k, p := a.Cols, bt.Rows
	for jb := 0; jb < p; jb += gemmColTile {
		je := jb + gemmColTile
		if je > p {
			je = p
		}
		i := lo
		for ; i+3 <= hi; i += 3 {
			a0 := a.Data[i*k : (i+1)*k]
			a1 := a.Data[(i+1)*k : (i+2)*k][:len(a0)]
			a2 := a.Data[(i+2)*k : (i+3)*k][:len(a0)]
			d0 := dst.Data[i*p : (i+1)*p]
			d1 := dst.Data[(i+1)*p : (i+2)*p]
			d2 := dst.Data[(i+2)*p : (i+3)*p]
			j := jb
			for ; j+2 <= je; j += 2 {
				// Re-slice every stream to len(a0) so the compiler can prove
				// the indexed loads in-bounds and drop the checks.
				b0 := bt.Data[j*k : (j+1)*k][:len(a0)]
				b1 := bt.Data[(j+1)*k : (j+2)*k][:len(a0)]
				var c00, c01, c10, c11, c20, c21 float64
				for t, av0 := range a0 {
					bv0, bv1 := b0[t], b1[t]
					c00 += av0 * bv0
					c01 += av0 * bv1
					av1 := a1[t]
					c10 += av1 * bv0
					c11 += av1 * bv1
					av2 := a2[t]
					c20 += av2 * bv0
					c21 += av2 * bv1
				}
				d0[j], d0[j+1] = c00, c01
				d1[j], d1[j+1] = c10, c11
				d2[j], d2[j+1] = c20, c21
			}
			if j < je {
				b0 := bt.Data[j*k : (j+1)*k][:len(a0)]
				var c0, c1, c2 float64
				for t, bv := range b0 {
					c0 += a0[t] * bv
					c1 += a1[t] * bv
					c2 += a2[t] * bv
				}
				d0[j], d1[j], d2[j] = c0, c1, c2
			}
		}
		for ; i < hi; i++ {
			arow := a.Data[i*k : (i+1)*k]
			drow := dst.Data[i*p : (i+1)*p]
			j := jb
			for ; j+4 <= je; j += 4 {
				b0 := bt.Data[j*k : (j+1)*k][:len(arow)]
				b1 := bt.Data[(j+1)*k : (j+2)*k][:len(arow)]
				b2 := bt.Data[(j+2)*k : (j+3)*k][:len(arow)]
				b3 := bt.Data[(j+3)*k : (j+4)*k][:len(arow)]
				var c0, c1, c2, c3 float64
				for t, av := range arow {
					c0 += av * b0[t]
					c1 += av * b1[t]
					c2 += av * b2[t]
					c3 += av * b3[t]
				}
				drow[j], drow[j+1], drow[j+2], drow[j+3] = c0, c1, c2, c3
			}
			for ; j < je; j++ {
				drow[j] = dotUnchecked(arow, bt.Data[j*k:(j+1)*k])
			}
		}
	}
}

// dotUnchecked is Dot without the length check, for kernel interiors where
// lengths match by construction. It must keep a single accumulator walking t
// ascending: the register-blocked kernels use the same order, so an element
// lands on identical bits whether a partition put it on the blocked or
// remainder path.
func dotUnchecked(x, y []float64) float64 {
	y = y[:len(x)]
	s := 0.0
	for i, v := range x {
		s += v * y[i]
	}
	return s
}
