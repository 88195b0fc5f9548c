package matrix

import "fmt"

// Symmetric rank-k kernels. A Gram product A·Aᵀ is symmetric by definition
// (and so is A·Bᵀ whenever the caller knows it to be, e.g. P·G·Pᵀ with G
// symmetric), so these kernels compute only the lower triangle — one dot
// product per element (i, j≤i), half the flops of a general GEMM — and
// mirror it into the upper triangle. The mirror copies bits, so the result
// is exactly symmetric by construction; no Symmetrize averaging is needed
// afterwards.

// SyrkInto computes dst = α·a·aᵀ and returns dst. a is m×k, dst is m×m and
// must not alias a.
func SyrkInto(dst *Matrix, alpha float64, a *Matrix) *Matrix {
	return syrk(dst, alpha, a, a, false)
}

// SyrkAccumInto accumulates dst += α·a·aᵀ and returns dst. dst must be
// exactly symmetric on entry: only its lower triangle accumulates, and the
// mirror then overwrites the upper triangle with the lower. It replaces a
// sequence of m rank-1 AddScaledOuter calls with one batched rank-m update.
func SyrkAccumInto(dst *Matrix, alpha float64, a *Matrix) *Matrix {
	return syrk(dst, alpha, a, a, true)
}

// SymmetricProductInto computes dst = α·a·bᵀ for a product the caller knows
// to be symmetric in exact arithmetic, and returns dst: it evaluates the
// lower triangle only (element (i, j≤i) is the dot of row i of a with row j
// of b) and mirrors it, so the result is exactly symmetric at half a GEMM's
// flops. a and b are m×k; dst is m×m and must alias neither.
func SymmetricProductInto(dst *Matrix, alpha float64, a, b *Matrix) *Matrix {
	if b.Rows != a.Rows || b.Cols != a.Cols {
		panic(fmt.Sprintf("matrix: SymmetricProductInto operands %dx%d and %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	return syrk(dst, alpha, a, b, false)
}

// syrk evaluates the lower triangle of α·a·bᵀ (b is a for the Gram kernels)
// from rows of a (element row) and b (element column), then mirrors it.
// Columns advance in blocks of four — four independent accumulator chains
// hide the FP-add latency a single running dot would serialize on — with a
// scalar remainder up to the diagonal. Both paths accumulate t ascending
// into a private accumulator, so an element's bits never depend on which
// path computed it.
func syrk(dst *Matrix, alpha float64, a, b *Matrix, accum bool) *Matrix {
	m, k := a.Rows, a.Cols
	if dst.Rows != m || dst.Cols != m {
		panic(fmt.Sprintf("matrix: Syrk dst %dx%d, want %dx%d", dst.Rows, dst.Cols, m, m))
	}
	if dst == a || dst == b {
		panic("matrix: Syrk dst must not alias the operand")
	}
	t := kernelClock()
	defer kernelDone(t, mSyrkCalls, mSyrkNs)
	for i := 0; i < m; i++ {
		ai := a.Data[i*k : (i+1)*k]
		drow := dst.Data[i*m : i*m+i+1]
		j := 0
		for ; j+4 <= i+1; j += 4 {
			b0 := b.Data[j*k : (j+1)*k][:len(ai)]
			b1 := b.Data[(j+1)*k : (j+2)*k][:len(ai)]
			b2 := b.Data[(j+2)*k : (j+3)*k][:len(ai)]
			b3 := b.Data[(j+3)*k : (j+4)*k][:len(ai)]
			var s0, s1, s2, s3 float64
			for t, v := range ai {
				s0 += v * b0[t]
				s1 += v * b1[t]
				s2 += v * b2[t]
				s3 += v * b3[t]
			}
			if accum {
				drow[j] += alpha * s0
				drow[j+1] += alpha * s1
				drow[j+2] += alpha * s2
				drow[j+3] += alpha * s3
			} else {
				drow[j] = alpha * s0
				drow[j+1] = alpha * s1
				drow[j+2] = alpha * s2
				drow[j+3] = alpha * s3
			}
		}
		for ; j <= i; j++ {
			v := alpha * dotUnchecked(ai, b.Data[j*k:(j+1)*k])
			if accum {
				drow[j] += v
			} else {
				drow[j] = v
			}
		}
	}
	mirrorLower(dst)
	return dst
}

// mirrorTile is mirrorLower's block edge: a 32×32 tile's column-wise writes
// land on 32 rows, so they stay resident in cache (and the TLB) instead of
// striding a full row per element across the whole matrix.
const mirrorTile = 32

// mirrorLower copies the strictly lower triangle into the upper one, making
// the matrix exactly symmetric bit for bit. It walks the lower triangle in
// square tiles, each transposed into its mirror tile.
func mirrorLower(m *Matrix) {
	n := m.Rows
	for r0 := 0; r0 < n; r0 += mirrorTile {
		r1 := min(r0+mirrorTile, n)
		for c0 := 0; c0 <= r0; c0 += mirrorTile {
			for r := max(r0, c0+1); r < r1; r++ {
				row := m.Data[r*n : r*n+min(c0+mirrorTile, r)]
				for c := c0; c < len(row); c++ {
					m.Data[c*n+r] = row[c]
				}
			}
		}
	}
}
