package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Bit-identity tests for the register-blocked kernels. Each blocked kernel
// keeps every output element on its own single accumulator, reduced in
// ascending order — the order of the one-element reference loops below — so
// the comparisons are Float64bits-equal, not within a tolerance. The shapes
// reach every row and column remainder of the register blocks (0–9), the
// frame sizes the EM fits run at (24, 44) and sizes past the blocking
// thresholds (65, and the GEMM column tile).
var bitSizes = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 24, 44, 65}

// requireBits fails unless got and want hold the same bits everywhere.
func requireBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i, v := range want {
		if math.Float64bits(got[i]) != math.Float64bits(v) {
			t.Fatalf("%s: element %d = %v, reference %v", what, i, got[i], v)
		}
	}
}

// TestGEMMBitIdentical holds MulTransBInto and MulInto to a per-element
// dotUnchecked loop.
func TestGEMMBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	cols := append(append([]int(nil), bitSizes...), gemmColTile+5)
	for _, m := range bitSizes {
		for _, p := range cols {
			for _, k := range []int{0, 1, 3, 24, 65} {
				a := randomMatrix(rng, m, k)
				bt := randomMatrix(rng, p, k)
				want := New(m, p)
				for i := 0; i < m; i++ {
					for j := 0; j < p; j++ {
						want.Data[i*p+j] = dotUnchecked(a.RowView(i), bt.RowView(j))
					}
				}
				name := fmt.Sprintf("(%dx%d)·(%dx%d)ᵀ", m, k, p, k)
				requireBits(t, "MulTransBInto "+name, MulTransBInto(New(m, p), a, bt).Data, want.Data)
				requireBits(t, "MulInto "+name, MulInto(New(m, p), a, bt.Transpose()).Data, want.Data)
			}
		}
	}
}

// TestForwardSolveTBitIdentical holds ForwardSolveTInto to one-row forward
// substitution.
func TestForwardSolveTBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for _, n := range bitSizes {
		ch, err := NewCholesky(randomSPD(rng, n))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		l := ch.l.Data
		for _, rows := range bitSizes {
			b := randomMatrix(rng, rows, n)
			want := b.Clone()
			for i := 0; i < rows; i++ {
				x := want.RowView(i)
				for j := 0; j < n; j++ {
					s := x[j]
					for k, v := range l[j*n : j*n+j] {
						s -= v * x[k]
					}
					x[j] = s / l[j*n+j]
				}
			}
			name := fmt.Sprintf("ForwardSolveTInto n=%d rows=%d", n, rows)
			requireBits(t, name, ch.ForwardSolveTInto(New(rows, n), b).Data, want.Data)
			requireBits(t, name+" in place", ch.ForwardSolveTInto(b, b).Data, want.Data)
		}
	}
}

// TestCholeskyBitIdentical holds the blocked factorization to the same
// algorithm with every trailing row updated by cholTrailingRowScalar. Sizes
// past cholTile leave 1–9 trailing rows after the first panel (65–73), and
// 137 runs two trailing updates.
func TestCholeskyBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(203))
	sizes := append([]int(nil), bitSizes...)
	for n := cholTile + 2; n <= cholTile+9; n++ {
		sizes = append(sizes, n)
	}
	sizes = append(sizes, 2*cholTile+9)
	for _, n := range sizes {
		a := randomSPD(rng, n)
		got, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		want := a.Clone()
		data := want.Data
		for j0 := 0; j0 < n; j0 += cholTile {
			jb := min(cholTile, n-j0)
			if err := cholFactorDiag(data, n, j0, jb); err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			cholPanelSolve(data, n, j0, jb)
			for i := j0 + jb; i < n; i++ {
				cholTrailingRowScalar(data, n, j0, jb, i, j0+jb)
			}
		}
		for r := 0; r < n; r++ {
			for c := r + 1; c < n; c++ {
				data[r*n+c] = 0
			}
		}
		requireBits(t, fmt.Sprintf("Cholesky n=%d", n), got.l.Data, data)
	}
}
