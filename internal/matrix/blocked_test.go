package matrix

import (
	"math"
	"math/rand"
	"testing"
)

// blockedSizes straddles every kernel threshold: the degenerate n=1, the
// 4-row register-block remainder (2, 3), both sides of the Cholesky panel
// width (63, 64, 65), a multiple-of-tile size (128), its neighbors (96,
// 127), one past the GEMM column tile (160), and a size past three panels of
// the factorization (200).
var blockedSizes = []int{1, 2, 3, 63, 64, 65, 96, 127, 128, 160, 200}

const kernelTol = 1e-10

// refMul is the textbook O(n³) triple loop the tiled GEMM must match.
func refMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			s := 0.0
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// refCholesky is the unblocked column-by-column factorization.
func refCholesky(a *Matrix) (*Matrix, error) {
	n := a.Rows
	l := New(n, n)
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		for k := 0; k < j; k++ {
			d -= l.At(j, k) * l.At(j, k)
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, ErrNotPositiveDefinite
		}
		d = math.Sqrt(d)
		l.Set(j, j, d)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			l.Set(i, j, s/d)
		}
	}
	return l, nil
}

func maxAbsDiff(a, b *Matrix) float64 {
	d := 0.0
	for i, v := range a.Data {
		if x := math.Abs(v - b.Data[i]); x > d {
			d = x
		}
	}
	return d
}

func TestBlockedGEMMMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for _, n := range blockedSizes {
		// Rectangular shapes exercise the row-block and column-tile
		// remainders independently.
		shapes := [][3]int{{n, n, n}, {n, n + 3, n + 1}, {3, n, 5}}
		for _, sh := range shapes {
			a := randomMatrix(rng, sh[0], sh[1])
			b := randomMatrix(rng, sh[1], sh[2])
			got := a.Mul(b)
			want := refMul(a, b)
			if d := maxAbsDiff(got, want); d > kernelTol {
				t.Errorf("Mul %dx%d * %dx%d: max diff %g", sh[0], sh[1], sh[1], sh[2], d)
			}
		}
	}
}

func TestMulTransBMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	for _, n := range blockedSizes {
		a := randomMatrix(rng, n, n+2)
		b := randomMatrix(rng, n+1, n+2)
		got := MulTransBInto(New(n, n+1), a, b)
		want := refMul(a, b.Transpose())
		if d := maxAbsDiff(got, want); d > kernelTol {
			t.Errorf("MulTransBInto n=%d: max diff %g", n, d)
		}
	}
}

func TestBlockedCholeskyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for _, n := range blockedSizes {
		a := randomSPD(rng, n)
		ch, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		want, err := refCholesky(a)
		if err != nil {
			t.Fatalf("n=%d reference: %v", n, err)
		}
		if d := maxAbsDiff(ch.L(), want); d > kernelTol {
			t.Errorf("Cholesky n=%d: max factor diff %g", n, d)
		}
		// L Lᵀ must reproduce the input.
		l := ch.L()
		if d := maxAbsDiff(MulTransBInto(New(n, n), l, l), a); d > 1e-8 {
			t.Errorf("Cholesky n=%d: L Lᵀ reconstruction off by %g", n, d)
		}
	}
}

func TestSolveTIntoMatchesVectorSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	for _, n := range blockedSizes {
		a := randomSPD(rng, n)
		ch, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		rhsRows := 7
		b := randomMatrix(rng, rhsRows, n)
		got := ch.SolveTInto(New(rhsRows, n), b)
		for i := 0; i < rhsRows; i++ {
			want := ch.SolveVec(b.Row(i))
			for j, w := range want {
				if math.Abs(got.At(i, j)-w) > kernelTol {
					t.Fatalf("SolveTInto n=%d row %d col %d: %g vs %g", n, i, j, got.At(i, j), w)
				}
			}
		}
		// Aliased in-place solve must agree with the out-of-place one.
		inPlace := b.Clone()
		ch.SolveTInto(inPlace, inPlace)
		if d := maxAbsDiff(inPlace, got); d != 0 {
			t.Errorf("SolveTInto n=%d: aliased solve differs by %g", n, d)
		}
	}
}

func TestSolveMatchesColumnSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	for _, n := range []int{1, 5, 64, 65, 128} {
		a := randomSPD(rng, n)
		ch, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		b := randomMatrix(rng, n, 6)
		x := ch.Solve(b)
		col := make([]float64, n)
		for c := 0; c < 6; c++ {
			for r := range col {
				col[r] = b.At(r, c)
			}
			want := ch.SolveVec(col)
			for r, w := range want {
				if math.Abs(x.At(r, c)-w) > kernelTol {
					t.Fatalf("Solve n=%d col %d row %d: %g vs %g", n, c, r, x.At(r, c), w)
				}
			}
		}
	}
}

// TestFactorizeWorkspaceReuse runs several factorizations through one
// workspace and checks each matches a fresh factorization — the EM loop's
// steady-state pattern.
func TestFactorizeWorkspaceReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(106))
	ws := NewCholeskyWorkspace(65)
	for trial := 0; trial < 4; trial++ {
		a := randomSPD(rng, 65)
		if err := ws.Factorize(a); err != nil {
			t.Fatal(err)
		}
		fresh, err := NewCholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(ws.L(), fresh.L()); d != 0 {
			t.Fatalf("trial %d: workspace factor differs from fresh by %g", trial, d)
		}
	}
}

// TestFactorizeJitterRecovers checks the jitter ladder still rescues a
// singular matrix when run through a reused workspace.
func TestFactorizeJitterRecovers(t *testing.T) {
	n := 66
	a := New(n, n) // rank-deficient: all zeros
	ws := NewCholeskyWorkspace(n)
	applied, err := ws.FactorizeJitter(a, 1e-10, 14)
	if err != nil {
		t.Fatal(err)
	}
	if applied <= 0 {
		t.Fatalf("expected positive jitter, got %g", applied)
	}
}
