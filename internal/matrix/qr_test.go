package matrix

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestQRSolveExact(t *testing.T) {
	// Square, full-rank: least squares equals exact solve.
	a := NewFromRows([][]float64{{2, 1}, {1, 3}})
	b := []float64{5, 10}
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Solve: 2x+y=5, x+3y=10 -> x=1, y=3.
	if math.Abs(x[0]-1) > 1e-10 || math.Abs(x[1]-3) > 1e-10 {
		t.Fatalf("x = %v", x)
	}
}

func TestQRSolveOverdetermined(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	m, n := 50, 6
	a := randomMatrix(rng, m, n)
	coef := make([]float64, n)
	for i := range coef {
		coef[i] = rng.NormFloat64()
	}
	b := a.MulVec(coef)
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d := Norm2(SubVec(x, coef)); d > 1e-8 {
		t.Fatalf("recovered coefficients off by %g", d)
	}
}

func TestQRResidualOrthogonality(t *testing.T) {
	// The least-squares residual must be orthogonal to the column space.
	rng := rand.New(rand.NewSource(21))
	m, n := 30, 4
	a := randomMatrix(rng, m, n)
	b := make([]float64, m)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	res := SubVec(b, a.MulVec(x))
	proj := a.Transpose().MulVec(res)
	if Norm2(proj) > 1e-8 {
		t.Fatalf("A'(b - Ax) = %v, not ~0", proj)
	}
}

func TestQRRankDeficient(t *testing.T) {
	// Duplicate columns: rank 1 design matrix.
	a := NewFromRows([][]float64{{1, 1}, {2, 2}, {3, 3}})
	_, err := LeastSquares(a, []float64{1, 2, 3})
	if !errors.Is(err, ErrRankDeficient) {
		t.Fatalf("want ErrRankDeficient, got %v", err)
	}
}

func TestQRRankDetection(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	a := randomMatrix(rng, 20, 5)
	// Make column 4 a copy of column 0.
	for r := 0; r < 20; r++ {
		a.Set(r, 4, a.At(r, 0))
	}
	qr := NewQR(a)
	if rank := qr.Rank(1e-10); rank != 4 {
		t.Fatalf("Rank = %d, want 4", rank)
	}
}

func TestQRFullRankDetection(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a := randomMatrix(rng, 25, 7)
	if rank := NewQR(a).Rank(1e-10); rank != 7 {
		t.Fatalf("Rank = %d, want 7", rank)
	}
}

func TestQRZeroMatrixRank(t *testing.T) {
	if rank := NewQR(New(4, 3)).Rank(1e-10); rank != 0 {
		t.Fatalf("zero matrix rank = %d", rank)
	}
}

func TestQRUnderdeterminedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for rows < cols")
		}
	}()
	NewQR(New(2, 3))
}

func TestQRInputUnmodified(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	a := randomMatrix(rng, 10, 3)
	orig := a.Clone()
	NewQR(a)
	if !a.Equal(orig, 0) {
		t.Fatal("NewQR must not modify its input")
	}
}

// TestQRMinimizesProperty verifies the least-squares optimality: no random
// perturbation of the solution achieves a smaller residual.
func TestQRMinimizesProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, n := 15, 3
		a := randomMatrix(r, m, n)
		b := make([]float64, m)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		x, err := LeastSquares(a, b)
		if err != nil {
			return true // rank-deficient draw; nothing to verify
		}
		best := Norm2(SubVec(b, a.MulVec(x)))
		for trial := 0; trial < 10; trial++ {
			pert := CloneVec(x)
			for i := range pert {
				pert[i] += 0.1 * r.NormFloat64()
			}
			if Norm2(SubVec(b, a.MulVec(pert))) < best-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestQRPolynomialFit(t *testing.T) {
	// Fit y = 1 + 2t + 3t^2 exactly through a Vandermonde design.
	ts := []float64{-2, -1, 0, 1, 2, 3}
	rows := make([][]float64, len(ts))
	b := make([]float64, len(ts))
	for i, v := range ts {
		rows[i] = []float64{1, v, v * v}
		b[i] = 1 + 2*v + 3*v*v
	}
	x, err := LeastSquares(NewFromRows(rows), b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3}
	if Norm2(SubVec(x, want)) > 1e-9 {
		t.Fatalf("coefficients = %v", x)
	}
}
