package matrix

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCholeskyKnown(t *testing.T) {
	// A = [[4,2],[2,3]] has L = [[2,0],[1,sqrt(2)]].
	a := NewFromRows([][]float64{{4, 2}, {2, 3}})
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	l := ch.L()
	if math.Abs(l.At(0, 0)-2) > 1e-12 || math.Abs(l.At(1, 0)-1) > 1e-12 ||
		math.Abs(l.At(1, 1)-math.Sqrt(2)) > 1e-12 || l.At(0, 1) != 0 {
		t.Fatalf("L = %v", l)
	}
}

func TestCholeskyReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, n := range []int{1, 2, 5, 17, 64} {
		a := randomSPD(rng, n)
		ch, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		l := ch.L()
		back := l.Mul(l.Transpose())
		if !back.Equal(a, 1e-8*float64(n)) {
			t.Fatalf("n=%d: LL' != A (diff %g)", n, back.MaxAbsDiff(a))
		}
	}
}

func TestCholeskyInputUnmodified(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randomSPD(rng, 8)
	orig := a.Clone()
	if _, err := NewCholesky(a); err != nil {
		t.Fatal(err)
	}
	if !a.Equal(orig, 0) {
		t.Fatal("NewCholesky must not modify its input")
	}
}

func TestCholeskyNotPD(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := NewCholesky(a); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("want ErrNotPositiveDefinite, got %v", err)
	}
}

func TestCholeskyZeroMatrix(t *testing.T) {
	if _, err := NewCholesky(New(3, 3)); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("zero matrix should not factor, got %v", err)
	}
}

func TestCholeskySolveVec(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randomSPD(rng, 12)
	xTrue := make([]float64, 12)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := a.MulVec(xTrue)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	x := ch.SolveVec(b)
	if MaxAbsDiffVec(x, xTrue) > 1e-8 {
		t.Fatalf("SolveVec error %g", MaxAbsDiffVec(x, xTrue))
	}
}

func TestCholeskySolveMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randomSPD(rng, 10)
	xTrue := randomMatrix(rng, 10, 4)
	b := a.Mul(xTrue)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	x := ch.Solve(b)
	if !x.Equal(xTrue, 1e-8) {
		t.Fatalf("Solve error %g", x.MaxAbsDiff(xTrue))
	}
}

// TestCholeskySolveWide solves as many right-hand sides as the system has
// rows, at a size past two factorization panels.
func TestCholeskySolveWide(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	n := 150
	a := randomSPD(rng, n)
	xTrue := randomMatrix(rng, n, n)
	b := a.Mul(xTrue)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	x := ch.Solve(b)
	if !x.Equal(xTrue, 1e-6) {
		t.Fatalf("wide Solve error %g", x.MaxAbsDiff(xTrue))
	}
}

func TestCholeskyInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	a := randomSPD(rng, 20)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	inv := ch.Inverse()
	if !a.Mul(inv).Equal(Identity(20), 1e-8) {
		t.Fatal("A * A^{-1} != I")
	}
	if !inv.IsSymmetric(0) {
		t.Fatal("Inverse must be exactly symmetric after symmetrization")
	}
}

func TestCholeskyInverseProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + int(r.Int31n(12))
		a := randomSPD(r, n)
		ch, err := NewCholesky(a)
		if err != nil {
			return false
		}
		return a.Mul(ch.Inverse()).Equal(Identity(n), 1e-7)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCholeskyLogDet(t *testing.T) {
	d := Diag([]float64{2, 3, 4})
	ch, err := NewCholesky(d)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Log(24)
	if math.Abs(ch.LogDet()-want) > 1e-12 {
		t.Fatalf("LogDet = %g, want %g", ch.LogDet(), want)
	}
}

func TestCholeskyMulLVec(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	a := randomSPD(rng, 9)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 9)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	got := ch.MulLVec(x)
	want := ch.L().MulVec(x)
	if MaxAbsDiffVec(got, want) > 1e-12 {
		t.Fatal("MulLVec disagrees with explicit L*x")
	}
}

func TestCholeskyJitterRecovers(t *testing.T) {
	// Singular PSD matrix: rank 1.
	a := New(3, 3)
	a.AddScaledOuter(1, []float64{1, 1, 1}, []float64{1, 1, 1})
	ch, jit, err := NewCholeskyJitter(a, 1e-8, 12)
	if err != nil {
		t.Fatal(err)
	}
	if jit <= 0 {
		t.Fatal("expected nonzero jitter for singular input")
	}
	if ch.Size() != 3 {
		t.Fatalf("Size = %d", ch.Size())
	}
}

func TestCholeskyJitterNoJitterNeeded(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := randomSPD(rng, 5)
	_, jit, err := NewCholeskyJitter(a, 1e-8, 5)
	if err != nil {
		t.Fatal(err)
	}
	if jit != 0 {
		t.Fatalf("well-conditioned SPD should need no jitter, got %g", jit)
	}
}

func TestCholeskyJitterGivesUp(t *testing.T) {
	// Strongly indefinite matrix cannot be fixed by tiny jitter in few tries.
	a := NewFromRows([][]float64{{0, 1e12}, {1e12, 0}})
	if _, _, err := NewCholeskyJitter(a, 1e-12, 2); err == nil {
		t.Fatal("expected failure for indefinite matrix with tiny jitter budget")
	}
}
