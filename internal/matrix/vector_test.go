package matrix

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDot(t *testing.T) {
	if d := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); d != 32 {
		t.Fatalf("Dot = %g", d)
	}
}

func TestDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestNorm2(t *testing.T) {
	if n := Norm2([]float64{3, 4}); math.Abs(n-5) > 1e-15 {
		t.Fatalf("Norm2 = %g", n)
	}
	if Norm2(nil) != 0 {
		t.Fatal("Norm2(nil) should be 0")
	}
}

func TestSubVec(t *testing.T) {
	x := []float64{1, 2}
	y := []float64{10, 20}
	if d := SubVec(y, x); d[0] != 9 || d[1] != 18 {
		t.Fatalf("SubVec = %v", d)
	}
	if x[0] != 1 || y[0] != 10 {
		t.Fatal("vector ops must not mutate inputs")
	}
}

func TestAxpyInPlace(t *testing.T) {
	y := []float64{1, 1}
	AxpyInPlace(2, []float64{3, 4}, y)
	if y[0] != 7 || y[1] != 9 {
		t.Fatalf("Axpy = %v", y)
	}
}

func TestCloneVecIndependence(t *testing.T) {
	x := []float64{1, 2}
	c := CloneVec(x)
	c[0] = 9
	if x[0] != 1 {
		t.Fatal("CloneVec must copy")
	}
}

func TestConstant(t *testing.T) {
	if c := Constant(2, 7.5); c[0] != 7.5 || c[1] != 7.5 {
		t.Fatalf("Constant = %v", c)
	}
}

func TestCauchySchwarzProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + int(r.Int31n(20))
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
			y[i] = r.NormFloat64()
		}
		return math.Abs(Dot(x, y)) <= Norm2(x)*Norm2(y)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTriangleInequalityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + int(r.Int31n(20))
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
			y[i] = r.NormFloat64()
		}
		sum := make([]float64, n)
		for i := range sum {
			sum[i] = x[i] + y[i]
		}
		return Norm2(sum) <= Norm2(x)+Norm2(y)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
