package stats

import (
	"math/rand"
	"testing"
	"testing/quick"

	"leo/internal/matrix"
)

func TestAccuracyPerfect(t *testing.T) {
	y := []float64{1, 2, 3, 4}
	if a := Accuracy(y, y); a != 1 {
		t.Fatalf("perfect accuracy = %g", a)
	}
}

func TestAccuracyMeanPredictor(t *testing.T) {
	y := []float64{1, 2, 3, 4}
	est := []float64{2.5, 2.5, 2.5, 2.5}
	if a := Accuracy(est, y); a != 0 {
		t.Fatalf("mean predictor accuracy = %g, want 0", a)
	}
}

func TestAccuracyClippedAtZero(t *testing.T) {
	y := []float64{1, 2, 3}
	est := []float64{100, -50, 7}
	if a := Accuracy(est, y); a != 0 {
		t.Fatalf("terrible predictor accuracy = %g, want clipped 0", a)
	}
}

func TestAccuracyConstantTruth(t *testing.T) {
	y := []float64{5, 5, 5}
	if a := Accuracy([]float64{5, 5, 5}, y); a != 1 {
		t.Fatalf("exact constant accuracy = %g", a)
	}
	if a := Accuracy([]float64{5, 5, 6}, y); a != 0 {
		t.Fatalf("inexact constant accuracy = %g", a)
	}
}

func TestAccuracyEmpty(t *testing.T) {
	if a := Accuracy(nil, nil); a != 0 {
		t.Fatalf("empty accuracy = %g", a)
	}
}

func TestAccuracyMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Accuracy([]float64{1}, []float64{1, 2})
}

func TestAccuracyBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + int(r.Int31n(30))
		y := make([]float64, n)
		est := make([]float64, n)
		for i := range y {
			y[i] = r.NormFloat64() * 10
			est[i] = r.NormFloat64() * 10
		}
		a := Accuracy(est, y)
		return a >= 0 && a <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestAccuracyMonotoneInNoise: adding more noise to a perfect estimate must
// not increase accuracy (statistically; we use fixed scaling of one error
// vector so it is deterministic).
func TestAccuracyMonotoneInNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 50
	y := make([]float64, n)
	noise := make([]float64, n)
	for i := range y {
		y[i] = rng.NormFloat64() * 5
		noise[i] = rng.NormFloat64()
	}
	prev := 1.1
	for _, scale := range []float64{0, 0.1, 0.5, 1, 2, 5} {
		est := make([]float64, n)
		for i := range est {
			est[i] = y[i] + scale*noise[i]
		}
		a := Accuracy(est, y)
		if a > prev+1e-12 {
			t.Fatalf("accuracy rose from %g to %g as noise scaled to %g", prev, a, scale)
		}
		prev = a
	}
}

func TestMean(t *testing.T) {
	if m := Mean([]float64{2, 4, 4, 4, 5, 5, 7, 9}); m != 5 {
		t.Fatalf("Mean = %g", m)
	}
	if Mean(nil) != 0 {
		t.Fatal("empty Mean should be 0")
	}
}

func TestColumnMeans(t *testing.T) {
	m := matrix.NewFromRows([][]float64{{1, 2, 3}, {3, 4, 5}})
	got := ColumnMeans(m)
	for c, want := range []float64{2, 3, 4} {
		if got[c] != want {
			t.Fatalf("ColumnMeans = %v", got)
		}
	}
	empty := ColumnMeans(matrix.New(0, 3))
	if len(empty) != 3 || empty[0] != 0 {
		t.Fatalf("empty ColumnMeans = %v", empty)
	}
}
