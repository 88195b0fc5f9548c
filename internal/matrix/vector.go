package matrix

import (
	"fmt"
	"math"
)

// Vector helpers operate on plain []float64 slices so callers can use native
// Go slices without wrapping.

// Dot returns the inner product of x and y.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("matrix: Dot length mismatch %d vs %d", len(x), len(y)))
	}
	s := 0.0
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	return math.Sqrt(Dot(x, x))
}

// AddVec returns x + y as a new slice.
func AddVec(x, y []float64) []float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("matrix: AddVec length mismatch %d vs %d", len(x), len(y)))
	}
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = v + y[i]
	}
	return out
}

// SubVec returns x - y as a new slice.
func SubVec(x, y []float64) []float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("matrix: SubVec length mismatch %d vs %d", len(x), len(y)))
	}
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = v - y[i]
	}
	return out
}

// ScaleVec returns s*x as a new slice.
func ScaleVec(s float64, x []float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = s * v
	}
	return out
}

// AxpyInPlace sets y = y + a*x.
func AxpyInPlace(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("matrix: Axpy length mismatch %d vs %d", len(x), len(y)))
	}
	for i, v := range x {
		y[i] += a * v
	}
}

// CloneVec returns a copy of x.
func CloneVec(x []float64) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	return out
}

// Zeros returns a zero vector of length n.
func Zeros(n int) []float64 { return make([]float64, n) }

// Constant returns a vector of n copies of v.
func Constant(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// SumVec returns the sum of the entries of x.
func SumVec(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s
}

// MinVec returns the minimum entry and its index; it panics on empty input.
func MinVec(x []float64) (float64, int) {
	if len(x) == 0 {
		panic("matrix: MinVec of empty vector")
	}
	min, idx := x[0], 0
	for i, v := range x {
		if v < min {
			min, idx = v, i
		}
	}
	return min, idx
}

// MaxVec returns the maximum entry and its index; it panics on empty input.
func MaxVec(x []float64) (float64, int) {
	if len(x) == 0 {
		panic("matrix: MaxVec of empty vector")
	}
	max, idx := x[0], 0
	for i, v := range x {
		if v > max {
			max, idx = v, i
		}
	}
	return max, idx
}

// MaxAbsDiffVec returns the max absolute elementwise difference of x and y.
func MaxAbsDiffVec(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("matrix: MaxAbsDiffVec length mismatch %d vs %d", len(x), len(y)))
	}
	max := 0.0
	for i, v := range x {
		d := math.Abs(v - y[i])
		if d > max {
			max = d
		}
	}
	return max
}
