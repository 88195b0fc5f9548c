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

// Constant returns a vector of n copies of v.
func Constant(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}
