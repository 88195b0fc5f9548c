// Package stats provides the statistical primitives used by LEO: the
// paper's accuracy metric (Eq. 5), the mean, and the per-configuration
// column means of a profile database (the Offline estimator's prediction).
package stats

import (
	"fmt"

	"leo/internal/matrix"
)

// Accuracy implements Equation (5) of the paper:
//
//	accuracy(ŷ, y) = max(1 - ||ŷ-y||²₂ / ||y-ȳ||²₂, 0)
//
// i.e. a coefficient-of-determination clipped at zero. Unity is a perfect
// estimate; zero means the estimate is no better than predicting the mean.
func Accuracy(estimate, truth []float64) float64 {
	if len(estimate) != len(truth) {
		panic(fmt.Sprintf("stats: Accuracy length mismatch %d vs %d", len(estimate), len(truth)))
	}
	if len(truth) == 0 {
		return 0
	}
	mean := Mean(truth)
	num, den := 0.0, 0.0
	for i, y := range truth {
		d := estimate[i] - y
		num += d * d
		c := y - mean
		den += c * c
	}
	if den == 0 {
		// Constant truth: perfect only if the estimate matches it exactly.
		if num == 0 {
			return 1
		}
		return 0
	}
	acc := 1 - num/den
	if acc < 0 {
		return 0
	}
	return acc
}

// Mean returns the arithmetic mean of x (0 for empty input).
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// ColumnMeans returns the per-column mean of an apps×configs matrix — the
// Offline estimator's prediction (mean over previously observed apps).
func ColumnMeans(m *matrix.Matrix) []float64 {
	out := make([]float64, m.Cols)
	if m.Rows == 0 {
		return out
	}
	for r := 0; r < m.Rows; r++ {
		row := m.RowView(r)
		for c, v := range row {
			out[c] += v
		}
	}
	inv := 1 / float64(m.Rows)
	for c := range out {
		out[c] *= inv
	}
	return out
}
