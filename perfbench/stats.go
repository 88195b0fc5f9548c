package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear interpolation
// between closest ranks, NaN for an empty sample. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// durationsIn converts durations to floats in the given unit.
func durationsIn(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// ratio is num/den, 0 when den is 0: a per-layer ratio whose base never
// occurred reads as nothing happened rather than NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// orZero maps NaN (an empty sample) to 0 for per-layer reporting.
func orZero(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	return x
}

// slicedQuantile cuts samples into consecutive slices of width by due time,
// starting at from, takes the q-quantile of each non-empty slice in unit,
// and returns the median over slices: a transient stall on a shared machine
// moves one slice, not the result.
func slicedQuantile(xs []sample, q float64, from time.Time, width, unit time.Duration) float64 {
	slices := map[int][]float64{}
	for _, x := range xs {
		k := int(x.at.Sub(from) / width)
		slices[k] = append(slices[k], float64(x.d)/float64(unit))
	}
	var per []float64
	for _, v := range slices {
		per = append(per, quantile(v, q))
	}
	return median(per)
}

// slicedRate counts events per slice of width from start to end (whole
// slices only) and returns the median rate per second.
func slicedRate(at []time.Time, start, end time.Time, width time.Duration) float64 {
	n := int(end.Sub(start) / width)
	if n < 1 {
		return float64(len(at)) / end.Sub(start).Seconds()
	}
	counts := make([]float64, n)
	for _, t := range at {
		if k := int(t.Sub(start) / width); k >= 0 && k < n {
			counts[k]++
		}
	}
	return median(counts) / width.Seconds()
}
