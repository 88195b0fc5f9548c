package pareto

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refFrontier and refLowerHull are the sort.Slice implementations the
// in-place slices.SortFunc builds replaced, kept as the reference their
// outputs must match bit for bit: both sorts run the same pdqsort, so a
// comparator that answers < 0 exactly where the old less held reproduces
// the old permutation, exact ties and NaN included.
func refFrontier(perf, power []float64) []Point {
	pts := make([]Point, len(perf))
	for i := range perf {
		pts[i] = Point{Index: i, Perf: perf[i], Power: power[i]}
	}
	sort.Slice(pts, func(a, b int) bool {
		if pts[a].Perf != pts[b].Perf {
			return pts[a].Perf > pts[b].Perf
		}
		if pts[a].Power != pts[b].Power {
			return pts[a].Power < pts[b].Power
		}
		return pts[a].Index < pts[b].Index
	})
	var out []Point
	best := math.Inf(1)
	for _, p := range pts {
		if p.Power < best {
			out = append(out, p)
			best = p.Power
		}
	}
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

func refLowerHull(pts []Point) []Point {
	if len(pts) == 0 {
		return nil
	}
	sorted := append([]Point(nil), pts...)
	sort.Slice(sorted, func(a, b int) bool {
		if sorted[a].Perf != sorted[b].Perf {
			return sorted[a].Perf < sorted[b].Perf
		}
		return sorted[a].Power < sorted[b].Power
	})
	dedup := sorted[:0]
	for _, p := range sorted {
		if len(dedup) > 0 && dedup[len(dedup)-1].Perf == p.Perf {
			continue
		}
		dedup = append(dedup, p)
	}
	var hull []Point
	for _, p := range dedup {
		for len(hull) >= 2 && cross(hull[len(hull)-2], hull[len(hull)-1], p) <= 0 {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, p)
	}
	return hull
}

// refPlanner is newPlanner over refLowerHull.
func refPlanner(perf, power []float64, idlePower float64) *Planner {
	pts := []Point{{Index: IdleIndex, Perf: 0, Power: idlePower}}
	for i := range perf {
		if perf[i] <= 0 || math.IsNaN(perf[i]) || math.IsInf(perf[i], 0) ||
			power[i] <= 0 || math.IsNaN(power[i]) || math.IsInf(power[i], 0) {
			continue
		}
		pts = append(pts, Point{Index: i, Perf: perf[i], Power: power[i]})
	}
	return &Planner{hull: refLowerHull(pts), idlePower: idlePower}
}

// tiedEstimates draws n (perf, power) pairs from a handful of distinct
// points, so exact (perf, power) duplicates at different indices are the
// rule, plus perf-only repeats at different powers. With bad set, about one
// entry in ten of each vector is NaN, ±Inf, zero or negative.
func tiedEstimates(rng *rand.Rand, n int, bad bool) (perf, power []float64) {
	distinct := 1 + n/8
	basePerf := make([]float64, distinct)
	basePower := make([]float64, distinct)
	for i := range basePerf {
		basePerf[i] = float64(1 + rng.Intn(distinct))
		basePower[i] = 10 + math.Exp(rng.NormFloat64())*float64(1+rng.Intn(4))
	}
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1}
	perf = make([]float64, n)
	power = make([]float64, n)
	for i := range perf {
		j := rng.Intn(distinct)
		perf[i], power[i] = basePerf[j], basePower[j]
		if bad && rng.Intn(10) == 0 {
			perf[i] = specials[rng.Intn(len(specials))]
		}
		if bad && rng.Intn(10) == 0 {
			power[i] = specials[rng.Intn(len(specials))]
		}
	}
	return perf, power
}

// samePoints requires equal Index order and equal Float64bits.
func samePoints(t *testing.T, what string, got, want []Point) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d points, reference %d", what, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Index != w.Index || math.Float64bits(g.Perf) != math.Float64bits(w.Perf) ||
			math.Float64bits(g.Power) != math.Float64bits(w.Power) {
			t.Fatalf("%s: point %d is %+v, reference %+v", what, i, g, w)
		}
	}
}

// samePlan requires two plans (or two errors) to agree bit for bit.
func samePlan(t *testing.T, what string, got, want *Plan, gotErr, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: error %v, reference %v", what, gotErr, wantErr)
	}
	if gotErr != nil {
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: error %q, reference %q", what, gotErr, wantErr)
		}
		return
	}
	bits := math.Float64bits
	if len(got.Allocations) != len(want.Allocations) || bits(got.IdleTime) != bits(want.IdleTime) ||
		bits(got.Energy) != bits(want.Energy) || bits(got.Rate) != bits(want.Rate) {
		t.Fatalf("%s: plan %+v, reference %+v", what, got, want)
	}
	for i, a := range got.Allocations {
		if b := want.Allocations[i]; a.Index != b.Index || bits(a.Time) != bits(b.Time) {
			t.Fatalf("%s: plan %+v, reference %+v", what, got, want)
		}
	}
}

// TestSortsMatchSortSliceReference pins the planner-path sorts to the
// sort.Slice builds they replaced: LowerHull, Frontier, the hull newPlanner
// keeps and the MinimizeEnergy plans walked from it must carry the same
// indices in the same order and the same bits, at every size the sorts
// switch algorithm around (insertion sort up to 12, pdqsort above) and on
// exact ties, where only the shared pdqsort fixes which index survives.
func TestSortsMatchSortSliceReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, n := range []int{0, 1, 2, 13, 129, 1025} {
		for trial := 0; trial < 8; trial++ {
			bad := trial%2 == 1
			perf, power := tiedEstimates(rng, n, bad)
			what := fmt.Sprintf("n=%d trial %d", n, trial)

			samePoints(t, what+" Frontier", Frontier(perf, power), refFrontier(perf, power))

			pts := make([]Point, n)
			for i := range pts {
				pts[i] = Point{Index: i, Perf: perf[i], Power: power[i]}
			}
			in := append([]Point(nil), pts...)
			samePoints(t, what+" LowerHull", LowerHull(pts), refLowerHull(pts))
			samePoints(t, what+" LowerHull input", pts, in)

			idle := 1 + rng.Float64()*5
			pl, ref := newPlanner(perf, power, idle), refPlanner(perf, power, idle)
			samePoints(t, what+" planner hull", pl.hull, ref.hull)
			if c := cap(pl.hull); n > 16 && c > n/2 {
				t.Fatalf("%s: planner hull has capacity %d for %d points", what, c, len(pl.hull))
			}
			fastest := pl.hull[len(pl.hull)-1].Perf
			for q := 0; q < 16; q++ {
				tt := 0.5 + rng.Float64()*10
				w := rng.Float64() * 1.1 * fastest * tt
				got, gotErr := pl.MinimizeEnergy(w, tt)
				want, wantErr := ref.MinimizeEnergy(w, tt)
				samePlan(t, fmt.Sprintf("%s demand %d", what, q), got, want, gotErr, wantErr)
			}
		}
	}
}
