// Package pareto extracts Pareto-optimal power/performance tradeoffs and
// solves the paper's energy-minimization LP (Eq. 1) in closed form by
// walking the lower convex hull of the tradeoff space (§5.3: LEO "finds the
// set of configurations that represent Pareto-optimal performance and power
// tradeoffs, and finally walks along the convex hull of this optimal
// tradeoff space until the performance goal is reached").
//
// The optimal schedule time-shares between at most two configurations that
// are adjacent vertices of the lower convex hull of the (performance, power)
// cloud augmented with the idle point — exactly the vertex structure of the
// LP. The package tests hold both planning modes to an exhaustive
// enumeration of those two-variable vertices.
package pareto

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// ErrInfeasible is returned when no configuration (or mix) can complete the
// requested work by the deadline.
var ErrInfeasible = errors.New("pareto: performance demand exceeds fastest configuration")

// Point is one configuration's position in the tradeoff space.
type Point struct {
	Index int     // configuration index; -1 denotes the idle pseudo-point
	Perf  float64 // heartbeats/s
	Power float64 // Watts
}

// IdleIndex is the Index of the idle pseudo-point in hulls.
const IdleIndex = -1

// Frontier returns the Pareto-optimal points of the (perf, power) cloud:
// points for which no other point has both higher-or-equal performance and
// lower-or-equal power (with at least one strict). The result is sorted by
// increasing performance, and by increasing power among equals.
func Frontier(perf, power []float64) []Point {
	if len(perf) != len(power) {
		panic(fmt.Sprintf("pareto: perf has %d entries, power %d", len(perf), len(power)))
	}
	pts := make([]Point, len(perf))
	for i := range perf {
		pts[i] = Point{Index: i, Perf: perf[i], Power: power[i]}
	}
	// Sort by perf descending, power ascending; sweep keeping the running
	// minimum power. A point is dominated iff some point with >= perf has
	// <= power (other than itself, ties handled by ordering).
	slices.SortFunc(pts, func(a, b Point) int {
		if a.Perf != b.Perf {
			if a.Perf > b.Perf {
				return -1
			}
			return 1
		}
		if a.Power != b.Power {
			if a.Power < b.Power {
				return -1
			}
			return 1
		}
		if a.Index < b.Index {
			return -1
		}
		if a.Index > b.Index {
			return 1
		}
		return 0
	})
	var out []Point
	best := math.Inf(1)
	for _, p := range pts {
		if p.Power < best {
			out = append(out, p)
			best = p.Power
		}
	}
	// Reverse to increasing performance.
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// LowerHull returns the vertices of the lower convex hull of pts in the
// (perf, power) plane, sorted by increasing performance. Input points need
// not be Pareto-filtered. The hull is the graph of the convex minorant:
// every achievable time-sharing mix lies on or above it.
func LowerHull(pts []Point) []Point {
	if len(pts) == 0 {
		return nil
	}
	return lowerHull(append([]Point(nil), pts...))
}

// lowerHull is LowerHull over a buffer it may reorder and overwrite: pts is
// sorted in place and the hull is built over its prefix, then copied out,
// so the result never pins the n-point buffer.
func lowerHull(pts []Point) []Point {
	// Perf, then Power, and no Index tie-break: which point of an exact
	// (perf, power) tie the dedup keeps is the unstable pdqsort's choice,
	// which sort.Slice makes identically for the same answers. The
	// comparisons stay explicit because cmp.Compare orders NaN, which here
	// is neither smaller nor larger than anything.
	slices.SortFunc(pts, func(a, b Point) int {
		if a.Perf != b.Perf {
			if a.Perf < b.Perf {
				return -1
			}
			return 1
		}
		if a.Power < b.Power {
			return -1
		}
		if a.Power > b.Power {
			return 1
		}
		return 0
	})
	// Drop duplicate-perf points, keeping the cheapest.
	dedup := pts[:0]
	for _, p := range pts {
		if len(dedup) > 0 && dedup[len(dedup)-1].Perf == p.Perf {
			continue
		}
		dedup = append(dedup, p)
	}
	// Andrew's monotone chain, lower boundary only, in place: the hull never
	// holds more points than the chain has read.
	hull := dedup[:0]
	for _, p := range dedup {
		for len(hull) >= 2 && cross(hull[len(hull)-2], hull[len(hull)-1], p) <= 0 {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, p)
	}
	return append([]Point(nil), hull...)
}

// cross returns the z-component of (b−a)×(c−a); > 0 means a→b→c turns
// counter-clockwise (b below the a–c chord, i.e. b is a hull vertex).
func cross(a, b, c Point) float64 {
	return (b.Perf-a.Perf)*(c.Power-a.Power) - (b.Power-a.Power)*(c.Perf-a.Perf)
}

// Allocation is time assigned to one configuration.
type Allocation struct {
	Index int     // configuration index (never IdleIndex)
	Time  float64 // seconds
}

// Plan is an energy-minimizing schedule for one (W, T) demand.
type Plan struct {
	Allocations []Allocation // at most two entries, fastest last
	IdleTime    float64      // seconds spent idle before the deadline
	Energy      float64      // predicted energy over [0,T], Joules (includes idle)
	Rate        float64      // demanded average rate W/T
}

// MinimizeEnergy computes the minimal-energy plan that completes w heartbeats
// within t seconds, given per-configuration performance and total-system
// power plus the system's idle power. Estimates may be imperfect: the plan
// is optimal for the inputs, and the caller measures what actually happens.
//
// Non-positive or non-finite perf estimates are treated as unusable
// configurations (an estimator can produce them; the machine cannot run
// backwards).
// Both the demand walk and the hull construction live on Planner; this
// wrapper exists for one-shot callers and preserves the historical
// validation order (length, demand, idle power).
func MinimizeEnergy(perf, power []float64, idlePower, w, t float64) (*Plan, error) {
	if len(perf) != len(power) {
		return nil, fmt.Errorf("pareto: perf has %d entries, power %d", len(perf), len(power))
	}
	if w < 0 || t <= 0 {
		return nil, fmt.Errorf("pareto: invalid work %g or deadline %g", w, t)
	}
	if idlePower < 0 {
		return nil, fmt.Errorf("pareto: negative idle power %g", idlePower)
	}
	return newPlanner(perf, power, idlePower).MinimizeEnergyInto(w, t, new(Plan))
}

type weighted struct {
	p    Point
	time float64
}

// MaximizePerformance solves the dual problem (the goal of systems like
// Flicker, discussed in §7): find the time-sharing schedule with the highest
// average heartbeat rate whose average power does not exceed powerCap.
// The optimum again lies on the tradeoff hull: it is the fastest point of
// the hull whose power is within the cap, or the mix of the two hull points
// bracketing the cap. Returns the achievable rate and the plan over a
// deadline of t seconds.
func MaximizePerformance(perf, power []float64, idlePower, powerCap, t float64) (*Plan, error) {
	if len(perf) != len(power) {
		return nil, fmt.Errorf("pareto: perf has %d entries, power %d", len(perf), len(power))
	}
	if t <= 0 {
		return nil, fmt.Errorf("pareto: invalid deadline %g", t)
	}
	if idlePower < 0 {
		return nil, fmt.Errorf("pareto: negative idle power %g", idlePower)
	}
	if powerCap < idlePower {
		return nil, fmt.Errorf("pareto: power cap %g below idle power %g", powerCap, idlePower)
	}
	return newPlanner(perf, power, idlePower).MaximizePerformanceInto(powerCap, t, new(Plan))
}

// Work returns the work the plan completes under the given true performance
// vector (heartbeats).
func (p *Plan) Work(truePerf []float64) float64 {
	w := 0.0
	for _, a := range p.Allocations {
		w += truePerf[a.Index] * a.Time
	}
	return w
}

// TrueEnergy returns the energy the plan actually consumes under the true
// power vector and idle power.
func (p *Plan) TrueEnergy(truePower []float64, idlePower float64) float64 {
	e := idlePower * p.IdleTime
	for _, a := range p.Allocations {
		e += truePower[a.Index] * a.Time
	}
	return e
}
