package pareto

import (
	"fmt"
	"math"
)

// Planner is the reusable form of the closed-form LP solver: the lower
// convex hull of one (perf, power, idlePower) estimate set, computed once
// and then walked per demand. A tenant's estimates only change at refit
// time, so a serving layer can build one Planner per refit and answer every
// MinimizeEnergy/MaximizePerformance query from it; the plans are
// bit-identical to the package-level functions, which are thin wrappers
// around a throwaway Planner.
type Planner struct {
	hull      []Point
	idlePower float64
}

// NewPlanner validates the estimate set and precomputes its tradeoff hull.
// The input slices are not retained.
func NewPlanner(perf, power []float64, idlePower float64) (*Planner, error) {
	if len(perf) != len(power) {
		return nil, fmt.Errorf("pareto: perf has %d entries, power %d", len(perf), len(power))
	}
	if idlePower < 0 {
		return nil, fmt.Errorf("pareto: negative idle power %g", idlePower)
	}
	return newPlanner(perf, power, idlePower), nil
}

// newPlanner builds the hull without re-validating (the wrappers check in
// the historical error order before calling).
func newPlanner(perf, power []float64, idlePower float64) *Planner {
	pts := make([]Point, 1, len(perf)+1)
	pts[0] = Point{Index: IdleIndex, Perf: 0, Power: idlePower}
	for i := range perf {
		if perf[i] <= 0 || math.IsNaN(perf[i]) || math.IsInf(perf[i], 0) ||
			power[i] <= 0 || math.IsNaN(power[i]) || math.IsInf(power[i], 0) {
			continue
		}
		pts = append(pts, Point{Index: i, Perf: perf[i], Power: power[i]})
	}
	return &Planner{hull: lowerHull(pts), idlePower: idlePower}
}

// IdlePower returns the idle power the planner was built with.
func (pl *Planner) IdlePower() float64 { return pl.idlePower }

// MinimizeEnergy answers one (w, t) demand from the precomputed hull.
func (pl *Planner) MinimizeEnergy(w, t float64) (*Plan, error) {
	return pl.MinimizeEnergyInto(w, t, new(Plan))
}

// MinimizeEnergyInto is MinimizeEnergy writing the result into plan
// (reusing its Allocations backing array), so steady-state serving
// allocates nothing. Returns plan on success; on error plan is unchanged.
func (pl *Planner) MinimizeEnergyInto(w, t float64, plan *Plan) (*Plan, error) {
	if w < 0 || t <= 0 {
		return nil, fmt.Errorf("pareto: invalid work %g or deadline %g", w, t)
	}
	hull := pl.hull
	rate := w / t
	last := hull[len(hull)-1]
	if rate > last.Perf*(1+1e-12) {
		return nil, fmt.Errorf("%w: need %g beats/s, fastest hull point %g", ErrInfeasible, rate, last.Perf)
	}
	var parts [2]weighted
	if rate >= last.Perf {
		parts[0] = weighted{last, t}
		return pl.finishPlanInto(plan, parts[:1], w, t), nil
	}
	for s := 0; s < len(hull)-1; s++ {
		lo, hi := hull[s], hull[s+1]
		if rate < lo.Perf || rate > hi.Perf {
			continue
		}
		frac := (rate - lo.Perf) / (hi.Perf - lo.Perf)
		parts[0] = weighted{lo, (1 - frac) * t}
		parts[1] = weighted{hi, frac * t}
		return pl.finishPlanInto(plan, parts[:2], w, t), nil
	}
	// rate below the slowest hull point: run it long enough for the work and
	// idle the remainder (see MinimizeEnergy for why idle cannot be dominated).
	lo := hull[0]
	parts[0] = weighted{lo, w / lo.Perf}
	return pl.finishPlanInto(plan, parts[:1], w, t), nil
}

// MaximizePerformance answers one (powerCap, t) demand from the hull.
func (pl *Planner) MaximizePerformance(powerCap, t float64) (*Plan, error) {
	return pl.MaximizePerformanceInto(powerCap, t, new(Plan))
}

// MaximizePerformanceInto is MaximizePerformance writing into plan.
func (pl *Planner) MaximizePerformanceInto(powerCap, t float64, plan *Plan) (*Plan, error) {
	if t <= 0 {
		return nil, fmt.Errorf("pareto: invalid deadline %g", t)
	}
	if powerCap < pl.idlePower {
		return nil, fmt.Errorf("pareto: power cap %g below idle power %g", powerCap, pl.idlePower)
	}
	hull := pl.hull
	last := hull[len(hull)-1]
	var parts [2]weighted
	if last.Power <= powerCap {
		// The cap doesn't bind: run the fastest hull point flat out.
		parts[0] = weighted{last, t}
		return pl.finishPlanInto(plan, parts[:1], last.Perf*t, t), nil
	}
	// Walk to the segment whose power brackets the cap. Hull power is
	// increasing along the walk (the hull is convex and starts at idle).
	for s := 0; s < len(hull)-1; s++ {
		lo, hi := hull[s], hull[s+1]
		if powerCap < lo.Power || powerCap > hi.Power {
			continue
		}
		frac := (powerCap - lo.Power) / (hi.Power - lo.Power)
		rate := lo.Perf*(1-frac) + hi.Perf*frac
		parts[0] = weighted{lo, (1 - frac) * t}
		parts[1] = weighted{hi, frac * t}
		return pl.finishPlanInto(plan, parts[:2], rate*t, t), nil
	}
	// Cap below every real hull point: all idle.
	parts[0] = weighted{hull[0], t}
	return pl.finishPlanInto(plan, parts[:1], 0, t), nil
}

// finishPlanInto converts weighted hull points to a Plan in place, folding
// the idle pseudo-point into IdleTime and accounting idle energy for slack.
// The arithmetic and ordering are exactly the historical finishPlan's.
func (pl *Planner) finishPlanInto(plan *Plan, parts []weighted, w, t float64) *Plan {
	plan.Allocations = plan.Allocations[:0]
	plan.IdleTime = 0
	plan.Energy = 0
	plan.Rate = w / t
	used := 0.0
	for _, part := range parts {
		if part.time <= 0 {
			continue
		}
		used += part.time
		if part.p.Index == IdleIndex {
			plan.IdleTime += part.time
			plan.Energy += pl.idlePower * part.time
			continue
		}
		plan.Allocations = append(plan.Allocations, Allocation{Index: part.p.Index, Time: part.time})
		plan.Energy += part.p.Power * part.time
	}
	if slack := t - used; slack > 1e-12 {
		plan.IdleTime += slack
		plan.Energy += pl.idlePower * slack
	}
	// Fastest last, for controllers that prefer the faster configuration
	// when correcting for estimation error. At most two allocations exist,
	// so the descending-Time sort is a single compare-and-swap (ties keep
	// arrival order, as the stable-for-two sort.Slice did).
	if a := plan.Allocations; len(a) == 2 && a[1].Time > a[0].Time {
		a[0], a[1] = a[1], a[0]
	}
	if len(plan.Allocations) == 0 {
		// An all-idle plan must be indistinguishable from a freshly built
		// one (nil encodes as JSON null; an empty reused slice would not).
		plan.Allocations = nil
	}
	return plan
}
