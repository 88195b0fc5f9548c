package pareto

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"leo/internal/apps"
	"leo/internal/platform"
)

func TestFrontierBasic(t *testing.T) {
	//   idx: 0 dominated by 1; 2 unique high perf; 3 dominated by 2.
	perf := []float64{1, 1, 5, 4}
	power := []float64{10, 8, 20, 25}
	f := Frontier(perf, power)
	if len(f) != 2 {
		t.Fatalf("frontier = %+v", f)
	}
	if f[0].Index != 1 || f[1].Index != 2 {
		t.Fatalf("frontier indices = %+v", f)
	}
	if f[0].Perf > f[1].Perf {
		t.Fatal("frontier not sorted by performance")
	}
}

func TestFrontierAllDominatedByOne(t *testing.T) {
	perf := []float64{3, 2, 1}
	power := []float64{5, 6, 7} // index 0 dominates all
	f := Frontier(perf, power)
	if len(f) != 1 || f[0].Index != 0 {
		t.Fatalf("frontier = %+v", f)
	}
}

func TestFrontierTies(t *testing.T) {
	perf := []float64{2, 2, 2}
	power := []float64{5, 5, 4}
	f := Frontier(perf, power)
	if len(f) != 1 || f[0].Index != 2 {
		t.Fatalf("tie handling: %+v", f)
	}
}

func TestFrontierNoFalseNegativesProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + int(r.Int31n(40))
		perf := make([]float64, n)
		power := make([]float64, n)
		for i := range perf {
			perf[i] = r.Float64() * 10
			power[i] = 10 + r.Float64()*100
		}
		front := Frontier(perf, power)
		inFront := make(map[int]bool)
		for _, p := range front {
			inFront[p.Index] = true
		}
		// Every excluded point must be dominated by some included point;
		// every included point must be dominated by none.
		dominated := func(i int) bool {
			for j := range perf {
				if j == i {
					continue
				}
				if perf[j] >= perf[i] && power[j] <= power[i] && (perf[j] > perf[i] || power[j] < power[i]) {
					return true
				}
			}
			return false
		}
		for i := range perf {
			if inFront[i] == dominated(i) {
				// Ties can put equivalent duplicates on either side; allow
				// exact duplicates to be excluded.
				dup := false
				for _, p := range front {
					if p.Index != i && p.Perf == perf[i] && p.Power == power[i] {
						dup = true
					}
				}
				if !dup {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLowerHullTriangle(t *testing.T) {
	pts := []Point{
		{Index: 0, Perf: 0, Power: 10},
		{Index: 1, Perf: 1, Power: 30}, // above the chord 0–2
		{Index: 2, Perf: 2, Power: 20},
	}
	hull := LowerHull(pts)
	if len(hull) != 2 || hull[0].Index != 0 || hull[1].Index != 2 {
		t.Fatalf("hull = %+v", hull)
	}
}

func TestLowerHullKeepsConvexPoints(t *testing.T) {
	pts := []Point{
		{Index: 0, Perf: 0, Power: 10},
		{Index: 1, Perf: 1, Power: 12}, // below the chord: convex vertex
		{Index: 2, Perf: 2, Power: 20},
	}
	hull := LowerHull(pts)
	if len(hull) != 3 {
		t.Fatalf("hull = %+v", hull)
	}
}

func TestLowerHullCollinear(t *testing.T) {
	pts := []Point{
		{Index: 0, Perf: 0, Power: 10},
		{Index: 1, Perf: 1, Power: 20},
		{Index: 2, Perf: 2, Power: 30},
	}
	hull := LowerHull(pts)
	// Middle collinear point removed.
	if len(hull) != 2 {
		t.Fatalf("collinear hull = %+v", hull)
	}
}

func TestLowerHullEmptyAndSingle(t *testing.T) {
	if LowerHull(nil) != nil {
		t.Fatal("empty hull")
	}
	h := LowerHull([]Point{{Index: 0, Perf: 1, Power: 1}})
	if len(h) != 1 {
		t.Fatal("single-point hull")
	}
}

func TestLowerHullBelowAllPointsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + int(r.Int31n(30))
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{Index: i, Perf: r.Float64() * 10, Power: 10 + r.Float64()*100}
		}
		hull := LowerHull(pts)
		// The hull, interpolated, must not lie above any input point with
		// perf within the hull's span.
		interp := func(x float64) (float64, bool) {
			for s := 0; s < len(hull)-1; s++ {
				a, b := hull[s], hull[s+1]
				if x >= a.Perf && x <= b.Perf {
					fr := (x - a.Perf) / (b.Perf - a.Perf)
					return a.Power*(1-fr) + b.Power*fr, true
				}
			}
			return 0, false
		}
		for _, p := range pts {
			if v, ok := interp(p.Perf); ok && v > p.Power+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMinimizeEnergyTwoConfigMix(t *testing.T) {
	// Same scenario as the LP test: mixing beats the fast config alone.
	perf := []float64{1, 4}
	power := []float64{10, 100}
	plan, err := MinimizeEnergy(perf, power, 0, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plan.Energy-40) > 1e-9 {
		t.Fatalf("plan energy = %g, want 40", plan.Energy)
	}
	if len(plan.Allocations) != 2 {
		t.Fatalf("allocations = %+v", plan.Allocations)
	}
	if w := plan.Work(perf); math.Abs(w-2) > 1e-9 {
		t.Fatalf("plan work = %g", w)
	}
}

func TestMinimizeEnergyIdleBeatsSlow(t *testing.T) {
	// With idle power 5 and a slow config at 10 W / 1 beat/s, demanding
	// 0.5 beats/s: race-ish mix of idle and running.
	perf := []float64{1}
	power := []float64{10}
	plan, err := MinimizeEnergy(perf, power, 5, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Run 0.5 s at 10 W + idle 0.5 s at 5 W = 7.5 J.
	if math.Abs(plan.Energy-7.5) > 1e-9 {
		t.Fatalf("energy = %g, want 7.5", plan.Energy)
	}
	if math.Abs(plan.IdleTime-0.5) > 1e-9 {
		t.Fatalf("idle time = %g", plan.IdleTime)
	}
}

func TestMinimizeEnergyInfeasible(t *testing.T) {
	_, err := MinimizeEnergy([]float64{1}, []float64{10}, 5, 100, 1)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
}

func TestMinimizeEnergyZeroWork(t *testing.T) {
	plan, err := MinimizeEnergy([]float64{1, 2}, []float64{10, 20}, 5, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Allocations) != 0 || math.Abs(plan.IdleTime-2) > 1e-9 {
		t.Fatalf("zero-work plan = %+v", plan)
	}
	if math.Abs(plan.Energy-10) > 1e-9 {
		t.Fatalf("zero-work energy = %g, want 10", plan.Energy)
	}
}

func TestMinimizeEnergyExactDemand(t *testing.T) {
	plan, err := MinimizeEnergy([]float64{2}, []float64{10}, 1, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Allocations) != 1 || math.Abs(plan.Allocations[0].Time-2) > 1e-9 {
		t.Fatalf("exact-demand plan = %+v", plan)
	}
	if plan.IdleTime > 1e-9 {
		t.Fatalf("no idle expected, got %g", plan.IdleTime)
	}
}

func TestMinimizeEnergySkipsInvalidEstimates(t *testing.T) {
	perf := []float64{math.NaN(), -3, 2}
	power := []float64{50, 50, 20}
	plan, err := MinimizeEnergy(perf, power, 5, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range plan.Allocations {
		if a.Index != 2 {
			t.Fatalf("plan used invalid configuration %d", a.Index)
		}
	}
}

func TestMinimizeEnergyValidation(t *testing.T) {
	if _, err := MinimizeEnergy([]float64{1}, []float64{1, 2}, 0, 1, 1); err == nil {
		t.Fatal("length mismatch must error")
	}
	if _, err := MinimizeEnergy([]float64{1}, []float64{1}, 0, -1, 1); err == nil {
		t.Fatal("negative work must error")
	}
	if _, err := MinimizeEnergy([]float64{1}, []float64{1}, 0, 1, 0); err == nil {
		t.Fatal("zero deadline must error")
	}
	if _, err := MinimizeEnergy([]float64{1}, []float64{1}, -2, 1, 1); err == nil {
		t.Fatal("negative idle power must error")
	}
}

// pairOracle solves Eq. (1) by enumeration, sharing no code with the
// planner. The variables are the configurations plus idle (rate 0, idle
// power). With two equality constraints (work w, time t) an optimal vertex
// of the LP uses at most two of them, so the least energy over every pair
// whose closed-form times are non-negative is the optimum.
func pairOracle(perf, power []float64, idle, w, t float64) float64 {
	rate, pow := append([]float64{0}, perf...), append([]float64{idle}, power...)
	best := math.Inf(1)
	for i := range rate {
		for j := i + 1; j < len(rate); j++ {
			if rate[i] == rate[j] {
				continue
			}
			// t_i + t_j = t and rate_i·t_i + rate_j·t_j = w.
			tj := (w - rate[i]*t) / (rate[j] - rate[i])
			if ti := t - tj; ti >= 0 && tj >= 0 {
				best = min(best, pow[i]*ti+pow[j]*tj)
			}
		}
	}
	return best
}

// TestHullMatchesPairOracle holds the closed-form hull walk to the exact
// pair enumeration over random instances and demands.
func TestHullMatchesPairOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(20)
		perf := make([]float64, n)
		power := make([]float64, n)
		for i := range perf {
			perf[i] = 0.5 + rng.Float64()*9
			power[i] = 20 + rng.Float64()*200
		}
		idle := 5 + rng.Float64()*10
		maxPerf := 0.0
		for _, v := range perf {
			if v > maxPerf {
				maxPerf = v
			}
		}
		deadline := 1 + rng.Float64()*10
		w := rng.Float64() * maxPerf * deadline

		plan, err := MinimizeEnergy(perf, power, idle, w, deadline)
		if err != nil {
			t.Fatal(err)
		}
		want := pairOracle(perf, power, idle, w, deadline)
		if math.Abs(plan.Energy-want) > 1e-12*want {
			t.Fatalf("trial %d: hull %.17g vs oracle %.17g", trial, plan.Energy, want)
		}
	}
}

// TestMinimizeEnergyOnRealApp sanity-checks the planner against an actual
// application surface: energy must be monotone non-decreasing in demand.
func TestMinimizeEnergyOnRealApp(t *testing.T) {
	space := platform.Small()
	app := apps.MustByName("kmeans")
	perf := app.PerfVector(space)
	power := app.PowerVector(space)
	maxPerf := 0.0
	for _, v := range perf {
		if v > maxPerf {
			maxPerf = v
		}
	}
	prev := 0.0
	for u := 1; u <= 100; u += 3 {
		w := float64(u) / 100 * maxPerf * 10
		plan, err := MinimizeEnergy(perf, power, app.IdlePower, w, 10)
		if err != nil {
			t.Fatalf("utilization %d%%: %v", u, err)
		}
		if plan.Energy < prev-1e-9 {
			t.Fatalf("energy decreased with demand at %d%%: %g < %g", u, plan.Energy, prev)
		}
		if tt := totalTime(plan); math.Abs(tt-10) > 1e-9 {
			t.Fatalf("plan does not fill the deadline: %g", tt)
		}
		if got := plan.Work(perf); got < w-1e-6 {
			t.Fatalf("plan misses work: %g < %g", got, w)
		}
		prev = plan.Energy
	}
}

func TestPlanTrueEnergyAndWork(t *testing.T) {
	plan := &Plan{
		Allocations: []Allocation{{Index: 0, Time: 2}, {Index: 2, Time: 1}},
		IdleTime:    1,
	}
	truePerf := []float64{1, 9, 3}
	truePower := []float64{10, 99, 30}
	if w := plan.Work(truePerf); math.Abs(w-5) > 1e-12 {
		t.Fatalf("Work = %g", w)
	}
	if e := plan.TrueEnergy(truePower, 5); math.Abs(e-55) > 1e-12 {
		t.Fatalf("TrueEnergy = %g", e)
	}
	if tt := totalTime(plan); math.Abs(tt-4) > 1e-12 {
		t.Fatalf("totalTime = %g", tt)
	}
}

// totalTime returns a plan's allocated plus idle time.
func totalTime(p *Plan) float64 {
	t := p.IdleTime
	for _, a := range p.Allocations {
		t += a.Time
	}
	return t
}
