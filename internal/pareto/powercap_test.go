package pareto

import (
	"math"
	"math/rand"
	"testing"

	"leo/internal/apps"
	"leo/internal/platform"
)

func TestMaximizePerformanceUnbindingCap(t *testing.T) {
	perf := []float64{1, 4}
	power := []float64{10, 100}
	plan, err := MaximizePerformance(perf, power, 5, 200, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Cap above everything: run the fastest config the whole time.
	if len(plan.Allocations) != 1 || plan.Allocations[0].Index != 1 {
		t.Fatalf("plan = %+v", plan)
	}
	if math.Abs(plan.Work(perf)-8) > 1e-9 {
		t.Fatalf("work = %g, want 8", plan.Work(perf))
	}
}

func TestMaximizePerformanceBindingCap(t *testing.T) {
	perf := []float64{1, 4}
	power := []float64{10, 100}
	// Cap 55 W with idle 5: hull is idle(0,5) → (1,10) → (4,100).
	// Mix of configs 0 and 1: frac = (55-10)/90 = 0.5 → rate 2.5.
	plan, err := MaximizePerformance(perf, power, 5, 55, 2)
	if err != nil {
		t.Fatal(err)
	}
	rate := plan.Work(perf) / 2
	if math.Abs(rate-2.5) > 1e-9 {
		t.Fatalf("rate = %g, want 2.5", rate)
	}
	// Average power exactly at the cap.
	avg := plan.TrueEnergy(power, 5) / 2
	if math.Abs(avg-55) > 1e-9 {
		t.Fatalf("avg power = %g, want 55", avg)
	}
}

func TestMaximizePerformanceCapAtIdle(t *testing.T) {
	plan, err := MaximizePerformance([]float64{2}, []float64{50}, 10, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Work([]float64{2}) != 0 || math.Abs(plan.IdleTime-4) > 1e-9 {
		t.Fatalf("cap-at-idle plan = %+v", plan)
	}
}

func TestMaximizePerformanceValidation(t *testing.T) {
	if _, err := MaximizePerformance([]float64{1}, []float64{1, 2}, 0, 10, 1); err == nil {
		t.Fatal("length mismatch must error")
	}
	if _, err := MaximizePerformance([]float64{1}, []float64{10}, 5, 1, 1); err == nil {
		t.Fatal("cap below idle must error")
	}
	if _, err := MaximizePerformance([]float64{1}, []float64{10}, 5, 50, 0); err == nil {
		t.Fatal("zero deadline must error")
	}
	if _, err := MaximizePerformance([]float64{1}, []float64{10}, -1, 50, 1); err == nil {
		t.Fatal("negative idle must error")
	}
}

// capOracle is pairOracle for the capped problem: maximize the work Σ r·t
// subject to Σ p·t ≤ powerCap·t and Σ t = t over the configurations plus
// idle. An optimal vertex runs one point at or under the cap for the whole
// deadline, or mixes an under-cap point with an over-cap one so that the
// average power is exactly the cap.
func capOracle(perf, power []float64, idle, powerCap, t float64) float64 {
	rate, pow := append([]float64{0}, perf...), append([]float64{idle}, power...)
	best := 0.0
	for i := range rate {
		if pow[i] > powerCap {
			continue
		}
		best = max(best, rate[i]*t)
		for j := range rate {
			if pow[j] <= powerCap {
				continue
			}
			tj := t * (powerCap - pow[i]) / (pow[j] - pow[i])
			best = max(best, rate[i]*(t-tj)+rate[j]*tj)
		}
	}
	return best
}

// TestMaximizePerformanceRespectsCapProperty: on random instances the
// achieved average power never exceeds the cap, and the plan completes the
// work of the exact capOracle optimum.
func TestMaximizePerformanceRespectsCapProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 50; trial++ {
		n := 3 + rng.Intn(15)
		perf := make([]float64, n)
		power := make([]float64, n)
		idle := 5 + rng.Float64()*10
		for i := range perf {
			perf[i] = 0.5 + rng.Float64()*9
			power[i] = idle + 1 + rng.Float64()*200
		}
		cap := idle + rng.Float64()*220
		plan, err := MaximizePerformance(perf, power, idle, cap, 3)
		if err != nil {
			t.Fatal(err)
		}
		avg := plan.TrueEnergy(power, idle) / 3
		if avg > cap+1e-9 {
			t.Fatalf("trial %d: avg power %g exceeds cap %g", trial, avg, cap)
		}
		if got, want := plan.Work(perf), capOracle(perf, power, idle, cap, 3); math.Abs(got-want) > 1e-12*want {
			t.Fatalf("trial %d: plan work %.17g vs oracle %.17g under cap %.3g", trial, got, want, cap)
		}
	}
}

// TestMinimizeMaximizeDuality: maximizing performance under the power level
// that minimal-energy planning spends for demand W recovers at least rate
// W/T (the two problems share the same hull).
func TestMinimizeMaximizeDuality(t *testing.T) {
	space := platform.Small()
	app := apps.MustByName("swish")
	perf := app.PerfVector(space)
	power := app.PowerVector(space)
	maxRate := 0.0
	for _, v := range perf {
		if v > maxRate {
			maxRate = v
		}
	}
	for _, u := range []float64{0.2, 0.5, 0.8} {
		w := u * maxRate * 10
		minPlan, err := MinimizeEnergy(perf, power, app.IdlePower, w, 10)
		if err != nil {
			t.Fatal(err)
		}
		avgPower := minPlan.Energy / 10
		maxPlan, err := MaximizePerformance(perf, power, app.IdlePower, avgPower, 10)
		if err != nil {
			t.Fatal(err)
		}
		gotRate := maxPlan.Work(perf) / 10
		if gotRate < w/10-1e-6 {
			t.Fatalf("u=%g: max-perf under %g W gives %g beats/s < demanded %g", u, avgPower, gotRate, w/10)
		}
	}
}
