package control

import (
	"context"
	"math"
	"testing"

	"leo/internal/apps"
	"leo/internal/baseline"
	"leo/internal/core"
	"leo/internal/fault"
	"leo/internal/platform"
	"leo/internal/profile"
)

// TestReadingCeilingFits pins maxReading's derivation: a window whose every
// reading is the largest one FilterWindow keeps passes the filter whole and
// fits, cold and then as a frozen refit, with every estimate finite, at
// n = 32, 128 and 1024; the same window at the ceiling is dropped whole.
func TestReadingCeilingFits(t *testing.T) {
	ctx := context.Background()
	top := math.Nextafter(maxReading, 0)
	for _, space := range []platform.Space{platform.CoresOnly(), platform.Small(), platform.Paper()} {
		db, err := profile.Collect(space, apps.Suite(), 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		idx, err := db.AppIndex("kmeans")
		if err != nil {
			t.Fatal(err)
		}
		rest, _, _, err := db.LeaveOneOut(idx)
		if err != nil {
			t.Fatal(err)
		}
		mask := profile.UniformMask(space.N(), DefaultSamples)
		readings := make([]float64, len(mask))
		for i := range readings {
			readings[i] = top
		}
		w := FilterWindow(mask, readings, readings)
		if w.Dropped != 0 {
			t.Fatalf("n=%d: %d readings below the ceiling dropped", space.N(), w.Dropped)
		}
		perf, err := baseline.NewLEO(rest.Perf, core.Options{}).NewSession(ctx)
		if err != nil {
			t.Fatal(err)
		}
		power, err := baseline.NewLEO(rest.Power, core.Options{}).NewSession(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, fit := range []string{"cold", "frozen"} {
			perfEst, powerEst, err := FitWindow(ctx, perf, power, w, Resilience{}.WithDefaults())
			if err != nil {
				t.Fatalf("n=%d %s fit of readings at %g: %v", space.N(), fit, top, err)
			}
			if !finite(perfEst) || !finite(powerEst) {
				t.Fatalf("n=%d %s fit of readings at %g: non-finite estimate", space.N(), fit, top)
			}
		}
		for i := range readings {
			readings[i] = maxReading
		}
		if w := FilterWindow(mask, readings, readings); w.Dropped != len(mask) {
			t.Fatalf("n=%d: %d of %d readings at the ceiling dropped", space.N(), w.Dropped, len(mask))
		}
	}
}

func finite(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// TestCalibrateDropsReadingPastCeiling: a calibration probe whose reading a
// sensor spike blows up to about 1e300 — finite, but past what the fit can
// hold — is dropped like any other faulted probe and counted in
// DroppedObservations. The calibration fits the remaining probes at the
// LEO rung, with no estimation failure.
func TestCalibrateDropsReadingPastCeiling(t *testing.T) {
	r := newRig(t, "kmeans", 0)
	plan, err := fault.New(2, fault.Spec{Rates: map[fault.Kind]float64{fault.SensorSpike: 0.02}, SpikeFactor: 1e300})
	if err != nil {
		t.Fatal(err)
	}
	r.mach.InstallFaults(plan)
	c := r.controller(t, "LEO", 11)
	if err := c.Calibrate(); err != nil {
		t.Fatal(err)
	}
	if n := plan.Counts()[fault.SensorSpike]; n != 1 {
		t.Fatalf("%d spikes during calibration, want exactly 1", n)
	}
	rep := c.Report()
	if rep.DroppedObservations != 1 || rep.EstimationFailures != 0 || c.CurrentTier() != "LEO" {
		t.Fatalf("dropped %d, estimation failures %d, rung %s; want 1, 0, LEO",
			rep.DroppedObservations, rep.EstimationFailures, c.CurrentTier())
	}
}
