package leo_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"leo"
	"leo/internal/metrics"
)

// calibrateRoundWant pins one calibrate-paper round: per app, the Eq. 5
// accuracy of the controller's perf and power estimates after the cold
// calibration and after each of the three warm recalibrations ("perf
// power |" per window), then the executed job's energy over Optimal's, at
// results_full.txt's precision.
var calibrateRoundWant = map[string]string{
	"kmeans": "0.959 0.999 | 0.957 0.999 | 0.974 1.000 | 0.946 0.999 | 1.023",
	"swish":  "0.978 0.999 | 0.985 1.000 | 0.985 0.999 | 0.995 1.000 | 1.000",
	"x264":   "0.999 1.000 | 0.998 0.999 | 0.997 0.999 | 0.999 1.000 | 1.002",
}

// fitCounts reads the core fit counters: cold and warm fits completed, and
// fits rescued after a numerical-health watchdog trip.
func fitCounts() (cold, warm, fallbacks uint64) {
	for _, m := range metrics.Default().Snapshot() {
		switch {
		case m.Name == "leo_core_em_fits_total" && m.Labels["mode"] == "cold":
			cold = *m.Count
		case m.Name == "leo_core_em_fits_total" && m.Labels["mode"] == "warm":
			warm = *m.Count
		case m.Name == "leo_core_health_fallbacks_total":
			fallbacks = *m.Count
		}
	}
	return cold, warm, fallbacks
}

// TestCalibratePaperRoundGolden gates the warm recalibration path end to
// end: one round of perfbench's calibrate-paper workload in process,
// through the same public API. kmeans, swish and x264 each get
// leave-one-out priors on the paper's n = 1024 space and a fresh LEO
// controller at 1% machine noise, which calibrates cold, then recalibrates
// warm three times (each window a frozen refit of both metrics), planning
// after every calibration, and finally executes a job that an Optimal
// controller executes too. Every window's accuracies and the energy ratio
// must match to three decimals; a moved digit is a behaviour change.
func TestCalibratePaperRoundGolden(t *testing.T) {
	const (
		deadline = 10.0
		noise    = 0.01
		windows  = 3
	)
	ctx := context.Background()
	space := leo.PaperSpace()
	db, err := leo.CollectProfiles(space, leo.Benchmarks(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	cold0, warm0, fb0 := fitCounts()
	for k, name := range []string{"kmeans", "swish", "x264"} {
		idx, err := db.AppIndex(name)
		if err != nil {
			t.Fatal(err)
		}
		rest, truePerf, truePower, err := db.LeaveOneOut(idx)
		if err != nil {
			t.Fatal(err)
		}
		perfPrior, err := leo.NewModelPrior(rest.Perf, leo.ModelOptions{})
		if err != nil {
			t.Fatal(err)
		}
		powerPrior, err := leo.NewModelPrior(rest.Power, leo.ModelOptions{})
		if err != nil {
			t.Fatal(err)
		}
		app, err := leo.Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		maxRate := 0.0
		for _, v := range truePerf {
			maxRate = max(maxRate, v)
		}
		rng := rand.New(rand.NewSource(int64(7919 + k)))
		machSeed, ctrlSeed, optSeed := rng.Int63(), rng.Int63(), rng.Int63()
		work := (0.3 + 0.5*rng.Float64()) * maxRate * deadline

		mach, err := leo.NewMachine(space, app, noise, rand.New(rand.NewSource(machSeed)))
		if err != nil {
			t.Fatal(err)
		}
		ctrl, err := leo.NewController("LEO", mach, leo.NewLEOEstimatorFromPrior(perfPrior),
			leo.NewLEOEstimatorFromPrior(powerPrior), 0, rand.New(rand.NewSource(ctrlSeed)))
		if err != nil {
			t.Fatal(err)
		}
		got := ""
		for w := 0; w <= windows; w++ {
			if err := ctrl.CalibrateContext(ctx); err != nil {
				t.Fatalf("%s window %d: %v", name, w, err)
			}
			if _, err := ctrl.PlanContext(ctx, work, deadline); err != nil {
				t.Fatalf("%s window %d plan: %v", name, w, err)
			}
			perf, power := ctrl.Estimates()
			got += fmt.Sprintf("%.3f %.3f | ", leo.Accuracy(perf, truePerf), leo.Accuracy(power, truePower))
		}
		job, err := ctrl.ExecuteJobContext(ctx, work, deadline)
		if err != nil {
			t.Fatal(err)
		}
		optMach, err := leo.NewMachine(space, app, noise, rand.New(rand.NewSource(machSeed)))
		if err != nil {
			t.Fatal(err)
		}
		opt, err := leo.NewController("Optimal", optMach,
			leo.NewOracleEstimator(func() []float64 { return app.PhasePerfVector(space, 0) }),
			leo.NewOracleEstimator(func() []float64 { return app.PowerVector(space) }),
			0, rand.New(rand.NewSource(optSeed)))
		if err != nil {
			t.Fatal(err)
		}
		optJob, err := opt.ExecuteJobContext(ctx, work, deadline)
		if err != nil {
			t.Fatal(err)
		}
		got += fmt.Sprintf("%.3f", job.Energy/optJob.Energy)
		if want := calibrateRoundWant[name]; got != want {
			t.Errorf("%s:\n got %s\nwant %s", name, got, want)
		}
	}
	// Each app ran one cold and three warm fits per metric, none rescued.
	cold1, warm1, fb1 := fitCounts()
	if cold1-cold0 != 6 || warm1-warm0 != 18 || fb1 != fb0 {
		t.Errorf("fits: %d cold, %d warm, %d fallbacks; want 6, 18, 0", cold1-cold0, warm1-warm0, fb1-fb0)
	}
}
