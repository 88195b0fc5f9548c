package leo_test

import (
	"bytes"
	"math/rand"
	"testing"

	"leo"
)

// TestPublicAPIEndToEnd exercises the facade exactly as the README's
// quickstart does: profile, leave one out, sample, estimate, plan, execute.
func TestPublicAPIEndToEnd(t *testing.T) {
	space := leo.SmallSpace()
	if space.N() != 128 {
		t.Fatalf("SmallSpace N = %d", space.N())
	}
	if leo.PaperSpace().N() != 1024 || leo.CoresOnlySpace().N() != 32 {
		t.Fatal("space constructors wrong")
	}

	db, err := leo.CollectProfiles(space, leo.Benchmarks(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if db.NumApps() != len(leo.BenchmarkNames()) {
		t.Fatal("database size mismatch")
	}
	target, err := db.AppIndex("kmeans")
	if err != nil {
		t.Fatal(err)
	}
	rest, truePerf, truePower, err := db.LeaveOneOut(target)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(3))
	mask := leo.RandomMask(space.N(), 20, rng)
	perfObs := leo.Observe(truePerf, mask, 0.01, rng)

	est := leo.NewLEOEstimator(rest.Perf, leo.ModelOptions{})
	pred, err := est.Estimate(perfObs.Indices, perfObs.Values)
	if err != nil {
		t.Fatal(err)
	}
	if acc := leo.Accuracy(pred, truePerf); acc < 0.9 {
		t.Fatalf("public-API LEO accuracy %g", acc)
	}

	// Planning.
	app, err := leo.Benchmark("kmeans")
	if err != nil {
		t.Fatal(err)
	}
	maxRate := 0.0
	for _, v := range truePerf {
		if v > maxRate {
			maxRate = v
		}
	}
	plan, err := leo.MinimizeEnergy(truePerf, truePower, app.IdlePower, 0.5*maxRate*10, 10)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Energy <= 0 || len(plan.Allocations) == 0 {
		t.Fatalf("plan = %+v", plan)
	}

	// Execution.
	mach, err := leo.NewMachine(space, app, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := leo.NewController("LEO", mach,
		leo.NewLEOEstimator(rest.Perf, leo.ModelOptions{}),
		leo.NewLEOEstimator(rest.Power, leo.ModelOptions{}), 20, rng)
	if err != nil {
		t.Fatal(err)
	}
	job, err := ctrl.ExecuteJob(0.5*maxRate*10, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !job.MetDeadline {
		t.Fatalf("public-API controller missed deadline: %+v", job)
	}
}

func TestPublicAPIFitModel(t *testing.T) {
	db, err := leo.CollectProfiles(leo.CoresOnlySpace(), leo.Benchmarks(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	target, _ := db.AppIndex("x264")
	rest, truth, _, err := db.LeaveOneOut(target)
	if err != nil {
		t.Fatal(err)
	}
	mask := leo.UniformMask(32, 8)
	obs := leo.Observe(truth, mask, 0, nil)
	res, err := leo.FitModel(rest.Perf, obs.Indices, obs.Values, leo.ModelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Noise <= 0 || len(res.Estimate) != 32 || len(res.Variance) != 32 {
		t.Fatalf("FitModel result = %+v", res)
	}
}

func TestPublicAPIPowerCap(t *testing.T) {
	app, err := leo.Benchmark("swish")
	if err != nil {
		t.Fatal(err)
	}
	space := leo.SmallSpace()
	perf := app.PerfVector(space)
	power := app.PowerVector(space)
	plan, err := leo.MaximizePerformance(perf, power, app.IdlePower, 150, 10)
	if err != nil {
		t.Fatal(err)
	}
	if avg := plan.TrueEnergy(power, app.IdlePower) / 10; avg > 150+1e-9 {
		t.Fatalf("power cap violated: %g", avg)
	}
	if plan.Work(perf) <= 0 {
		t.Fatal("capped plan should still make progress")
	}
}

func TestPublicAPIParetoHelpers(t *testing.T) {
	perf := []float64{1, 2, 3}
	power := []float64{10, 30, 20}
	front := leo.ParetoFrontier(perf, power)
	if len(front) != 2 {
		t.Fatalf("frontier = %+v", front)
	}
	hull := leo.ParetoHull(front)
	if len(hull) == 0 {
		t.Fatal("empty hull")
	}
}

func TestPublicAPIMatrixAndDatabaseIO(t *testing.T) {
	m := leo.NewMatrixFromRows([][]float64{{1, 2}, {3, 4}})
	if m.At(1, 0) != 3 {
		t.Fatal("matrix constructor broken")
	}
	if leo.NewMatrix(2, 3).Rows != 2 {
		t.Fatal("NewMatrix broken")
	}

	db, err := leo.CollectProfiles(leo.CoresOnlySpace(), leo.Benchmarks(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := leo.LoadDatabase(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumApps() != db.NumApps() {
		t.Fatal("database round trip lost apps")
	}
}

func TestPublicAPICustomApp(t *testing.T) {
	custom := &leo.App{
		Name: "custom", Suite: "test",
		BaseRate: 5, SerialFrac: 0.1, PeakThreads: 10, Contention: 0.2,
		HTBenefit: 0.3, MemIntensity: 0.4, MemCtrlBoost: 0.3, IOFrac: 0.05,
		IdlePower: 80, UncorePower: 10, CorePower: 6, HTPower: 1.5,
		MemPower: 4, FreqExp: 2.5,
	}
	if err := custom.Validate(); err != nil {
		t.Fatal(err)
	}
	space := leo.SmallSpace()
	perf := custom.PerfVector(space)
	power := custom.PowerVector(space)
	if len(perf) != space.N() || len(power) != space.N() {
		t.Fatal("custom app vectors wrong length")
	}
	suite := append(leo.Benchmarks(), custom)
	db, err := leo.CollectProfiles(space, suite, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if db.NumApps() != 26 {
		t.Fatalf("custom suite size %d", db.NumApps())
	}
}
