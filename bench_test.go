// Benchmarks regenerating every table and figure of the paper's evaluation
// (§6), one per result, plus ablation benches for the design choices listed
// in DESIGN.md §4. Custom metrics attach the headline numbers (accuracies,
// normalized energies) to the benchmark output so a bench run doubles as a
// reproduction record; `go run ./cmd/leo-experiments` prints the full
// tables.
//
// Benches run on the small (128-configuration) space with reduced trial
// counts so the whole suite finishes in minutes on one core;
// BenchmarkLEOOverheadFull runs the paper's full 1024-configuration fit for
// the §6.7 overhead comparison.
package leo

import (
	"context"
	"math/rand"
	"testing"

	"leo/internal/core"
	"leo/internal/experiments"
	"leo/internal/lp"
	"leo/internal/pareto"
	"leo/internal/platform"
	"leo/internal/profile"
	"leo/internal/stats"
)

// benchEnv builds the shared reduced-cost environment.
func benchEnv(b *testing.B) *experiments.Env {
	b.Helper()
	env, err := experiments.NewEnv(experiments.SizeSmall, 42)
	if err != nil {
		b.Fatal(err)
	}
	env.Trials = 2
	return env
}

// BenchmarkFig01Kmeans regenerates Figure 1: the kmeans motivating example
// on the 32-configuration cores-only space.
func BenchmarkFig01Kmeans(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Fig01(context.Background(), env, 20)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(stats.Accuracy(rep.LEOPerf, rep.TruthPerf), "LEO-perf-acc")
	}
}

// BenchmarkFig05PerfAccuracy regenerates Figure 5 (paper means: LEO 0.97,
// Online 0.87, Offline 0.68).
func BenchmarkFig05PerfAccuracy(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Fig05(context.Background(), env)
		if err != nil {
			b.Fatal(err)
		}
		leo, online, offline := rep.Means()
		b.ReportMetric(leo, "LEO-acc")
		b.ReportMetric(online, "Online-acc")
		b.ReportMetric(offline, "Offline-acc")
	}
}

// BenchmarkFig06PowerAccuracy regenerates Figure 6 (paper means: LEO 0.98,
// Online 0.85, Offline 0.89).
func BenchmarkFig06PowerAccuracy(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Fig06(context.Background(), env)
		if err != nil {
			b.Fatal(err)
		}
		leo, online, offline := rep.Means()
		b.ReportMetric(leo, "LEO-acc")
		b.ReportMetric(online, "Online-acc")
		b.ReportMetric(offline, "Offline-acc")
	}
}

// BenchmarkFig07PerfExamples regenerates Figure 7: LEO's performance
// estimates for kmeans, swish and x264 across all configurations.
func BenchmarkFig07PerfExamples(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Fig07(context.Background(), env)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(stats.Accuracy(rep.LEO["kmeans"], rep.Truth["kmeans"]), "kmeans-acc")
	}
}

// BenchmarkFig08PowerExamples regenerates Figure 8: LEO's power estimates
// for the three representative applications.
func BenchmarkFig08PowerExamples(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Fig08(context.Background(), env)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(stats.Accuracy(rep.LEO["swish"], rep.Truth["swish"]), "swish-acc")
	}
}

// BenchmarkFig09Pareto regenerates Figure 9: estimated vs true Pareto
// frontiers for the three representative applications.
func BenchmarkFig09Pareto(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Fig09(context.Background(), env)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.Deviation["kmeans"]["LEO"], "kmeans-LEO-dW")
	}
}

// BenchmarkFig10EnergyCurves regenerates Figure 10: energy vs utilization
// for kmeans, swish and x264 under all approaches.
func BenchmarkFig10EnergyCurves(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Fig10(context.Background(), env, 20)
		if err != nil {
			b.Fatal(err)
		}
		var leo, opt float64
		for j := range rep.Utilizations {
			leo += rep.Energy["kmeans"]["LEO"][j]
			opt += rep.Energy["kmeans"]["Optimal"][j]
		}
		b.ReportMetric(leo/opt, "kmeans-LEO-vs-opt")
	}
}

// BenchmarkFig11EnergySummary regenerates Figure 11 (paper means: LEO 1.06,
// Online 1.24, Offline 1.29, race-to-idle 1.90).
func BenchmarkFig11EnergySummary(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Fig11(context.Background(), env, 10)
		if err != nil {
			b.Fatal(err)
		}
		m := rep.Means()
		b.ReportMetric(m["LEO"], "LEO")
		b.ReportMetric(m["Online"], "Online")
		b.ReportMetric(m["Offline"], "Offline")
		b.ReportMetric(m["RaceToIdle"], "RaceToIdle")
	}
}

// BenchmarkFig12Sensitivity regenerates Figure 12: accuracy vs sample count.
func BenchmarkFig12Sensitivity(b *testing.B) {
	env := benchEnv(b)
	sizes := []int{0, 5, 11, 14, 20, 40}
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Fig12(context.Background(), env, sizes, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.PerfLEO[0], "LEO-0-samples")
		b.ReportMetric(rep.PerfOnline[2], "Online-11-samples")
		b.ReportMetric(rep.PerfLEO[len(sizes)-1], "LEO-40-samples")
	}
}

// BenchmarkFig13Phases regenerates Figure 13: the fluidanimate phased run.
func BenchmarkFig13Phases(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Fig13(context.Background(), env)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rep.Replans["LEO"]), "LEO-replans")
	}
}

// BenchmarkTable1PhaseEnergy regenerates Table 1 (paper: LEO 1.028 overall,
// Offline 1.216, Online 1.291).
func BenchmarkTable1PhaseEnergy(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Table1(context.Background(), env)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.Relative["LEO"][2], "LEO-overall")
		b.ReportMetric(rep.Relative["Offline"][2], "Offline-overall")
		b.ReportMetric(rep.Relative["Online"][2], "Online-overall")
	}
}

// BenchmarkLEOOverheadSmall measures one LEO estimation (§6.7) on the
// 128-configuration space.
func BenchmarkLEOOverheadSmall(b *testing.B) {
	benchOverhead(b, experiments.SizeSmall)
}

// BenchmarkLEOOverheadFull measures one LEO estimation on the paper's
// 1024-configuration space (the number the paper reports as 0.8 s in
// Matlab/BLAS on its 16-core Xeon; the cold fit runs in its data-subspace
// frame, so expect tens of milliseconds of pure Go).
func BenchmarkLEOOverheadFull(b *testing.B) {
	benchOverhead(b, experiments.SizeFull)
}

func benchOverhead(b *testing.B, size experiments.Size) {
	env, err := experiments.NewEnv(size, 42)
	if err != nil {
		b.Fatal(err)
	}
	setup, truth, mask := overheadInputs(b, env)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Estimate(setup, mask, truth, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// overheadInputs prepares the kmeans leave-one-out fit inputs.
func overheadInputs(b *testing.B, env *experiments.Env) (*Matrix, []float64, []int) {
	b.Helper()
	target, err := env.DB.AppIndex("kmeans")
	if err != nil {
		b.Fatal(err)
	}
	rest, truePerf, _, err := env.DB.LeaveOneOut(target)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	mask := profile.RandomMask(env.Space.N(), env.Samples, rng)
	obs := profile.Observe(truePerf, mask, env.Noise, rng)
	return rest.Perf, obs.Values, obs.Indices
}

// --- Ablation benches (DESIGN.md §4) ---

// emAblationInputs prepares a cores-only fit, small enough for the naive
// E-step.
func emAblationInputs(b *testing.B) (*Matrix, []int, []float64) {
	b.Helper()
	db, err := CollectProfiles(CoresOnlySpace(), Benchmarks(), 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	target, err := db.AppIndex("kmeans")
	if err != nil {
		b.Fatal(err)
	}
	rest, truePerf, _, err := db.LeaveOneOut(target)
	if err != nil {
		b.Fatal(err)
	}
	mask := profile.UniformMask(32, 6)
	obs := profile.Observe(truePerf, mask, 0, nil)
	return rest.Perf, obs.Indices, obs.Values
}

// BenchmarkEMSharedCovariance measures the default E-step, which factors one
// shared posterior covariance for all fully observed applications.
func BenchmarkEMSharedCovariance(b *testing.B) {
	known, idx, val := emAblationInputs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Estimate(known, idx, val, core.Options{MaxIter: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEMNaive measures the literal Eq. (3) E-step: one n×n
// factorization per application per iteration.
func BenchmarkEMNaive(b *testing.B) {
	known, idx, val := emAblationInputs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Estimate(known, idx, val, core.Options{MaxIter: 4, NaiveEStep: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEMInitOffline measures EM initialized from the offline mean
// (§5.5's recommended initialization) and reports accuracy.
func BenchmarkEMInitOffline(b *testing.B) {
	benchEMInit(b, false)
}

// BenchmarkEMInitZero measures EM with zero initialization (ablation).
func BenchmarkEMInitZero(b *testing.B) {
	benchEMInit(b, true)
}

func benchEMInit(b *testing.B, zero bool) {
	known, idx, val := emAblationInputs(b)
	db, err := CollectProfiles(CoresOnlySpace(), Benchmarks(), 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	target, _ := db.AppIndex("kmeans")
	_, truth, _, err := db.LeaveOneOut(target)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Estimate(known, idx, val, core.Options{MaxIter: 4, ZeroInit: zero})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(stats.Accuracy(res.Estimate, truth), "accuracy")
	}
}

// scheduleInputs prepares an Eq. (1) instance over the full small space.
func scheduleInputs(b *testing.B) (perf, power []float64, idle, w, t float64) {
	b.Helper()
	app, err := Benchmark("kmeans")
	if err != nil {
		b.Fatal(err)
	}
	space := SmallSpace()
	perf = app.PerfVector(space)
	power = app.PowerVector(space)
	maxRate := 0.0
	for _, v := range perf {
		if v > maxRate {
			maxRate = v
		}
	}
	return perf, power, app.IdlePower, 0.6 * maxRate * 10, 10
}

// BenchmarkScheduleHull measures the closed-form Pareto-hull solution of
// Eq. (1).
func BenchmarkScheduleHull(b *testing.B) {
	perf, power, idle, w, t := scheduleInputs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pareto.MinimizeEnergy(perf, power, idle, w, t); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScheduleSimplex measures the general simplex on the same
// instance (power above idle, slack objective, as the hull solves it).
func BenchmarkScheduleSimplex(b *testing.B) {
	perf, power, idle, w, t := scheduleInputs(b)
	adj := make([]float64, len(power))
	for i := range adj {
		adj[i] = power[i] - idle
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := lp.SolveEnergy(perf, adj, w, t); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColocationPlan measures the multi-tenant coordinator (extension)
// partitioning two tenants over the small space.
func BenchmarkColocationPlan(b *testing.B) {
	space := SmallSpace()
	mkTenant := func(name string, frac float64) Tenant {
		app, err := Benchmark(name)
		if err != nil {
			b.Fatal(err)
		}
		perf := app.PerfVector(space)
		best := 0.0
		for i, v := range perf {
			if space.ConfigAt(i).Threads <= space.Threads/2 && v > best {
				best = v
			}
		}
		return Tenant{Name: name, Perf: perf, Power: app.PowerVector(space), Rate: frac * best}
	}
	tenants := []Tenant{mkTenant("kmeans", 0.5), mkTenant("x264", 0.5)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PlanColocation(space, tenants, 87); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConfigSpaceIndex measures the platform's index flattening.
func BenchmarkConfigSpaceIndex(b *testing.B) {
	s := platform.Paper()
	for i := 0; i < b.N; i++ {
		c := s.ConfigAt(i % s.N())
		if s.Index(c) != i%s.N() {
			b.Fatal("round trip failed")
		}
	}
}
