package core

import (
	"context"
	"math/rand"
	"testing"

	"leo/internal/apps"
	"leo/internal/metrics"
	"leo/internal/platform"
	"leo/internal/profile"
)

// benchFit prepares a leave-one-out fit at the given space and runs it b.N
// times.
func benchFit(b *testing.B, space platform.Space, samples int, opts Options) {
	b.Helper()
	db, err := profile.Collect(space, apps.Suite(), 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	target, err := db.AppIndex("kmeans")
	if err != nil {
		b.Fatal(err)
	}
	rest, truth, _, err := db.LeaveOneOut(target)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	mask := profile.RandomMask(space.N(), samples, rng)
	obs := profile.Observe(truth, mask, 0.01, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Estimate(rest.Perf, obs.Indices, obs.Values, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEstimateCoresOnly(b *testing.B) {
	benchFit(b, platform.CoresOnly(), 6, Options{})
}

func BenchmarkEstimateSmall(b *testing.B) {
	benchFit(b, platform.Small(), 20, Options{})
}

func BenchmarkEstimateSmallFourIter(b *testing.B) {
	benchFit(b, platform.Small(), 20, Options{MaxIter: 4})
}

func BenchmarkEstimateSmallStrictSigma(b *testing.B) {
	benchFit(b, platform.Small(), 20, Options{StrictPaperSigma: true})
}

// BenchmarkEMFitLarge runs the full 1024-configuration leave-one-out fit —
// the paper's §6.7 overhead workload and the headline number tracked in
// BENCH_em.json across PRs. The cold fit runs in its data-subspace frame, so
// a single step costs tens of milliseconds and even -short runs it.
func BenchmarkEMFitLarge(b *testing.B) {
	benchFit(b, platform.Paper(), 20, Options{})
}

// benchWindows prepares W calibration windows of observations for the
// multi-window benchmarks: each window is a fresh random probe mask over the
// same target, the recalibrate-every-window pattern of the controller.
func benchWindows(b *testing.B, space platform.Space, windows, samples int) (rest *profile.Database, obsIdx [][]int, obsVal [][]float64) {
	b.Helper()
	db, err := profile.Collect(space, apps.Suite(), 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	target, err := db.AppIndex("kmeans")
	if err != nil {
		b.Fatal(err)
	}
	rest, truth, _, err := db.LeaveOneOut(target)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	obsIdx = make([][]int, windows)
	obsVal = make([][]float64, windows)
	for w := 0; w < windows; w++ {
		mask := profile.RandomMask(space.N(), samples, rng)
		obs := profile.Observe(truth, mask, 0.01, rng)
		obsIdx[w], obsVal[w] = obs.Indices, obs.Values
	}
	return rest, obsIdx, obsVal
}

const benchWindowCount = 8

// BenchmarkMultiWindowCold refits from the offline prior on every window —
// the pre-session controller behavior (and what SetColdRecalibration pins).
func BenchmarkMultiWindowCold(b *testing.B) {
	rest, obsIdx, obsVal := benchWindows(b, platform.Small(), benchWindowCount, 20)
	prior, err := NewPrior(rest.Perf, Options{})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for w := range obsIdx {
			if _, err := prior.Estimate(ctx, obsIdx[w], obsVal[w]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkMultiWindowWarm serves windows through one long-lived Session and
// times ONE warm window per op: clear the previous window's observations,
// add the new window's, refit. The session is primed (cold fit + first warm
// fit, which builds the frozen-parameter operator cache) before the timer
// starts, so the reported ms/op is the steady-state per-window refit cost —
// the quantity ISSUE 7 pins below 5 ms. (Before PR 7 this benchmark timed
// all 8 windows per op, cold start included; the headline is per warm window
// now.)
func BenchmarkMultiWindowWarm(b *testing.B) {
	benchWarmWindow(b, platform.Small())
}

// BenchmarkMultiWindowWarmLarge is BenchmarkMultiWindowWarm at the paper's
// n = 1024: one steady-state frozen window per op, after an untimed cold
// fit and first warm fit (the one-time O(n³) operator build).
func BenchmarkMultiWindowWarmLarge(b *testing.B) {
	benchWarmWindow(b, platform.Paper())
}

// benchWarmWindow times one steady-state warm window per op over space.
func benchWarmWindow(b *testing.B, space platform.Space) {
	rest, obsIdx, obsVal := benchWindows(b, space, benchWindowCount, 20)
	prior, err := NewPrior(rest.Perf, Options{})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	s := prior.NewSession()
	window := func(w int) {
		s.ClearObservations()
		for j, idx := range obsIdx[w] {
			if err := s.Add(idx, obsVal[w][j]); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := s.Fit(ctx); err != nil {
			b.Fatal(err)
		}
	}
	window(0) // cold fit
	window(1) // first warm fit: builds the operator cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		window(i % benchWindowCount)
	}
}

// eStepBenchState builds the initialized EM state the iteration benchmarks
// step through.
func eStepBenchState(b *testing.B) *Session {
	b.Helper()
	space := platform.Small()
	db, err := profile.Collect(space, apps.Suite(), 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	target, _ := db.AppIndex("kmeans")
	rest, truth, _, err := db.LeaveOneOut(target)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	mask := profile.RandomMask(space.N(), 20, rng)
	obs := profile.Observe(truth, mask, 0.01, rng)
	em := newEMState(rest.Perf, obs.Indices, obs.Values, Options{}.withDefaults())
	em.init()
	return em
}

func BenchmarkEStepOnly(b *testing.B) {
	em := eStepBenchState(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := em.eStep(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// benchEMIterationMetrics runs one full EM iteration (E-step + M-step) with
// the metrics layer globally on or off. The On/Off pair is recorded in
// BENCH_em.json so the observability overhead per iteration stays visible —
// and stays in the noise: the instrumented paths cost two clock reads and a
// few atomic adds per kernel call.
func benchEMIterationMetrics(b *testing.B, enabled bool) {
	em := eStepBenchState(b)
	prev := metrics.Enabled()
	metrics.SetEnabled(enabled)
	defer metrics.SetEnabled(prev)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := em.eStep(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if err := em.mStep(ctx, e); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEMIterationMetricsOn(b *testing.B)  { benchEMIterationMetrics(b, true) }
func BenchmarkEMIterationMetricsOff(b *testing.B) { benchEMIterationMetrics(b, false) }
