package core

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"leo/internal/apps"
	"leo/internal/matrix"
	"leo/internal/platform"
	"leo/internal/profile"
	"leo/internal/stats"
)

// kmeansLOO builds the paper's motivating scenario: the 32-configuration
// cores-only space, kmeans as the unseen target, all other suite apps
// profiled offline.
func kmeansLOO(t *testing.T) (known *matrix.Matrix, truth []float64, offline []float64) {
	t.Helper()
	space := platform.CoresOnly()
	db, err := profile.Collect(space, apps.Suite(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	target, err := db.AppIndex("kmeans")
	if err != nil {
		t.Fatal(err)
	}
	rest, perf, _, err := db.LeaveOneOut(target)
	if err != nil {
		t.Fatal(err)
	}
	return rest.Perf, perf, stats.ColumnMeans(rest.Perf)
}

func TestEstimateKmeansMotivatingExample(t *testing.T) {
	known, truth, offline := kmeansLOO(t)
	// 6 uniform samples, as in §2 (5, 10, ..., 30 cores).
	mask := profile.UniformMask(32, 6)
	obs := profile.Observe(truth, mask, 0, nil)

	res, err := Estimate(known, obs.Indices, obs.Values, Options{})
	if err != nil {
		t.Fatal(err)
	}
	leoAcc := stats.Accuracy(res.Estimate, truth)
	offAcc := stats.Accuracy(offline, truth)
	if leoAcc < 0.85 {
		t.Fatalf("LEO accuracy on kmeans = %g, want >= 0.85", leoAcc)
	}
	if leoAcc <= offAcc {
		t.Fatalf("LEO (%g) must beat Offline (%g) on kmeans", leoAcc, offAcc)
	}
	// LEO must place the performance peak near 8 cores (the paper's
	// headline qualitative claim).
	peak := slices.Index(res.Estimate, slices.Max(res.Estimate))
	if peakThreads := peak + 1; peakThreads < 6 || peakThreads > 10 {
		t.Fatalf("LEO places kmeans peak at %d threads, want near 8", peakThreads)
	}
}

func TestEstimateZeroObservationsActsLikeOffline(t *testing.T) {
	known, truth, offline := kmeansLOO(t)
	res, err := Estimate(known, nil, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 12: with 0 samples LEO behaves as the offline method. The
	// prediction equals the fitted μ, which stays within a few percent of
	// the offline column mean.
	for i := range res.Estimate {
		rel := math.Abs(res.Estimate[i]-offline[i]) / (1 + math.Abs(offline[i]))
		if rel > 0.2 {
			t.Fatalf("zero-obs prediction at %d = %g, offline %g", i, res.Estimate[i], offline[i])
		}
	}
	accLeo := stats.Accuracy(res.Estimate, truth)
	accOff := stats.Accuracy(offline, truth)
	if math.Abs(accLeo-accOff) > 0.15 {
		t.Fatalf("zero-obs LEO accuracy %g far from offline %g", accLeo, accOff)
	}
}

func TestEstimateFullObservationRecoversTruth(t *testing.T) {
	known, truth, _ := kmeansLOO(t)
	idx := make([]int, len(truth))
	for i := range idx {
		idx[i] = i
	}
	res, err := Estimate(known, idx, truth, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if acc := stats.Accuracy(res.Estimate, truth); acc < 0.99 {
		t.Fatalf("fully observed accuracy = %g", acc)
	}
}

func TestEstimateMoreSamplesHelp(t *testing.T) {
	known, truth, _ := kmeansLOO(t)
	rng := rand.New(rand.NewSource(1))
	accAt := func(k int) float64 {
		total := 0.0
		const trials = 5
		for trial := 0; trial < trials; trial++ {
			mask := profile.RandomMask(len(truth), k, rng)
			obs := profile.Observe(truth, mask, 0, nil)
			res, err := Estimate(known, obs.Indices, obs.Values, Options{})
			if err != nil {
				t.Fatal(err)
			}
			total += stats.Accuracy(res.Estimate, truth)
		}
		return total / trials
	}
	if a0, a16 := accAt(0), accAt(16); a16 < a0 {
		t.Fatalf("accuracy with 16 samples (%g) below 0 samples (%g)", a16, a0)
	}
}

func TestEstimateRobustToMeasurementNoise(t *testing.T) {
	known, truth, _ := kmeansLOO(t)
	rng := rand.New(rand.NewSource(2))
	mask := profile.RandomMask(len(truth), 12, rng)
	obs := profile.Observe(truth, mask, 0.05, rng)
	res, err := Estimate(known, obs.Indices, obs.Values, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if acc := stats.Accuracy(res.Estimate, truth); acc < 0.7 {
		t.Fatalf("noisy accuracy = %g", acc)
	}
}

func TestEstimatePowerMetric(t *testing.T) {
	space := platform.Small()
	db, err := profile.Collect(space, apps.Suite(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	target, _ := db.AppIndex("streamcluster")
	rest, _, power, err := db.LeaveOneOut(target)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	mask := profile.RandomMask(space.N(), 20, rng)
	obs := profile.Observe(power, mask, 0, nil)
	res, err := Estimate(rest.Power, obs.Indices, obs.Values, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if acc := stats.Accuracy(res.Estimate, power); acc < 0.9 {
		t.Fatalf("power accuracy = %g", acc)
	}
}

// TestNaiveEStepMatchesFastPath holds a four-iteration fit on the cores-only
// kmeans problem to the dense reference EM.
func TestNaiveEStepMatchesFastPath(t *testing.T) {
	known, truth, _ := kmeansLOO(t)
	mask := profile.UniformMask(32, 6)
	obs := profile.Observe(truth, mask, 0, nil)

	fast, err := Estimate(known, obs.Indices, obs.Values, Options{MaxIter: 4})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := refEM(known, obs.Indices, obs.Values, Options{MaxIter: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range fast.Estimate {
		rel := math.Abs(fast.Estimate[i]-naive.Estimate[i]) / (1 + math.Abs(fast.Estimate[i]))
		if rel > 1e-6 {
			t.Fatalf("naive and fast E-steps disagree at %d: %g vs %g", i, fast.Estimate[i], naive.Estimate[i])
		}
	}
	if math.Abs(fast.Noise-naive.Noise)/(1+fast.Noise) > 1e-6 {
		t.Fatalf("noise differs: %g vs %g", fast.Noise, naive.Noise)
	}
}

func TestStrictPaperSigmaStillWorks(t *testing.T) {
	known, truth, _ := kmeansLOO(t)
	mask := profile.UniformMask(32, 6)
	obs := profile.Observe(truth, mask, 0, nil)
	res, err := Estimate(known, obs.Indices, obs.Values, Options{StrictPaperSigma: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Estimate {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("strict variant produced %g", v)
		}
	}
	if acc := stats.Accuracy(res.Estimate, truth); acc < 0.5 {
		t.Fatalf("strict variant accuracy = %g", acc)
	}
}

func TestZeroInitStillConverges(t *testing.T) {
	known, truth, _ := kmeansLOO(t)
	mask := profile.UniformMask(32, 8)
	obs := profile.Observe(truth, mask, 0, nil)
	res, err := Estimate(known, obs.Indices, obs.Values, Options{ZeroInit: true})
	if err != nil {
		t.Fatal(err)
	}
	if acc := stats.Accuracy(res.Estimate, truth); acc < 0.6 {
		t.Fatalf("zero-init accuracy = %g", acc)
	}
}

func TestInitMuOverride(t *testing.T) {
	known, truth, offline := kmeansLOO(t)
	mask := profile.UniformMask(32, 6)
	obs := profile.Observe(truth, mask, 0, nil)
	res, err := Estimate(known, obs.Indices, obs.Values, Options{InitMu: offline})
	if err != nil {
		t.Fatal(err)
	}
	if acc := stats.Accuracy(res.Estimate, truth); acc < 0.8 {
		t.Fatalf("explicit-init accuracy = %g", acc)
	}
}

func TestEstimateDeterministic(t *testing.T) {
	known, truth, _ := kmeansLOO(t)
	mask := profile.UniformMask(32, 6)
	obs := profile.Observe(truth, mask, 0, nil)
	a, err := Estimate(known, obs.Indices, obs.Values, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Estimate(known, obs.Indices, obs.Values, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Estimate {
		if a.Estimate[i] != b.Estimate[i] {
			t.Fatal("Estimate is not deterministic")
		}
	}
}

func TestEstimateConvergenceMetadata(t *testing.T) {
	known, truth, _ := kmeansLOO(t)
	mask := profile.UniformMask(32, 6)
	obs := profile.Observe(truth, mask, 0, nil)
	res, st := fitSession(t, known, obs.Indices, obs.Values, Options{MaxIter: 50})
	if !res.Converged {
		t.Fatal("EM did not converge in 50 iterations")
	}
	if res.Iterations < 2 || res.Iterations > 50 {
		t.Fatalf("Iterations = %d", res.Iterations)
	}
	if res.Noise <= 0 {
		t.Fatalf("Noise = %g", res.Noise)
	}
	sigma := st.DenseSigma()
	if len(st.Mu) != 32 || sigma.Rows != 32 {
		t.Fatal("fitted parameter shapes wrong")
	}
	if !sigma.IsSymmetric(1e-9) {
		t.Fatal("fitted Σ not symmetric")
	}
}

func TestEstimateOnlineOnly(t *testing.T) {
	// No offline applications at all: M = 1. The model degenerates
	// gracefully (prediction pulled toward the prior where unobserved).
	truth := make([]float64, 16)
	for i := range truth {
		truth[i] = 50 + float64(i)
	}
	idx := make([]int, 8)
	val := make([]float64, 8)
	for i := range idx {
		idx[i] = i * 2
		val[i] = truth[i*2]
	}
	res, err := Estimate(matrix.New(0, 16), idx, val, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Estimate {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("online-only estimate produced %g", v)
		}
	}
	// Observed entries should be close to their measurements.
	for i, id := range idx {
		if math.Abs(res.Estimate[id]-val[i]) > 0.25*val[i] {
			t.Fatalf("observed entry %d: estimate %g vs measured %g", id, res.Estimate[id], val[i])
		}
	}
}

func TestEstimateErrors(t *testing.T) {
	known := matrix.New(2, 4)
	cases := []struct {
		name string
		fn   func() error
	}{
		{"zero width", func() error {
			_, err := Estimate(matrix.New(2, 0), nil, nil, Options{})
			return err
		}},
		{"length mismatch", func() error {
			_, err := Estimate(known, []int{0, 1}, []float64{1}, Options{})
			return err
		}},
		{"no data", func() error {
			_, err := Estimate(matrix.New(0, 4), nil, nil, Options{})
			return err
		}},
		{"index out of range", func() error {
			_, err := Estimate(known, []int{4}, []float64{1}, Options{})
			return err
		}},
		{"negative index", func() error {
			_, err := Estimate(known, []int{-1}, []float64{1}, Options{})
			return err
		}},
		{"duplicate index", func() error {
			_, err := Estimate(known, []int{1, 1}, []float64{1, 2}, Options{})
			return err
		}},
		{"bad InitMu", func() error {
			_, err := Estimate(known, []int{1}, []float64{1}, Options{InitMu: []float64{1}})
			return err
		}},
		{"NaN observation", func() error {
			_, err := Estimate(known, []int{1}, []float64{math.NaN()}, Options{})
			return err
		}},
	}
	for _, tc := range cases {
		if tc.fn() == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	nan := matrix.New(1, 4)
	nan.Set(0, 2, math.Inf(1))
	if _, err := Estimate(nan, []int{1}, []float64{1}, Options{}); err == nil {
		t.Error("non-finite offline data: expected error")
	}
}

func TestErrNoDataSentinel(t *testing.T) {
	_, err := Estimate(matrix.New(0, 4), nil, nil, Options{})
	if !errors.Is(err, ErrNoData) {
		t.Fatalf("want ErrNoData, got %v", err)
	}
}

// TestEstimateInputVariant: the paper stresses tradeoffs are input-dependent
// (§1). Profile the suite with reference inputs, then estimate kmeans
// running a *different* input (larger, more memory-bound, earlier peak):
// LEO must still transfer.
func TestEstimateInputVariant(t *testing.T) {
	space := platform.CoresOnly()
	db, err := profile.Collect(space, apps.Suite(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	target, err := db.AppIndex("kmeans")
	if err != nil {
		t.Fatal(err)
	}
	rest, _, _, err := db.LeaveOneOut(target)
	if err != nil {
		t.Fatal(err)
	}
	variant, err := apps.MustByName("kmeans").WithInput(apps.Input{
		SizeScale: 1.8, MemShift: 0.15, PeakShift: -2,
	})
	if err != nil {
		t.Fatal(err)
	}
	truth := variant.PerfVector(space)
	mask := profile.UniformMask(space.N(), 8)
	obs := profile.Observe(truth, mask, 0, nil)
	res, err := Estimate(rest.Perf, obs.Indices, obs.Values, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if acc := stats.Accuracy(res.Estimate, truth); acc < 0.8 {
		t.Fatalf("input-variant accuracy = %g", acc)
	}
}

// TestOfflineInitBeatsZeroInit reproduces the §5.5 observation that
// initializing μ from the offline estimate improves accuracy.
func TestOfflineInitBeatsZeroInit(t *testing.T) {
	known, truth, _ := kmeansLOO(t)
	rng := rand.New(rand.NewSource(11))
	sumOff, sumZero := 0.0, 0.0
	const trials = 6
	for trial := 0; trial < trials; trial++ {
		mask := profile.RandomMask(len(truth), 6, rng)
		obs := profile.Observe(truth, mask, 0, nil)
		off, err := Estimate(known, obs.Indices, obs.Values, Options{MaxIter: 4})
		if err != nil {
			t.Fatal(err)
		}
		zero, err := Estimate(known, obs.Indices, obs.Values, Options{MaxIter: 4, ZeroInit: true})
		if err != nil {
			t.Fatal(err)
		}
		sumOff += stats.Accuracy(off.Estimate, truth)
		sumZero += stats.Accuracy(zero.Estimate, truth)
	}
	if sumOff < sumZero-0.05*trials {
		t.Fatalf("offline init (%g) should be at least as good as zero init (%g)", sumOff/trials, sumZero/trials)
	}
}

// TestErrNotConvergedDistinguishable pins the degradation-ladder contract:
// iteration-budget exhaustion is a soft, typed error carrying a usable
// Result, while hard numerical failure returns no Result and does not match
// the type.
func TestErrNotConvergedDistinguishable(t *testing.T) {
	known, truth, _ := kmeansLOO(t)
	mask := profile.UniformMask(32, 6)
	obs := profile.Observe(truth, mask, 0, nil)

	// One iteration with an unreachable tolerance cannot converge.
	res, err := Estimate(known, obs.Indices, obs.Values,
		Options{MaxIter: 1, Tol: 1e-300, StrictConvergence: true})
	var nc *ErrNotConverged
	if !errors.As(err, &nc) {
		t.Fatalf("err = %v, want *ErrNotConverged", err)
	}
	if nc.Iterations != 1 {
		t.Fatalf("Iterations = %d, want 1", nc.Iterations)
	}
	if !IsNotConverged(err) {
		t.Fatal("IsNotConverged(err) = false")
	}
	if res == nil || res.Converged || len(res.Estimate) != 32 {
		t.Fatalf("soft failure must still carry the capped result, got %+v", res)
	}
	for _, v := range res.Estimate {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("capped estimate contains %g", v)
		}
	}

	// Without StrictConvergence the same fit reports only via Converged.
	res, err = Estimate(known, obs.Indices, obs.Values, Options{MaxIter: 1, Tol: 1e-300})
	if err != nil {
		t.Fatalf("lenient mode surfaced %v", err)
	}
	if res.Converged {
		t.Fatal("lenient mode claims convergence")
	}

	// Hard failure: non-finite observations are rejected outright.
	bad := append([]float64(nil), obs.Values...)
	bad[0] = math.NaN()
	res, err = Estimate(known, obs.Indices, bad, Options{StrictConvergence: true})
	if err == nil || res != nil {
		t.Fatalf("hard failure returned (%v, %v)", res, err)
	}
	if IsNotConverged(err) {
		t.Fatal("hard failure misclassified as non-convergence")
	}
}
