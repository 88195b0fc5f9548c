package baseline

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

// scenario bundles a leave-one-out setup on the small space.
type scenario struct {
	space platform.Space
	known *matrix.Matrix
	truth []float64
}

func perfScenario(t *testing.T, target string, space platform.Space) scenario {
	t.Helper()
	db, err := profile.Collect(space, apps.Suite(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	i, err := db.AppIndex(target)
	if err != nil {
		t.Fatal(err)
	}
	rest, perf, _, err := db.LeaveOneOut(i)
	if err != nil {
		t.Fatal(err)
	}
	return scenario{space: space, known: rest.Perf, truth: perf}
}

func TestOfflineIsColumnMean(t *testing.T) {
	sc := perfScenario(t, "kmeans", platform.CoresOnly())
	off, err := NewOffline(sc.known)
	if err != nil {
		t.Fatal(err)
	}
	if off.Name() != "Offline" {
		t.Fatalf("Name = %q", off.Name())
	}
	est, err := off.Estimate([]int{3}, []float64{999})
	if err != nil {
		t.Fatal(err)
	}
	want := stats.ColumnMeans(sc.known)
	if matrix.Norm2(matrix.SubVec(est, want)) > 1e-12 {
		t.Fatal("offline estimate is not the column mean")
	}
	// Observations must be ignored.
	est2, err := off.Estimate(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(est, est2) {
		t.Fatal("offline estimate must ignore observations")
	}
}

func TestOfflineNeedsData(t *testing.T) {
	if _, err := NewOffline(matrix.New(0, 8)); err == nil {
		t.Fatal("empty database must error")
	}
}

func TestExhaustiveReturnsTruth(t *testing.T) {
	truth := []float64{1, 2, 3}
	ex := NewExhaustive(truth)
	if ex.Name() != "Exhaustive" {
		t.Fatalf("Name = %q", ex.Name())
	}
	est, err := ex.Estimate(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(est, truth) {
		t.Fatal("exhaustive must return the truth")
	}
	est[0] = 42
	if truth[0] != 1 {
		t.Fatal("estimate must not alias the stored truth")
	}
}

func TestOnlineBasisSizes(t *testing.T) {
	if n := NewOnline(platform.Paper()).NumTerms(); n != 15 {
		t.Fatalf("full-space basis = %d terms, want 15 (paper Fig. 12)", n)
	}
	if n := NewOnline(platform.CoresOnly()).NumTerms(); n != 4 {
		t.Fatalf("cores-only basis = %d terms, want 4 (1, c, c², c³)", n)
	}
	// The two-speed small space supports only linear frequency terms.
	if n := NewOnline(platform.Small()).NumTerms(); n != 12 {
		t.Fatalf("small-space basis = %d terms, want 12", n)
	}
}

func TestOnlineRankDeficientBelowThreshold(t *testing.T) {
	sc := perfScenario(t, "kmeans", platform.Paper())
	on := NewOnline(sc.space)
	rng := rand.New(rand.NewSource(1))
	mask := profile.RandomMask(sc.space.N(), 14, rng)
	obs := profile.Observe(sc.truth, mask, 0, nil)
	_, err := on.Estimate(obs.Indices, obs.Values)
	if !errors.Is(err, ErrTooFewSamples) {
		t.Fatalf("14 samples must be rank deficient on the 15-term basis, got %v", err)
	}
}

func TestOnlineFitsSmoothSurface(t *testing.T) {
	// A surface inside the basis's span must be recovered exactly.
	space := platform.Small()
	on := NewOnline(space)
	truth := make([]float64, space.N())
	for i := range truth {
		c, f, m := space.Features(i)
		cn, fn, mn := c/32, f/platform.TurboFreqGHz, m/2
		truth[i] = 3 + 2*cn + 1.5*fn + 0.5*mn + cn*cn - 0.3*cn*fn
	}
	rng := rand.New(rand.NewSource(2))
	mask := profile.RandomMask(space.N(), 40, rng)
	obs := profile.Observe(truth, mask, 0, nil)
	est, err := on.Estimate(obs.Indices, obs.Values)
	if err != nil {
		t.Fatal(err)
	}
	if acc := stats.Accuracy(est, truth); acc < 0.999 {
		t.Fatalf("in-span surface accuracy = %g", acc)
	}
}

func TestOnlineWorseThanLEOOnSharpPeak(t *testing.T) {
	// The paper's motivating claim (§2): polynomial regression with 6
	// samples cannot track kmeans's sharp peak-and-collapse shape as well as
	// LEO, which transfers the shape from a previously seen application.
	sc := perfScenario(t, "kmeans", platform.CoresOnly())
	mask := profile.UniformMask(32, 6)
	obs := profile.Observe(sc.truth, mask, 0, nil)
	onEst, err := NewOnline(sc.space).Estimate(obs.Indices, obs.Values)
	if err != nil {
		t.Fatal(err)
	}
	leoEst, err := NewLEO(sc.known, coreOptions()).Estimate(obs.Indices, obs.Values)
	if err != nil {
		t.Fatal(err)
	}
	onAcc := stats.Accuracy(onEst, sc.truth)
	leoAcc := stats.Accuracy(leoEst, sc.truth)
	if onAcc >= leoAcc {
		t.Fatalf("cubic regression (%g) should trail LEO (%g) on the sharp peak", onAcc, leoAcc)
	}
}

func TestOnlineErrors(t *testing.T) {
	on := NewOnline(platform.CoresOnly())
	if _, err := on.Estimate([]int{0, 1}, []float64{1}); err == nil {
		t.Fatal("length mismatch must error")
	}
	if _, err := on.Estimate([]int{0, 1, 2, 99}, []float64{1, 2, 3, 4}); err == nil {
		t.Fatal("out-of-range index must error")
	}
}

func TestOnlineDuplicateSamplesFallBackToRidge(t *testing.T) {
	// Enough samples by count but zero information: the ridge fallback
	// still produces a finite (if useless) estimate instead of failing.
	on := NewOnline(platform.CoresOnly())
	idx := []int{5, 5, 5, 5}
	val := []float64{2, 2, 2, 2}
	est, err := on.Estimate(idx, val)
	if err != nil {
		t.Fatalf("ridge fallback should handle duplicates, got %v", err)
	}
	for _, v := range est {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("ridge fallback produced %g", v)
		}
	}
}

func TestLEOAdapter(t *testing.T) {
	sc := perfScenario(t, "kmeans", platform.CoresOnly())
	leo := NewLEO(sc.known, coreOptions())
	if leo.Name() != "LEO" {
		t.Fatalf("Name = %q", leo.Name())
	}
	mask := profile.UniformMask(32, 6)
	obs := profile.Observe(sc.truth, mask, 0, nil)
	est, err := leo.Estimate(obs.Indices, obs.Values)
	if err != nil {
		t.Fatal(err)
	}
	if acc := stats.Accuracy(est, sc.truth); acc < 0.85 {
		t.Fatalf("LEO adapter accuracy = %g", acc)
	}
	if _, err := leo.Estimate([]int{-1}, []float64{1}); err == nil {
		t.Fatal("adapter must propagate core errors")
	}
}

// TestHeadToHeadOrdering reproduces the paper's central comparison on the
// kmeans example: LEO > Online and LEO > Offline in estimation accuracy.
func TestHeadToHeadOrdering(t *testing.T) {
	sc := perfScenario(t, "kmeans", platform.Small())
	rng := rand.New(rand.NewSource(3))
	mask := profile.RandomMask(sc.space.N(), 20, rng)
	obs := profile.Observe(sc.truth, mask, 0, nil)

	leoEst, err := NewLEO(sc.known, coreOptions()).Estimate(obs.Indices, obs.Values)
	if err != nil {
		t.Fatal(err)
	}
	onEst, err := NewOnline(sc.space).Estimate(obs.Indices, obs.Values)
	if err != nil {
		t.Fatal(err)
	}
	off, err := NewOffline(sc.known)
	if err != nil {
		t.Fatal(err)
	}
	offEst, _ := off.Estimate(nil, nil)

	leoAcc := stats.Accuracy(leoEst, sc.truth)
	onAcc := stats.Accuracy(onEst, sc.truth)
	offAcc := stats.Accuracy(offEst, sc.truth)
	if leoAcc <= onAcc || leoAcc <= offAcc {
		t.Fatalf("ordering violated: LEO %g, Online %g, Offline %g", leoAcc, onAcc, offAcc)
	}
	if leoAcc < 0.8 {
		t.Fatalf("LEO accuracy = %g", leoAcc)
	}
}

func TestByName(t *testing.T) {
	sc := perfScenario(t, "x264", platform.CoresOnly())
	for _, name := range []string{"LEO", "Online", "Offline", "Exhaustive"} {
		e, err := ByName(name, sc.space, sc.known, sc.truth)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if e.Name() != name {
			t.Fatalf("ByName(%q).Name() = %q", name, e.Name())
		}
	}
	if _, err := ByName("racetoidle", sc.space, sc.known, sc.truth); err == nil {
		t.Fatal("unknown estimator must error")
	}
}

func TestMathIsFinite(t *testing.T) {
	// All estimators must produce finite predictions on a plain scenario.
	sc := perfScenario(t, "swish", platform.Small())
	rng := rand.New(rand.NewSource(4))
	mask := profile.RandomMask(sc.space.N(), 24, rng)
	obs := profile.Observe(sc.truth, mask, 0.02, rng)
	off, _ := NewOffline(sc.known)
	for _, e := range []Estimator{NewLEO(sc.known, coreOptions()), NewOnline(sc.space), off, NewExhaustive(sc.truth)} {
		est, err := e.Estimate(obs.Indices, obs.Values)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		for i, v := range est {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s produced %g at %d", e.Name(), v, i)
			}
		}
	}
}
