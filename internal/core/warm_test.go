package core

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"leo/internal/apps"
	"leo/internal/platform"
	"leo/internal/profile"
)

// warmTestSetup returns a prior over the leave-one-out database plus the
// target's ground truth, the raw material for warm-refit sequences.
func warmTestSetup(t testing.TB) (*Prior, []float64) {
	t.Helper()
	space := platform.Small()
	db, err := profile.Collect(space, apps.Suite(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	target, err := db.AppIndex("kmeans")
	if err != nil {
		t.Fatal(err)
	}
	rest, truth, _, err := db.LeaveOneOut(target)
	if err != nil {
		t.Fatal(err)
	}
	prior, err := NewPrior(rest.Perf, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return prior, truth
}

// sameResult requires two fits' Results, and the session parameters each
// left behind (Session.State after the fit), to be bit-identical.
func sameResult(t *testing.T, what string, a, b *Result, sa, sb *SessionState) {
	t.Helper()
	if len(a.Estimate) != len(b.Estimate) {
		t.Fatalf("%s: estimate lengths %d vs %d", what, len(a.Estimate), len(b.Estimate))
	}
	for i := range a.Estimate {
		if a.Estimate[i] != b.Estimate[i] {
			t.Fatalf("%s: estimate[%d] %v != %v", what, i, a.Estimate[i], b.Estimate[i])
		}
	}
	for i := range sa.Mu {
		if sa.Mu[i] != sb.Mu[i] {
			t.Fatalf("%s: mu[%d] %v != %v", what, i, sa.Mu[i], sb.Mu[i])
		}
	}
	for i := range sa.Sigma.Data {
		if sa.Sigma.Data[i] != sb.Sigma.Data[i] {
			t.Fatalf("%s: sigma[%d] %v != %v", what, i, sa.Sigma.Data[i], sb.Sigma.Data[i])
		}
	}
	if a.Noise != b.Noise {
		t.Fatalf("%s: noise %v != %v", what, a.Noise, b.Noise)
	}
	for i := range a.Variance {
		if a.Variance[i] != b.Variance[i] {
			t.Fatalf("%s: variance[%d] %v != %v", what, i, a.Variance[i], b.Variance[i])
		}
	}
}

// TestWarmFitFreezesSigma pins the frozen-parameter contract: a default-path
// warm refit updates μ but leaves Σ and σ² exactly as the cold fit's
// posterior, which is what makes the warm operator cache exact rather than
// approximate.
func TestWarmFitFreezesSigma(t *testing.T) {
	prior, truth := warmTestSetup(t)
	rng := rand.New(rand.NewSource(41))
	ctx := context.Background()
	s := prior.NewSession()
	mask := profile.RandomMask(prior.Configurations(), 20, rng)
	for _, idx := range mask {
		if err := s.Add(idx, truth[idx]); err != nil {
			t.Fatal(err)
		}
	}
	cold, err := s.Fit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	coldSt := s.State()
	mask2 := profile.RandomMask(prior.Configurations(), 20, rng)
	s.ClearObservations()
	for _, idx := range mask2 {
		if err := s.Add(idx, truth[idx]); err != nil {
			t.Fatal(err)
		}
	}
	warm, err := s.Fit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	warmSt := s.State()
	for i := range warmSt.Sigma.Data {
		if warmSt.Sigma.Data[i] != coldSt.Sigma.Data[i] {
			t.Fatalf("warm fit moved Σ[%d]: %v -> %v", i, coldSt.Sigma.Data[i], warmSt.Sigma.Data[i])
		}
	}
	if warm.Noise != cold.Noise {
		t.Fatalf("warm fit moved σ: %v -> %v", cold.Noise, warm.Noise)
	}
	muMoved := false
	for i := range warmSt.Mu {
		if warmSt.Mu[i] != coldSt.Mu[i] {
			muMoved = true
			break
		}
	}
	if !muMoved {
		t.Fatal("warm fit with new observations left μ untouched")
	}
}

// runWarmSequence drives one session through a cold fit followed by warm
// refits in two shapes — an accumulate phase (one new observation per fit)
// and a clear-per-window phase (the controller's DropObservations pattern)
// — and returns every Result with the session state after it. When fresh
// is true the warm operator cache is invalidated before each fit, forcing
// the operator rebuild the cached path must reproduce.
func runWarmSequence(t *testing.T, prior *Prior, truth []float64, fresh bool) ([]*Result, []*SessionState) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	ctx := context.Background()
	s := prior.NewSession()
	n := prior.Configurations()
	perm := rng.Perm(n)
	var out []*Result
	var states []*SessionState

	fit := func() {
		t.Helper()
		if fresh {
			s.ws.wc.invalidate()
		}
		res, err := s.Fit(ctx)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, res)
		states = append(states, s.State())
	}

	// Accumulate: start from 5 observations (cold), then one more per fit.
	for i := 0; i < 5; i++ {
		if err := s.Add(perm[i], truth[perm[i]]); err != nil {
			t.Fatal(err)
		}
	}
	fit()
	for i := 5; i < 15; i++ {
		if err := s.Add(perm[i], truth[perm[i]]); err != nil {
			t.Fatal(err)
		}
		fit()
	}
	// Latest-wins replacement: same index set, new value.
	if err := s.Add(perm[7], truth[perm[7]]*1.01); err != nil {
		t.Fatal(err)
	}
	fit()
	// Clear-per-window: three windows of fresh masks.
	for w := 0; w < 3; w++ {
		s.ClearObservations()
		mask := profile.RandomMask(n, 20, rng)
		for _, idx := range mask {
			if err := s.Add(idx, truth[idx]); err != nil {
				t.Fatal(err)
			}
		}
		fit()
	}
	return out, states
}

// TestWarmIncrementalMatchesFresh is the tentpole property test: every warm
// refit served from the operator cache must be bit-identical to the same
// refit computed with the cache rebuilt — not merely within 1e-8,
// identical, because the cache is a pure function of the frozen parameters.
func TestWarmIncrementalMatchesFresh(t *testing.T) {
	prior, truth := warmTestSetup(t)
	inc, incSt := runWarmSequence(t, prior, truth, false)
	ref, refSt := runWarmSequence(t, prior, truth, true)
	if len(inc) != len(ref) {
		t.Fatalf("sequence lengths differ: %d vs %d", len(inc), len(ref))
	}
	for i := range inc {
		sameResult(t, "fit "+string(rune('0'+i%10)), inc[i], ref[i], incSt[i], refSt[i])
	}
}

// TestWarmRestoreBitIdentity extends the PR-6 restore contract across the
// incremental warm path: a session restored from a snapshot rebuilds its
// operators from scratch, while the live session keeps its cached ones —
// their subsequent fits must still be bit-identical.
func TestWarmRestoreBitIdentity(t *testing.T) {
	prior, truth := warmTestSetup(t)
	rng := rand.New(rand.NewSource(43))
	ctx := context.Background()
	n := prior.Configurations()
	perm := rng.Perm(n)

	live := prior.NewSession()
	for i := 0; i < 6; i++ {
		if err := live.Add(perm[i], truth[perm[i]]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := live.Fit(ctx); err != nil {
		t.Fatal(err)
	}
	if err := live.Add(perm[6], truth[perm[6]]); err != nil {
		t.Fatal(err)
	}
	if _, err := live.Fit(ctx); err != nil {
		t.Fatal(err)
	}

	st := live.State()
	restored := prior.NewSession()
	if err := restored.Restore(st); err != nil {
		t.Fatal(err)
	}

	for i := 7; i < 10; i++ {
		if err := live.Add(perm[i], truth[perm[i]]); err != nil {
			t.Fatal(err)
		}
		if err := restored.Add(perm[i], truth[perm[i]]); err != nil {
			t.Fatal(err)
		}
		a, err := live.Fit(ctx)
		if err != nil {
			t.Fatal(err)
		}
		b, err := restored.Fit(ctx)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "restored fit", a, b, live.State(), restored.State())
	}
}

// TestWarmEstimateAccuracy sanity-checks that frozen warm refits still track
// the target. A warm refit capped at WarmMaxIter iterations never matched a
// full cold fit closely (the pre-frozen warm path was ~2× further from the
// ground truth than this one on the same sequence), so the guard is
// accuracy-anchored: the warm estimate's worst relative error against the
// ground truth must stay comparable to the cold fit's.
func TestWarmEstimateAccuracy(t *testing.T) {
	prior, truth := warmTestSetup(t)
	rng := rand.New(rand.NewSource(44))
	ctx := context.Background()
	n := prior.Configurations()
	s := prior.NewSession()
	var warm, cold *Result
	for w := 0; w < 4; w++ {
		mask := profile.RandomMask(n, 20, rng)
		s.ClearObservations()
		for _, idx := range mask {
			if err := s.Add(idx, truth[idx]); err != nil {
				t.Fatal(err)
			}
		}
		var err error
		warm, err = s.Fit(ctx)
		if err != nil {
			t.Fatal(err)
		}
		idxs := make([]int, len(mask))
		vals := make([]float64, len(mask))
		for i, idx := range mask {
			idxs[i], vals[i] = idx, truth[idx]
		}
		cold, err = prior.Estimate(ctx, idxs, vals)
		if err != nil {
			t.Fatal(err)
		}
	}
	warmErr, coldErr := 0.0, 0.0
	for i := range warm.Estimate {
		if v := warm.Estimate[i]; math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("non-finite warm estimate")
		}
		if d := math.Abs(warm.Estimate[i]-truth[i]) / (1 + math.Abs(truth[i])); d > warmErr {
			warmErr = d
		}
		if d := math.Abs(cold.Estimate[i]-truth[i]) / (1 + math.Abs(truth[i])); d > coldErr {
			coldErr = d
		}
	}
	if warmErr > 1.5*coldErr+0.05 {
		t.Fatalf("warm worst relative error %.3f vs cold %.3f", warmErr, coldErr)
	}
}

// TestWarmFitAllocBudget pins the warm-refit allocation budget: with the
// operator cache warm (latest-wins replacement pattern), one Session.Fit may
// allocate only the Result it hands back plus the soft non-convergence error
// — not per-window scratch. The exact figure is pinned so the frozen path
// can't silently regress toward the old 126 allocs/op. GOMAXPROCS(1) forces
// the inline kernel path, as in TestEMIterationAllocs — parallel fan-out
// allocates goroutines.
func TestWarmFitAllocBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	prior, truth := warmTestSetup(t)
	rng := rand.New(rand.NewSource(45))
	ctx := context.Background()
	n := prior.Configurations()
	s := prior.NewSession()
	mask := profile.RandomMask(n, 20, rng)
	for _, idx := range mask {
		if err := s.Add(idx, truth[idx]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Fit(ctx); err != nil { // cold
		t.Fatal(err)
	}
	if _, err := s.Fit(ctx); err != nil { // warm: builds the cache
		t.Fatal(err)
	}
	scale := 1.0
	allocs := testing.AllocsPerRun(10, func() {
		scale *= 1.0001
		if err := s.Add(mask[0], truth[mask[0]]*scale); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Fit(ctx); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 16
	if allocs > budget {
		t.Fatalf("warm Fit allocated %v times, budget %d", allocs, budget)
	}
}

// TestFitBytesBudget pins what one Session.Fit allocates in bytes, measured
// with runtime.MemStats.TotalAlloc over several fits: a cold fit on a
// recycled session and a steady-state frozen refit each stay below one n×n
// matrix (8·n² bytes). Neither may copy Σ into its Result, and the frozen
// refit forms no n×n target posterior covariance.
func TestFitBytesBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	prior, truth := warmTestSetup(t)
	n := prior.Configurations()
	rng := rand.New(rand.NewSource(46))
	ctx := context.Background()
	masks := make([][]int, 4)
	for i := range masks {
		masks[i] = profile.RandomMask(n, 20, rng)
	}
	fit := func(s *Session, mask []int) {
		t.Helper()
		s.ClearObservations()
		for _, idx := range mask {
			if err := s.Add(idx, truth[idx]); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Fit(ctx); err != nil {
			t.Fatal(err)
		}
	}
	const fits = 8
	bytesPerFit := func(one func(i int)) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < fits; i++ {
			one(i)
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / fits
	}
	budget := uint64(8 * n * n)

	s := prior.NewSession()
	fit(s, masks[0]) // sizes the session's frame workspace
	cold := bytesPerFit(func(i int) {
		s.Release()
		s = prior.NewSession()
		fit(s, masks[i%len(masks)])
	})
	if cold >= budget {
		t.Errorf("cold fit on a recycled session allocated %d bytes, budget %d", cold, budget)
	}

	fit(s, masks[1]) // first warm refit: builds the operator cache
	frozen := bytesPerFit(func(i int) { fit(s, masks[i%len(masks)]) })
	t.Logf("n=%d: cold %d B/fit, frozen %d B/fit, budget %d B", n, cold, frozen, budget)
	if frozen >= budget {
		t.Errorf("frozen refit allocated %d bytes, budget %d", frozen, budget)
	}
}
