package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"leo/internal/apps"
	"leo/internal/matrix"
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
	samePosterior(t, what, sa, sb)
	if a.Noise != b.Noise {
		t.Fatalf("%s: noise %v != %v", what, a.Noise, b.Noise)
	}
	for i := range a.Variance {
		if a.Variance[i] != b.Variance[i] {
			t.Fatalf("%s: variance[%d] %v != %v", what, i, a.Variance[i], b.Variance[i])
		}
	}
}

// samePosterior requires two warm states' posteriors to be bit-identical:
// μ, σ² and Σ in its frame (α, Ω, Q, Σ′).
func samePosterior(t *testing.T, what string, sa, sb *SessionState) {
	t.Helper()
	eq := func(field string, a, b []float64) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: %s lengths %d vs %d", what, field, len(a), len(b))
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s: %s[%d] %v != %v", what, field, i, a[i], b[i])
			}
		}
	}
	eq("mu", sa.Mu, sb.Mu)
	eq("alpha, sigma2", []float64{sa.Alpha, sa.Sigma2}, []float64{sb.Alpha, sb.Sigma2})
	if (sa.Q == nil) != (sb.Q == nil) || len(sa.Omega) != len(sb.Omega) {
		t.Fatalf("%s: frames differ in shape", what)
	}
	for i := range sa.Omega {
		if sa.Omega[i] != sb.Omega[i] {
			t.Fatalf("%s: omega[%d] %d != %d", what, i, sa.Omega[i], sb.Omega[i])
		}
	}
	if sa.Q != nil {
		eq("Q", sa.Q.Data, sb.Q.Data)
	}
	if sa.SigmaFrame.Rows != sb.SigmaFrame.Rows {
		t.Fatalf("%s: frame dimensions %d vs %d", what, sa.SigmaFrame.Rows, sb.SigmaFrame.Rows)
	}
	eq("sigma frame", sa.SigmaFrame.Data, sb.SigmaFrame.Data)
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
	frozen := *warmSt
	frozen.Mu = coldSt.Mu
	samePosterior(t, "warm fit moved Σ", &frozen, coldSt)
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
// can't silently regress toward the old 126 allocs/op.
func TestWarmFitAllocBudget(t *testing.T) {
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
// refit forms no n×n target posterior covariance. The "paper size" case
// extends the budget to every step at n = 1024.
func TestFitBytesBudget(t *testing.T) {
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
	t.Run("paper size", fitBytesBudgetPaperSize)
}

// fitBytesBudgetPaperSize pins, at the paper's n = 1024, that no step of a
// session's life on the frame path allocates an n×n matrix (8·n² bytes,
// 8.39 MB): opening a session, a cold fit, capturing a warm subspace-frame
// session's State, the first frozen refit after a cold fit, which builds
// the operators, and a one-shot Prior.Estimate. Two steps have tighter
// bounds. A cold fit builds its frame with no n×r scratch beyond Q, its
// basis and its workspace: 795,024 B when the rows' coordinates took a GEMM
// and the variance diagonal an n×r product, 598,176 B without. A second
// Prior.Estimate recycles the first one's released session.
func fitBytesBudgetPaperSize(t *testing.T) {
	space := platform.Paper()
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
	n := prior.Configurations()
	budget := uint64(8 * n * n)
	rng := rand.New(rand.NewSource(50))
	masks := [][]int{profile.RandomMask(n, 20, rng), profile.RandomMask(n, 20, rng)}
	ctx := context.Background()
	bytes := func(step func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		step()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	var s *Session
	fit := func(mask []int) func() {
		return func() {
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
	}
	estimate := func() {
		vals := make([]float64, len(masks[0]))
		for i, idx := range masks[0] {
			vals[i] = truth[idx]
		}
		if _, err := prior.Estimate(ctx, masks[0], vals); err != nil {
			t.Fatal(err)
		}
	}
	steps := []struct {
		name  string
		run   func()
		bound uint64 // 0: the n×n budget
	}{
		{"Prior.NewSession", func() { s = prior.NewSession() }, 0},
		{"cold fit", fit(masks[0]), 700_000},
		{"Session.State", func() {
			if s.heldFrame() == nil {
				t.Fatal("cold fit left no subspace frame")
			}
			s.State()
		}, 0},
		{"first frozen refit", fit(masks[1]), 0},
		{"Prior.Estimate", estimate, 0},
		{"second Prior.Estimate", estimate, 64 << 10},
	}
	for _, step := range steps {
		bound := step.bound
		if bound == 0 {
			bound = budget
		}
		b := bytes(step.run)
		t.Logf("n=%d: %s allocated %d B, budget %d B", n, step.name, b, bound)
		if b >= bound {
			t.Errorf("%s allocated %d bytes, budget %d", step.name, b, bound)
		}
	}
}

// TestIdentityFrameWarmBitsPinned pins the estimate and variance bits of an
// n = 32 warm sequence, whose cold fit lands in the identity frame (24
// full-rank rows plus 10 probes span every configuration), so that a change
// to the identity-frame frozen refit moves this digest only on purpose. It
// was last re-recorded when frozen refits took the database rows' posterior
// means as one sum and the target's ẑ_M from a forward solve, which moved
// the estimates at round-off.
func TestIdentityFrameWarmBitsPinned(t *testing.T) {
	known, truth, _ := kmeansLOO(t)
	prior, err := NewPrior(known, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := prior.NewSession()
	rng := rand.New(rand.NewSource(48))
	ctx := context.Background()
	h := fnvOffset
	for w, k := range []int{10, 8, 12, 8, 0, 9} {
		s.ClearObservations()
		for _, idx := range profile.RandomMask(32, k, rng) {
			if err := s.Add(idx, truth[idx]*(1+0.01*float64(w))); err != nil {
				t.Fatal(err)
			}
		}
		res, err := s.Fit(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if s.heldFrame() != nil {
			t.Fatalf("window %d: posterior left the identity frame", w)
		}
		if w > 0 && !s.frozen {
			t.Fatalf("window %d: warm refit did not run frozen", w)
		}
		for i := range res.Estimate {
			h = fnvU64(h, math.Float64bits(res.Estimate[i]))
			h = fnvU64(h, math.Float64bits(res.Variance[i]))
		}
	}
	const want uint64 = 0xd8ff6ddc4ccd3f65
	if h != want {
		t.Fatalf("identity-frame warm sequence digest %#016x, want %#016x", h, want)
	}
}

// TestSubspaceFrameBitsPinned pins every bit a subspace-frame session
// produces: each fit's estimate and variance and the State() it leaves (μ,
// α, Ω, Q, Σ′, σ²). Per prior it runs a cold fit, four frozen refits (k =
// 20, 17, 0, 23), a Restore into a fresh session and one more refit, over
// the kmeans, swish and x264 leave-one-out perf and power priors at the
// paper's n = 1024 and kmeans's two at n = 128. The power database's rank
// of 19 and the odd window sizes reach the kernels' block remainders. The
// register-blocked kernels keep every output element's reduction order, so
// they must not move the digest. It was last re-recorded when cold fits
// built their basis by classical Gram–Schmidt with reorthogonalization in
// row order, took the rows' coordinates from its R factor and the variance
// diagonal from the lower triangle of G = Σ′−αI, which rotated Q and moved
// every fit's estimates, variances and μ at round-off.
func TestSubspaceFrameBitsPinned(t *testing.T) {
	ctx := context.Background()
	h := fnvOffset
	hashState := func(st *SessionState) {
		for _, v := range st.Mu {
			h = fnvU64(h, math.Float64bits(v))
		}
		h = fnvU64(h, math.Float64bits(st.Alpha))
		for _, j := range st.Omega {
			h = fnvU64(h, uint64(j))
		}
		if st.Q != nil {
			h = fnvMatrix(h, st.Q)
		}
		h = fnvMatrix(h, st.SigmaFrame)
		h = fnvU64(h, math.Float64bits(st.Sigma2))
	}
	fit := func(s *Session, name string, w, k int, truth []float64, rng *rand.Rand) {
		s.ClearObservations()
		for _, idx := range profile.RandomMask(len(truth), k, rng) {
			if err := s.Add(idx, truth[idx]*(1+0.01*float64(w))); err != nil {
				t.Fatal(err)
			}
		}
		res, err := s.Fit(ctx)
		if err != nil {
			t.Fatalf("%s window %d: %v", name, w, err)
		}
		if s.heldFrame() == nil {
			t.Fatalf("%s window %d: posterior left the subspace frame", name, w)
		}
		for i := range res.Estimate {
			h = fnvU64(h, math.Float64bits(res.Estimate[i]))
			h = fnvU64(h, math.Float64bits(res.Variance[i]))
		}
		hashState(s.State())
	}
	for _, c := range []struct {
		space platform.Space
		apps  []string
	}{
		{platform.Paper(), []string{"kmeans", "swish", "x264"}},
		{platform.Small(), []string{"kmeans"}},
	} {
		db, err := profile.Collect(c.space, apps.Suite(), 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, app := range c.apps {
			target, err := db.AppIndex(app)
			if err != nil {
				t.Fatal(err)
			}
			rest, perf, power, err := db.LeaveOneOut(target)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range []struct {
				metric string
				known  *matrix.Matrix
				truth  []float64
			}{{"perf", rest.Perf, perf}, {"power", rest.Power, power}} {
				name := fmt.Sprintf("%s/%s n=%d", app, m.metric, c.space.N())
				prior, err := NewPrior(m.known, Options{})
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(int64(target*7 + len(m.metric))))
				s := prior.NewSession()
				for w, k := range []int{20, 20, 17, 0, 23} {
					fit(s, name, w, k, m.truth, rng)
					if w > 0 && !s.frozen {
						t.Fatalf("%s window %d: warm refit did not run frozen", name, w)
					}
				}
				restored := prior.NewSession()
				if err := restored.Restore(s.State()); err != nil {
					t.Fatalf("%s: restore: %v", name, err)
				}
				fit(restored, name, 5, 20, m.truth, rng)
			}
		}
	}
	const want uint64 = 0x3256a1fbc8a20166
	if h != want {
		t.Fatalf("subspace-frame fit sequence digest %#016x, want %#016x", h, want)
	}
}

// TestFrozenOpsTransfer pins class-seed operator sharing, whose parameter
// digest FrozenOps takes at export: a session restored from the donor's
// state adopts the donor's export and its next frozen refit carries the
// bits of a session that rebuilt the operators itself, while a set exported
// at other parameters is declined, by another session and by the donor once
// a cold refit has moved its posterior.
func TestFrozenOpsTransfer(t *testing.T) {
	prior, truth := warmTestSetup(t)
	n := prior.Configurations()
	rng := rand.New(rand.NewSource(47))
	ctx := context.Background()
	fitOn := func(s *Session, mask []int) *Result {
		t.Helper()
		s.ClearObservations()
		for _, idx := range mask {
			if err := s.Add(idx, truth[idx]); err != nil {
				t.Fatal(err)
			}
		}
		res, err := s.Fit(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	donor := prior.NewSession()
	fitOn(donor, profile.RandomMask(n, 20, rng))
	ops, err := donor.FrozenOps()
	if err != nil {
		t.Fatal(err)
	}
	st := donor.State()

	adopted, rebuilt := prior.NewSession(), prior.NewSession()
	for _, s := range []*Session{adopted, rebuilt} {
		if err := s.Restore(st); err != nil {
			t.Fatal(err)
		}
	}
	if !adopted.AdoptFrozenOps(ops) {
		t.Fatal("a session restored from the donor's state declined the donor's operators")
	}
	next := profile.RandomMask(n, 20, rng)
	resA, resR := fitOn(adopted, next), fitOn(rebuilt, next)
	if !adopted.frozen || adopted.ws.wc.ops != ops.ops {
		t.Fatal("the adopted refit did not run frozen on the donor's operator set")
	}
	if rebuilt.ws.wc.ops == ops.ops {
		t.Fatal("the rebuilding session shares the donor's operator set")
	}
	sameResult(t, "adopted vs rebuilt frozen refit", resA, resR, adopted.State(), rebuilt.State())

	other := prior.NewSession()
	fitOn(other, profile.RandomMask(n, 20, rng))
	if other.AdoptFrozenOps(ops) {
		t.Fatal("a session cold-fitted on other observations adopted the donor's operators")
	}
	donor.ForgetPosterior()
	fitOn(donor, profile.RandomMask(n, 20, rng))
	if donor.AdoptFrozenOps(ops) {
		t.Fatal("the donor adopted its own export after a cold refit moved its posterior")
	}
}
