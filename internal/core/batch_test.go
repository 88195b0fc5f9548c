package core

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"leo/internal/apps"
	"leo/internal/matrix"
	"leo/internal/platform"
	"leo/internal/profile"
)

// batchFixture returns the shared prior database plus nTenants disjoint
// observation sets drawn from distinct seed lanes, modeling tenants of one
// application class observing different configurations.
func batchFixture(t testing.TB, nTenants int) (*matrix.Matrix, [][]int, [][]float64) {
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
	idx := make([][]int, nTenants)
	val := make([][]float64, nTenants)
	for i := 0; i < nTenants; i++ {
		rng := rand.New(rand.NewSource(int64(100 + i)))
		mask := profile.RandomMask(space.N(), 12+i, rng)
		obs := profile.Observe(truth, mask, 0.01, rng)
		idx[i], val[i] = obs.Indices, obs.Values
	}
	return rest.Perf, idx, val
}

func addAll(t testing.TB, s *Session, idx []int, val []float64) {
	t.Helper()
	for i, ix := range idx {
		if err := s.Add(ix, val[i]); err != nil {
			t.Fatal(err)
		}
	}
}

func requireSameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("%s: nil result (got=%v want=%v)", label, got == nil, want == nil)
	}
	for i := range want.Estimate {
		if got.Estimate[i] != want.Estimate[i] {
			t.Fatalf("%s: estimate[%d] %g != %g", label, i, got.Estimate[i], want.Estimate[i])
		}
		if got.Variance[i] != want.Variance[i] {
			t.Fatalf("%s: variance[%d] %g != %g", label, i, got.Variance[i], want.Variance[i])
		}
	}
	if got.Iterations != want.Iterations || got.Noise != want.Noise || got.Converged != want.Converged {
		t.Fatalf("%s: (iter,noise,conv) (%d,%g,%v) != (%d,%g,%v)",
			label, got.Iterations, got.Noise, got.Converged, want.Iterations, want.Noise, want.Converged)
	}
}

// TestFitBatchMatchesIndividualFits pins the coalescing contract: a batched
// pass over same-Prior sessions is bit-identical to fitting each session
// alone — across both the cold first window and a warm second window, where
// the frozen-moment warm cache is in play.
func TestFitBatchMatchesIndividualFits(t *testing.T) {
	const nTenants = 5
	known, idx, val := batchFixture(t, nTenants)
	prior, err := NewPrior(known, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	batched := make([]*Session, nTenants)
	solo := make([]*Session, nTenants)
	for i := 0; i < nTenants; i++ {
		batched[i] = prior.NewSession()
		solo[i] = prior.NewSession()
		addAll(t, batched[i], idx[i], val[i])
		addAll(t, solo[i], idx[i], val[i])
	}

	// Window 1: cold fits.
	outs, err := FitBatch(ctx, batched)
	if err != nil {
		t.Fatal(err)
	}
	for i := range solo {
		want, err := solo[i].Fit(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if outs[i].Err != nil {
			t.Fatalf("batched session %d: %v", i, outs[i].Err)
		}
		requireSameResult(t, "cold", outs[i].Result, want)
	}

	// Window 2: one more observation each, warm refits over the frozen cache.
	for i := 0; i < nTenants; i++ {
		extra := (idx[i][0] + 7 + i) % prior.n
		v := val[i][0] * 1.01
		if err := batched[i].Add(extra, v); err != nil {
			t.Fatal(err)
		}
		if err := solo[i].Add(extra, v); err != nil {
			t.Fatal(err)
		}
	}
	outs, err = FitBatch(ctx, batched)
	if err != nil {
		t.Fatal(err)
	}
	for i := range solo {
		want, err := solo[i].Fit(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if outs[i].Err != nil {
			t.Fatalf("batched session %d: %v", i, outs[i].Err)
		}
		requireSameResult(t, "warm", outs[i].Result, want)
	}
}

func TestFitBatchRejectsMixedPriors(t *testing.T) {
	known, idx, val := batchFixture(t, 1)
	a, err := NewPrior(known, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPrior(known.Clone(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	sa, sb := a.NewSession(), b.NewSession()
	addAll(t, sa, idx[0], val[0])
	addAll(t, sb, idx[0], val[0])
	if _, err := FitBatch(context.Background(), []*Session{sa, sb}); err == nil {
		t.Fatal("FitBatch accepted sessions from different Priors")
	}
	if _, err := FitBatch(context.Background(), []*Session{sa, nil}); err == nil {
		t.Fatal("FitBatch accepted a nil session")
	}
}

func TestFitBatchEmptyAndCanceled(t *testing.T) {
	outs, err := FitBatch(context.Background(), nil)
	if err != nil || len(outs) != 0 {
		t.Fatalf("empty batch: outs=%d err=%v", len(outs), err)
	}
	known, idx, val := batchFixture(t, 1)
	prior, err := NewPrior(known, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := prior.NewSession()
	addAll(t, s, idx[0], val[0])
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := FitBatch(ctx, []*Session{s}); err == nil {
		t.Fatal("pre-canceled context: FitBatch did not fail")
	}
}

// TestConcurrentSessionsSharedPriorBitIdentical pins the immutability
// contract the shard design relies on: N goroutines fitting disjoint
// sessions against one shared Prior, their fits borrowing scratch from one
// shared free list as an estimator's sessions do from concurrent shards,
// must produce results bit-identical to fitting the same sessions serially.
// Run under -race this also proves the Prior is never written after
// construction and that no two fits in flight share scratch.
func TestConcurrentSessionsSharedPriorBitIdentical(t *testing.T) {
	const nTenants = 8
	known, idx, val := batchFixture(t, nTenants)
	prior, err := NewPrior(known, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Serial reference: fresh sessions, two windows each (cold then warm).
	serial := make([]*Result, nTenants)
	for i := 0; i < nTenants; i++ {
		s := prior.NewSession()
		addAll(t, s, idx[i][:8], val[i][:8])
		if _, err := s.Fit(ctx); err != nil {
			t.Fatal(err)
		}
		addAll(t, s, idx[i][8:], val[i][8:])
		res, err := s.Fit(ctx)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = res
	}

	concurrent := make([]*Result, nTenants)
	errs := make([]error, nTenants)
	fl := prior.NewFreeList()
	var wg sync.WaitGroup
	for i := 0; i < nTenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := fl.NewSession()
			for j, ix := range idx[i][:8] {
				if errs[i] = s.Add(ix, val[i][j]); errs[i] != nil {
					return
				}
			}
			if _, errs[i] = s.Fit(ctx); errs[i] != nil {
				return
			}
			for j, ix := range idx[i][8:] {
				if errs[i] = s.Add(ix, val[i][8+j]); errs[i] != nil {
					return
				}
			}
			concurrent[i], errs[i] = s.Fit(ctx)
		}(i)
	}
	wg.Wait()
	for i := 0; i < nTenants; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		requireSameResult(t, "concurrent-vs-serial", concurrent[i], serial[i])
	}
}
