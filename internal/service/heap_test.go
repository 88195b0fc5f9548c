package service

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"leo/internal/profile"
)

// tenantHeapBudget bounds the live heap one seeded tenant adds to a server
// at n = 128 once its windows are served: its two sessions' posteriors
// (μ, σ², observations; Q and Σ′ are the class seed's, shared by
// reference), its published estimates and its bookkeeping. Fit scratch is
// borrowed per fit from the class tier's free lists and is not the
// tenant's.
const tenantHeapBudget = 16 << 10

// TestTenantHeapBudget registers a class-seed donor and then T tenants the
// donor's seed warm-starts, drives each through two windows on an
// in-process server, and bounds the live heap per tenant after a forced GC.
// Requests go straight to the shards, so the reading counts the server
// alone, not an HTTP front end or a traffic schedule. It read about 118 KB
// per tenant when each session kept its last fit's scratch and a private
// copy of the seed's frame, and reads about 6 KB without them.
func TestTenantHeapBudget(t *testing.T) {
	const tenants = 64
	f := newFixture(t)
	cfg := f.config()
	cfg.Shards = 1 // one shard, one class seed
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := srv.Close(context.Background()); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	n := f.space.N()
	rng := rand.New(rand.NewSource(27))
	call := func(r *request) {
		t.Helper()
		resp, err := srv.dispatch(r)
		if err == nil {
			err = resp.err
		}
		if err != nil {
			t.Fatalf("%s: %v", r.tenant, err)
		}
	}
	serve := func(name string) {
		t.Helper()
		r := getRequest()
		r.op, r.tenant, r.class = opRegister, name, "kmeans"
		call(r)
		for w := 0; w < 2; w++ {
			mask := profile.RandomMask(n, 12, rng)
			r := getRequest()
			r.op, r.tenant, r.obsIdx = opObserve, name, mask
			r.perf, r.power = make([]float64, len(mask)), make([]float64, len(mask))
			for i, j := range mask {
				r.perf[i], r.power[i] = f.truePerf[j], f.truePower[j]
			}
			call(r)
		}
	}
	liveHeap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	serve("donor")
	transfers := mSeedTransfers.Value()
	before := liveHeap()
	for i := 0; i < tenants; i++ {
		serve(fmt.Sprintf("tenant-%03d", i))
	}
	after := liveHeap()
	if got := mSeedTransfers.Value() - transfers; got != tenants {
		t.Fatalf("%d of %d tenants were seeded from the donor", got, tenants)
	}
	per := (int64(after) - int64(before)) / tenants
	t.Logf("live heap %d B per seeded tenant at n=%d, budget %d B", per, n, tenantHeapBudget)
	if per > tenantHeapBudget {
		t.Fatalf("a seeded tenant holds %d B of live heap, budget %d B", per, tenantHeapBudget)
	}
	runtime.KeepAlive(srv)
}
