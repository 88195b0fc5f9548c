package core

import (
	"context"
	"math/rand"
	"testing"
)

// fitSequence drives s through a multi-window observation schedule drawn
// from seed (cold fit, then warm refits with growing observation sets) and
// returns every Result. The schedule depends only on (seed, n), so two
// sessions given the same seed see identical inputs.
func fitSequence(t *testing.T, s *Session, seed int64) []*Result {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := s.n
	var out []*Result
	for window := 0; window < 4; window++ {
		for k := 0; k < 6; k++ {
			if err := s.Add(rng.Intn(n), 1+rng.Float64()); err != nil {
				t.Fatal(err)
			}
		}
		res, err := s.Fit(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, res)
	}
	return out
}

func sameResults(t *testing.T, label string, got, want []*Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results != %d", label, len(got), len(want))
	}
	for w := range want {
		g, x := got[w], want[w]
		if g.Iterations != x.Iterations || g.Noise != x.Noise || g.Converged != x.Converged {
			t.Fatalf("%s window %d: (iters %d, noise %g, conv %v) != (%d, %g, %v)",
				label, w, g.Iterations, g.Noise, g.Converged, x.Iterations, x.Noise, x.Converged)
		}
		for i := range x.Estimate {
			if g.Estimate[i] != x.Estimate[i] {
				t.Fatalf("%s window %d estimate[%d]: %g != %g", label, w, i, g.Estimate[i], x.Estimate[i])
			}
			if g.Variance[i] != x.Variance[i] {
				t.Fatalf("%s window %d variance[%d]: %g != %g", label, w, i, g.Variance[i], x.Variance[i])
			}
		}
	}
}

// TestRecycledSessionBitIdentical pins the free-list contract: a session
// recycled through Release/NewSession reproduces a fresh session's fit
// sequence bit for bit — cold fit, warm refits, and a restore-then-refit —
// even though its workspace still holds another tenant's scratch data.
func TestRecycledSessionBitIdentical(t *testing.T) {
	known, _, _ := sessionFixture(t)
	prior, err := NewPrior(known, Options{})
	if err != nil {
		t.Fatal(err)
	}
	control, err := NewPrior(known, Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Dirty the pool: run an unrelated fit sequence and release the session.
	dirty := prior.NewSession()
	fitSequence(t, dirty, 99)
	captured := dirty.State()
	dirty.Release()

	// The recycled session (same workspace memory) must match a fresh
	// session over an identical prior, fit for fit.
	recycled := prior.NewSession()
	fresh := control.NewSession()
	sameResults(t, "cold+warm", fitSequence(t, recycled, 7), fitSequence(t, fresh, 7))

	// Restore-then-refit through a recycled session must match too: release
	// again, recycle, and warm-start both sessions from the captured state.
	recycled.Release()
	recycled = prior.NewSession()
	fresh2 := control.NewSession()
	if err := recycled.Restore(captured); err != nil {
		t.Fatal(err)
	}
	if err := fresh2.Restore(captured); err != nil {
		t.Fatal(err)
	}
	sameResults(t, "restore", fitSequence(t, recycled, 11), fitSequence(t, fresh2, 11))
}

// TestSessionPoolRecycles verifies the mechanics: a released session is
// handed back by the next NewSession (workspace reuse), the pool is
// per-prior, and Release resets the session to a cold, observation-free
// state.
func TestSessionPoolRecycles(t *testing.T) {
	known, obsIdx, obsVal := sessionFixture(t)
	prior, err := NewPrior(known, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := prior.NewSession()
	for i, idx := range obsIdx {
		if err := s.Add(idx, obsVal[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Fit(context.Background()); err != nil {
		t.Fatal(err)
	}
	ws := s.ws
	s.Release()
	r := prior.NewSession()
	if r != s || r.ws != ws {
		t.Fatalf("NewSession did not recycle the released session")
	}
	if r.warm || len(r.obsIdx) != 0 || len(r.obsPos) != 0 || r.health != (Health{}) {
		t.Fatalf("recycled session not reset: warm=%v obs=%d health=%+v", r.warm, len(r.obsIdx), r.health)
	}
	if r.ws.wc.ops != nil || r.ws.wc.fitPrepared {
		t.Fatalf("recycled session kept a warm operator cache")
	}
	// A second NewSession with an empty pool allocates fresh.
	s2 := prior.NewSession()
	if s2 == r {
		t.Fatalf("empty pool returned the in-use session")
	}
}
