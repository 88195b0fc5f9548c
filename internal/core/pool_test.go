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
	return fitSequences(t, seed, s)[0]
}

// fitSequences runs fitSequence's schedule on several sessions at once,
// window by window in turn, session i on seed+i, so consecutive fits come
// from different sessions.
func fitSequences(t *testing.T, seed int64, sessions ...*Session) [][]*Result {
	t.Helper()
	rngs := make([]*rand.Rand, len(sessions))
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(seed + int64(i)))
	}
	out := make([][]*Result, len(sessions))
	for window := 0; window < 4; window++ {
		for i, s := range sessions {
			for k := 0; k < 6; k++ {
				if err := s.Add(rngs[i].Intn(s.n), 1+rngs[i].Float64()); err != nil {
					t.Fatal(err)
				}
			}
			res, err := s.Fit(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			out[i] = append(out[i], res)
		}
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

// TestRecycledSessionBitIdentical pins the free-list contract: sessions
// whose fits borrow one scratch set in turn, each fit starting on what
// another session's fit left in it, reproduce bit for bit sessions that
// each have scratch of their own — cold fits, frozen refits, and a
// restore-then-refit.
func TestRecycledSessionBitIdentical(t *testing.T) {
	known, _, _ := sessionFixture(t)
	prior, err := NewPrior(known, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fl := prior.NewFreeList()

	// Dirty the scratch with an unrelated fit sequence.
	dirty := fl.NewSession()
	fitSequence(t, dirty, 99)
	captured := dirty.State()
	if len(fl.free) != 1 {
		t.Fatalf("free list holds %d scratch sets after serial fits, want 1", len(fl.free))
	}
	sc := fl.free[0]

	// Two sessions alternate windows on that one scratch set; each must
	// match a session over a fresh free list, fit for fit.
	a, b := fl.NewSession(), fl.NewSession()
	got := fitSequences(t, 7, a, b)
	sameResults(t, "cold+warm a", got[0], fitSequence(t, prior.NewFreeList().NewSession(), 7))
	sameResults(t, "cold+warm b", got[1], fitSequence(t, prior.NewFreeList().NewSession(), 8))

	// Restore-then-refit on the recycled scratch must match too.
	recycled, fresh := fl.NewSession(), prior.NewFreeList().NewSession()
	for _, s := range []*Session{recycled, fresh} {
		if err := s.Restore(captured); err != nil {
			t.Fatal(err)
		}
	}
	sameResults(t, "restore", fitSequence(t, recycled, 11), fitSequence(t, fresh, 11))
	if len(fl.free) != 1 || fl.free[0] != sc {
		t.Fatal("the fits did not recycle the one scratch set")
	}
}

// TestFreeListRecyclesScratch verifies the mechanics: a session holds no
// scratch between fits, a fit or an operator build outside one borrows a
// set and returns it unbound from the session's frame, and only fits in
// flight together need sets of their own.
func TestFreeListRecyclesScratch(t *testing.T) {
	known, obsIdx, obsVal := sessionFixture(t)
	prior, err := NewPrior(known, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fl := prior.NewFreeList()
	s := fl.NewSession()
	addAll(t, s, obsIdx, obsVal)
	if _, err := s.Fit(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s.fitScratch != nil || len(fl.free) != 1 {
		t.Fatalf("after a fit the session holds scratch (%v) and the list %d sets, want none and 1",
			s.fitScratch != nil, len(fl.free))
	}
	sc := fl.free[0]
	h := s.heldFrame()
	if h == nil {
		t.Fatal("cold fit left no subspace frame")
	}
	if sc.sub.q == h.q || sc.sub.sigma == h.sigma {
		t.Fatal("the scratch kept the frame its cold fit handed to the session")
	}

	// A frozen refit and an operator build outside a fit bind the scratch to
	// the held frame and unbind it on return.
	if _, err := s.Fit(context.Background()); err != nil {
		t.Fatal(err)
	}
	s.ops = nil
	if _, err := s.FrozenOps(); err != nil {
		t.Fatal(err)
	}
	if len(fl.free) != 1 || fl.free[0] != sc {
		t.Fatal("the refit and the operator build did not recycle the scratch")
	}
	if sc.sub.bound || sc.sub.q != nil || sc.sub.sigma != nil || sc.sub.omega != nil {
		t.Fatal("a returned scratch still references the session's frame")
	}

	// A second fit in flight while the first session holds its set gets a
	// set of its own, and both come back.
	if !s.borrow() {
		t.Fatal("borrow did not take the free set")
	}
	other := fl.NewSession()
	addAll(t, other, obsIdx, obsVal)
	if _, err := other.Fit(context.Background()); err != nil {
		t.Fatal(err)
	}
	s.giveBack()
	if len(fl.free) != 2 || fl.free[0] == fl.free[1] {
		t.Fatalf("free list holds %d sets after two fits in flight, want 2 distinct", len(fl.free))
	}
}
