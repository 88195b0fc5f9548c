package core

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"leo/internal/matrix"
)

func sessionFixture(t testing.TB) (*matrix.Matrix, []int, []float64) {
	return cancelFixture(t)
}

// TestSessionColdMatchesEstimate pins the determinism contract from
// DESIGN.md §8: a cold session over a Prior reproduces the one-shot Estimate
// bit for bit — same initialization, same iteration sequence, same floats.
func TestSessionColdMatchesEstimate(t *testing.T) {
	known, obsIdx, obsVal := sessionFixture(t)
	want, err := Estimate(known, obsIdx, obsVal, Options{})
	if err != nil {
		t.Fatal(err)
	}
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
	got, err := s.Fit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Estimate {
		if got.Estimate[i] != want.Estimate[i] {
			t.Fatalf("estimate[%d]: session %g != one-shot %g", i, got.Estimate[i], want.Estimate[i])
		}
		if got.Variance[i] != want.Variance[i] {
			t.Fatalf("variance[%d]: session %g != one-shot %g", i, got.Variance[i], want.Variance[i])
		}
	}
	if got.Iterations != want.Iterations || got.Noise != want.Noise {
		t.Fatalf("iterations/noise: session (%d, %g) != one-shot (%d, %g)",
			got.Iterations, got.Noise, want.Iterations, want.Noise)
	}
}

// TestSessionWarmStart: a warm refit is an incremental update — it runs on
// the WarmMaxIter budget instead of MaxIter, produces finite values, and
// ForgetPosterior restores the exact cold behavior.
func TestSessionWarmStart(t *testing.T) {
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
	cold, err := s.Fit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	warm, err := s.Fit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if warmCap := prior.Options().WarmMaxIter; warm.Iterations > warmCap {
		t.Fatalf("warm fit took %d iterations, budget is %d", warm.Iterations, warmCap)
	}
	for i, v := range warm.Estimate {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("warm estimate[%d] = %g", i, v)
		}
	}

	// ForgetPosterior restores the exact cold behavior.
	s.ForgetPosterior()
	recold, err := s.Fit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := range cold.Estimate {
		if recold.Estimate[i] != cold.Estimate[i] {
			t.Fatalf("estimate[%d] = %g after ForgetPosterior, want cold value %g", i, recold.Estimate[i], cold.Estimate[i])
		}
	}
}

// TestSessionAddSemantics: out-of-range and non-finite observations are
// rejected; re-observing an index replaces the value (latest wins).
func TestSessionAddSemantics(t *testing.T) {
	known, _, _ := sessionFixture(t)
	prior, err := NewPrior(known, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := prior.NewSession()
	if err := s.Add(-1, 1); err == nil {
		t.Fatal("negative index must be rejected")
	}
	if err := s.Add(prior.Configurations(), 1); err == nil {
		t.Fatal("out-of-range index must be rejected")
	}
	if err := s.Add(0, math.NaN()); err == nil {
		t.Fatal("NaN observation must be rejected")
	}
	if err := s.Add(0, math.Inf(1)); err == nil {
		t.Fatal("Inf observation must be rejected")
	}
	if err := s.Add(3, 1.5); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(5, 2.5); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(3, 9.5); err != nil {
		t.Fatal(err)
	}
	idx, val := s.Observations()
	if len(idx) != 2 || idx[0] != 3 || idx[1] != 5 || val[0] != 9.5 || val[1] != 2.5 {
		t.Fatalf("observations = %v %v, want [3 5] [9.5 2.5]", idx, val)
	}
	s.ClearObservations()
	if idx, _ := s.Observations(); len(idx) != 0 {
		t.Fatalf("ClearObservations left %v", idx)
	}
}

// TestSessionNoData: with an empty database and no observations the fit has
// nothing to learn from.
func TestSessionNoData(t *testing.T) {
	prior, err := NewPrior(matrix.New(0, 4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prior.NewSession().Fit(context.Background()); !errors.Is(err, ErrNoData) {
		t.Fatalf("err = %v, want ErrNoData", err)
	}
}

// TestPriorConcurrentSessions: one Prior shared across goroutines, each with
// its own Session, must produce identical results with no data races (run
// under -race in CI). The ExactEStep prior's sessions cold-start from Σ₀,
// so their first fits race to build it lazily.
func TestPriorConcurrentSessions(t *testing.T) {
	known, obsIdx, obsVal := sessionFixture(t)
	for _, opts := range []Options{{}, {ExactEStep: true}} {
		prior, err := NewPrior(known, opts)
		if err != nil {
			t.Fatal(err)
		}
		const workers = 8
		results := make([]*Result, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				s := prior.NewSession()
				for i, idx := range obsIdx {
					if err := s.Add(idx, obsVal[i]); err != nil {
						t.Error(err)
						return
					}
				}
				res, err := s.Fit(context.Background())
				if err != nil {
					t.Error(err)
					return
				}
				results[w] = res
			}(w)
		}
		wg.Wait()
		for w := 1; w < workers; w++ {
			if results[w] == nil || results[0] == nil {
				t.Fatal("missing result")
			}
			for i := range results[0].Estimate {
				if results[w].Estimate[i] != results[0].Estimate[i] {
					t.Fatalf("exact=%v: worker %d diverged at estimate[%d]", opts.ExactEStep, w, i)
				}
			}
		}
	}
}
