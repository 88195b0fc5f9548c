package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"leo/internal/matrix"
)

// identityState returns st with its posterior moved to the identity frame:
// the same μ and σ² with the materialized dense Σ.
func identityState(st *SessionState) *SessionState {
	out := *st
	out.SigmaFrame = st.DenseSigma()
	out.Alpha, out.Omega, out.Q = 0, nil, nil
	return &out
}

// closeVec requires |a−b| ≤ tol·(1+|b|) entrywise.
func closeVec(t *testing.T, what string, a, b []float64, tol float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: lengths %d vs %d", what, len(a), len(b))
	}
	for i := range a {
		if d := math.Abs(a[i] - b[i]); !(d <= tol*(1+math.Abs(b[i]))) {
			t.Fatalf("%s[%d]: frame %.17g vs dense %.17g", what, i, a[i], b[i])
		}
	}
}

// TestFrozenFrameMatchesDenseProperty holds frozen refits on a cold fit's
// subspace frame to the same refits on the materialized dense posterior
// (the identity-frame frozen path) at 1e-10: estimate, variance and μ,
// across randomized n, database rows and window sizes, with windows that
// observe nothing, a subset of the cold fit's Ω, configurations disjoint
// from it, and a mix, under π ≠ 1 and StrictPaperSigma, and on a frame
// with no basis directions.
func TestFrozenFrameMatchesDenseProperty(t *testing.T) {
	const tol = 1e-10
	rng := rand.New(rand.NewSource(91))
	ctx := context.Background()
	for trial := 0; trial < 24; trial++ {
		n := 20 + rng.Intn(60)
		rows := 2 + rng.Intn(8)
		k0 := 1 + rng.Intn(10)
		opts := Options{Pi: []float64{1, 0.4, 2.5}[trial%3], StrictPaperSigma: trial%4 == 3}
		name := fmt.Sprintf("trial %d n=%d rows=%d k0=%d pi=%g strict=%v",
			trial, n, rows, k0, opts.Pi, opts.StrictPaperSigma)

		// A database with a common shape plus per-row variation, like
		// profiles of related applications; the first trial's rows are all
		// zero, so its frame has no basis directions (r = 0).
		base := make([]float64, n)
		for j := range base {
			base[j] = 5 + 3*math.Sin(float64(j)/7) + rng.Float64()
		}
		known := matrix.New(rows, n)
		for i := 0; trial > 0 && i < rows; i++ {
			scale := 0.5 + rng.Float64()
			for j := range base {
				known.Set(i, j, scale*base[j]+0.3*rng.NormFloat64())
			}
		}
		truth := make([]float64, n)
		for j := range truth {
			truth[j] = 1.2*base[j] + 0.2*rng.NormFloat64()
		}
		prior, err := NewPrior(known, opts)
		if err != nil {
			t.Fatal(err)
		}
		framed := prior.NewSession()
		perm := rng.Perm(n)
		omega := perm[:k0]
		for _, j := range omega {
			if err := framed.Add(j, truth[j]); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := framed.Fit(ctx); err != nil {
			t.Fatal(err)
		}
		if framed.heldFrame() == nil {
			t.Fatalf("%s: cold fit left no subspace frame", name)
		}
		dense := prior.NewSession()
		if err := dense.Restore(identityState(framed.State())); err != nil {
			t.Fatal(err)
		}

		// Windows: nothing, part of Ω, disjoint from Ω, then a mix.
		rest := perm[k0:]
		windows := [][]int{
			nil,
			omega[:1+rng.Intn(k0)],
			rest[:1+rng.Intn(min(len(rest), 12))],
			append(append([]int(nil), omega[:(k0+1)/2]...), rest[len(rest)-1-rng.Intn(min(len(rest), 6)):]...),
		}
		for w, win := range windows {
			var got, want *Result
			for _, s := range []*Session{framed, dense} {
				s.ClearObservations()
				for _, j := range win {
					if err := s.Add(j, truth[j]*(1+0.02*float64(w))); err != nil {
						t.Fatal(err)
					}
				}
				res, err := s.Fit(ctx)
				if err != nil {
					t.Fatalf("%s window %d: %v", name, w, err)
				}
				if !s.frozen {
					t.Fatalf("%s window %d: refit did not run frozen", name, w)
				}
				if s == framed {
					got = res
				} else {
					want = res
				}
			}
			if framed.heldFrame() == nil || dense.heldFrame() != nil {
				t.Fatalf("%s window %d: a refit changed its posterior's frame", name, w)
			}
			what := fmt.Sprintf("%s window %d (k=%d)", name, w, len(win))
			closeVec(t, what+" estimate", got.Estimate, want.Estimate, tol)
			closeVec(t, what+" variance", got.Variance, want.Variance, tol)
			closeVec(t, what+" mu", framed.mu, dense.mu, tol)
		}
	}
}

// denseFrozenRefit is the reference a frozen refit is held to: from μ, the
// dense Σ and σ², iters rounds of refEStep and refMStep keeping only the
// new μ — Σ and σ² stay pinned — then a final refEStep. It returns the
// final ẑ_M, the diagonal of Ĉ_M and the final μ.
func denseFrozenRefit(t *testing.T, known, sigma *matrix.Matrix, mu0 []float64, s2 float64, opts Options,
	iters int, obsIdx []int, obsVal []float64) (est, variance, mu []float64) {
	t.Helper()
	eStep := func(mu []float64) *refE {
		e, err := refEStep(known, obsIdx, obsVal, mu, sigma, s2)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	mu = mu0
	for it := 0; it < iters; it++ {
		mu, _, _ = refMStep(known, obsIdx, obsVal, eStep(mu), opts)
	}
	e := eStep(mu)
	variance = make([]float64, len(mu))
	for j := range variance {
		variance[j] = e.cM.At(j, j)
	}
	return e.zM, variance, mu
}

// TestFrozenRefitMatchesDenseEM holds frozen refits, on a cold fit's
// subspace frame and on the same posterior held densely in the identity
// frame, to denseFrozenRefit at 1e-10: estimate, variance and μ, across
// randomized n, database rows and windows — no observations, a subset of
// the cold fit's Ω, configurations disjoint from it, and a mix — under
// π ≠ 1 and StrictPaperSigma, and on a frame with no basis directions.
// Unlike TestFrozenFrameMatchesDenseProperty,
// which compares the two production frames, the reference forms every
// database row's posterior mean.
func TestFrozenRefitMatchesDenseEM(t *testing.T) {
	const tol = 1e-10
	rng := rand.New(rand.NewSource(92))
	ctx := context.Background()
	for trial := 0; trial < 18; trial++ {
		n := 20 + rng.Intn(61)
		rows := 2 + rng.Intn(8)
		k0 := 1 + rng.Intn(10)
		opts := Options{Pi: []float64{1, 0.4, 2.5}[trial%3], StrictPaperSigma: trial%4 == 3}
		name := fmt.Sprintf("trial %d n=%d rows=%d k0=%d pi=%g strict=%v",
			trial, n, rows, k0, opts.Pi, opts.StrictPaperSigma)
		base := make([]float64, n)
		for j := range base {
			base[j] = 4 + 2*math.Cos(float64(j)/5) + rng.Float64()
		}
		// The first trial's rows are all zero: a frame with no basis
		// directions.
		known := matrix.New(rows, n)
		for i := 0; trial > 0 && i < rows; i++ {
			scale := 0.5 + rng.Float64()
			for j := range base {
				known.Set(i, j, scale*base[j]+0.3*rng.NormFloat64())
			}
		}
		truth := make([]float64, n)
		for j := range truth {
			truth[j] = 1.1*base[j] + 0.2*rng.NormFloat64()
		}
		prior, err := NewPrior(known, opts)
		if err != nil {
			t.Fatal(err)
		}
		framed := prior.NewSession()
		perm := rng.Perm(n)
		omega := perm[:k0]
		for _, j := range omega {
			if err := framed.Add(j, truth[j]); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := framed.Fit(ctx); err != nil {
			t.Fatal(err)
		}
		if framed.heldFrame() == nil {
			t.Fatalf("%s: cold fit left no subspace frame", name)
		}
		dense := prior.NewSession()
		if err := dense.Restore(identityState(framed.State())); err != nil {
			t.Fatal(err)
		}

		rest := perm[k0:]
		windows := [][]int{
			nil,
			omega[:1+rng.Intn(k0)],
			rest[:1+rng.Intn(min(len(rest), 12))],
			append(append([]int(nil), omega[k0/2:]...), rest[:1+rng.Intn(min(len(rest), 6))]...),
		}
		for w, win := range windows {
			vals := make([]float64, len(win))
			for c, j := range win {
				vals[c] = truth[j] * (1 + 0.03*float64(w))
			}
			for _, s := range []*Session{framed, dense} {
				frame := "subspace"
				if s.heldFrame() == nil {
					frame = "identity"
				}
				st := s.State()
				s.ClearObservations()
				for c, j := range win {
					if err := s.Add(j, vals[c]); err != nil {
						t.Fatal(err)
					}
				}
				res, err := s.Fit(ctx)
				if err != nil {
					t.Fatalf("%s window %d: %v", name, w, err)
				}
				if !s.frozen || res.Iterations != s.opts.WarmMaxIter {
					t.Fatalf("%s window %d: refit frozen=%v after %d iterations, want frozen after %d",
						name, w, s.frozen, res.Iterations, s.opts.WarmMaxIter)
				}
				est, variance, mu := denseFrozenRefit(t, known, st.DenseSigma(), st.Mu, st.Sigma2,
					s.opts, s.opts.WarmMaxIter, win, vals)
				what := fmt.Sprintf("%s window %d (k=%d) %s frame", name, w, len(win), frame)
				for _, c := range []struct {
					what      string
					got, want []float64
				}{{"estimate", res.Estimate, est}, {"variance", res.Variance, variance}, {"mu", s.mu, mu}} {
					for j := range c.want {
						if d := math.Abs(c.got[j] - c.want[j]); !(d <= tol*(1+math.Abs(c.want[j]))) {
							t.Fatalf("%s %s[%d]: refit %.17g vs reference %.17g", what, c.what, j, c.got[j], c.want[j])
						}
					}
				}
			}
		}
	}
}
