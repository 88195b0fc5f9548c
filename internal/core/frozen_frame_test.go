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

// TestFrozenFrameRescueFromMaterializedSigma: a frozen refit on a
// subspace-frame posterior whose μ is poisoned trips the non-finite scan,
// and the watchdog re-runs it on the exact path from the materialized Σ —
// bit-identical to an ExactEStep refit of the same posterior held densely.
func TestFrozenFrameRescueFromMaterializedSigma(t *testing.T) {
	prior, truth := warmTestSetup(t)
	ctx := context.Background()
	n := prior.Configurations()
	rng := rand.New(rand.NewSource(49))
	perm := rng.Perm(n)
	s := prior.NewSession()
	for _, j := range perm[:20] {
		if err := s.Add(j, truth[j]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Fit(ctx); err != nil {
		t.Fatal(err)
	}
	if s.heldFrame() == nil {
		t.Fatal("cold fit left no subspace frame")
	}
	start := s.State()
	window := perm[10:30]

	exactPrior, err := NewPrior(prior.known, Options{ExactEStep: true})
	if err != nil {
		t.Fatal(err)
	}
	oracle := exactPrior.NewSession()
	if err := oracle.Restore(identityState(start)); err != nil {
		t.Fatal(err)
	}
	for _, sess := range []*Session{s, oracle} {
		sess.ClearObservations()
		for _, j := range window {
			if err := sess.Add(j, truth[j]); err != nil {
				t.Fatal(err)
			}
		}
	}
	poisoned := false
	healthTestHook = func(em *Session, iter int) {
		if em == s && em.frozen && !em.fallbackExact && iter == 1 {
			em.mu[0] = math.NaN()
			poisoned = true
		}
	}
	got, err := s.Fit(ctx)
	healthTestHook = nil
	if err != nil {
		t.Fatalf("rescue failed: %v", err)
	}
	if !poisoned || s.Health().Fallbacks != 1 {
		t.Fatalf("poisoned=%v fallbacks=%d, want a rescued frozen refit", poisoned, s.Health().Fallbacks)
	}
	if s.heldFrame() != nil {
		t.Fatal("the rescue did not move the posterior to the identity frame")
	}
	want, err := oracle.Fit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	fitEqual(t, got, want, "rescued frozen refit")
	samePosterior(t, "rescued posterior", s.State(), oracle.State())
}

// denseFrozenRefit is the reference a frozen refit is held to, sharing no
// code with the production E-step: from μ, the dense Σ and σ², iters EM
// iterations with Σ and σ² pinned, then a final E-step. Every database
// row's posterior mean is formed explicitly as ẑᵢ = μ + ΣA⁻¹(yᵢ−μ) with
// A = Σ+σ²I, the target's by Woodbury as ẑ_M = μ + SK⁻¹(y_Ω − μ_Ω) with
// S = Σ[:,Ω] and K = σ²I + Σ[Ω,Ω], and μ ← (Σᵢẑᵢ + ẑ_M)/(M + π). It returns
// the final ẑ_M, the diagonal of Ĉ_M = Σ − SK⁻¹Sᵀ and the final μ.
func denseFrozenRefit(t *testing.T, known, sigma *matrix.Matrix, mu0 []float64, s2, pi float64,
	iters int, obsIdx []int, obsVal []float64) (est, variance, mu []float64) {
	t.Helper()
	n, rows, k := len(mu0), known.Rows, len(obsIdx)
	chA, err := matrix.NewCholesky(sigma.Clone().AddDiagonal(s2))
	if err != nil {
		t.Fatal(err)
	}
	kmat := matrix.New(k, k)
	for a, ia := range obsIdx {
		for b, ib := range obsIdx {
			kmat.Set(a, b, sigma.At(ia, ib))
		}
	}
	var chK *matrix.Cholesky
	if k > 0 {
		if chK, err = matrix.NewCholesky(kmat.AddDiagonal(s2)); err != nil {
			t.Fatal(err)
		}
	}
	sigmaCols := func(j int) []float64 { // S's row j: Σ[j,Ω]
		s := make([]float64, k)
		for c, jc := range obsIdx {
			s[c] = sigma.At(j, jc)
		}
		return s
	}
	mu = append([]float64(nil), mu0...)
	eStep := func() (zSum, zM []float64) {
		zSum = make([]float64, n)
		for i := 0; i < rows; i++ {
			z := matrix.AddVec(mu, sigma.MulVec(chA.SolveVec(matrix.SubVec(known.RowView(i), mu))))
			for j, v := range z {
				zSum[j] += v
			}
		}
		zM = append([]float64(nil), mu...)
		if k > 0 {
			r := make([]float64, k)
			for c, j := range obsIdx {
				r[c] = obsVal[c] - mu[j]
			}
			x := chK.SolveVec(r)
			for j := range zM {
				zM[j] += matrix.Dot(sigmaCols(j), x)
			}
		}
		return zSum, zM
	}
	for it := 0; it < iters; it++ {
		zSum, zM := eStep()
		for j := range mu {
			mu[j] = (zSum[j] + zM[j]) / (float64(rows+1) + pi)
		}
	}
	_, est = eStep()
	variance = make([]float64, n)
	for j := range variance {
		variance[j] = sigma.At(j, j)
		if k > 0 {
			s := sigmaCols(j)
			variance[j] -= matrix.Dot(s, chK.SolveVec(s))
		}
	}
	return est, variance, mu
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
					opts.Pi, s.opts.WarmMaxIter, win, vals)
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
