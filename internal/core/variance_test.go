package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"leo/internal/matrix"
	"leo/internal/profile"
	"leo/internal/stats"
)

func TestVarianceShrinksAtObservedConfigs(t *testing.T) {
	known, truth, _ := kmeansLOO(t)
	mask := profile.UniformMask(32, 6)
	obs := profile.Observe(truth, mask, 0, nil)
	res, err := Estimate(known, obs.Indices, obs.Values, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Variance) != 32 {
		t.Fatalf("variance length %d", len(res.Variance))
	}
	observed := make(map[int]bool)
	for _, i := range obs.Indices {
		observed[i] = true
	}
	var obsSum, unobsSum float64
	var obsN, unobsN int
	for i, v := range res.Variance {
		if v < 0 {
			t.Fatalf("negative posterior variance %g at %d", v, i)
		}
		if observed[i] {
			obsSum += v
			obsN++
		} else {
			unobsSum += v
			unobsN++
		}
	}
	if obsSum/float64(obsN) >= unobsSum/float64(unobsN) {
		t.Fatalf("observed configs should have smaller variance: %g vs %g",
			obsSum/float64(obsN), unobsSum/float64(unobsN))
	}
}

func TestVarianceDropsWithMoreObservations(t *testing.T) {
	known, truth, _ := kmeansLOO(t)
	totalVar := func(k int) float64 {
		mask := profile.UniformMask(32, k)
		obs := profile.Observe(truth, mask, 0, nil)
		res, err := Estimate(known, obs.Indices, obs.Values, Options{MaxIter: 4})
		if err != nil {
			t.Fatal(err)
		}
		s := 0.0
		for _, v := range res.Variance {
			s += v
		}
		return s
	}
	few, many := totalVar(3), totalVar(24)
	if many >= few {
		t.Fatalf("total posterior variance should drop with observations: %g -> %g", few, many)
	}
}

// TestEstimateScaleRobustAccuracy: the NIW prior has a fixed scale (Ψ = I),
// so predictions are not exactly equivariant under data rescaling — but the
// estimation *accuracy* must survive rescaling, or the model would be
// usable only for one unit system.
func TestEstimateScaleRobustAccuracy(t *testing.T) {
	known, truth, _ := kmeansLOO(t)
	mask := profile.UniformMask(32, 6)
	obs := profile.Observe(truth, mask, 0, nil)
	for _, c := range []float64{0.1, 1, 10, 1000} {
		scaledKnown := known.Scale(c)
		scaledVals := matrix.ScaleVec(c, obs.Values)
		scaledTruth := matrix.ScaleVec(c, truth)
		res, err := Estimate(scaledKnown, obs.Indices, scaledVals, Options{})
		if err != nil {
			t.Fatalf("scale %g: %v", c, err)
		}
		if acc := stats.Accuracy(res.Estimate, scaledTruth); acc < 0.8 {
			t.Fatalf("scale %g: accuracy %g", c, acc)
		}
	}
}

// TestFrozenVarianceMatchesDense: a frozen refit forms only the diagonal of
// the target posterior covariance, as Σ_rr minus a squared row norm of
// S L_K⁻ᵀ. It must agree with the dense Woodbury form
// diag(Σ − Σ[:,Ω] K⁻¹ Σ[Ω,:]), K = σ²I + Σ[Ω,Ω], at the pinned parameters
// — including k = 0, where the variance is diag(Σ) itself.
func TestFrozenVarianceMatchesDense(t *testing.T) {
	prior, truth := warmTestSetup(t)
	n := prior.Configurations()
	rng := rand.New(rand.NewSource(47))
	ctx := context.Background()
	s := prior.NewSession()
	for _, k := range []int{20, 20, 0, 5} {
		s.ClearObservations()
		for _, idx := range profile.RandomMask(n, k, rng) {
			if err := s.Add(idx, truth[idx]); err != nil {
				t.Fatal(err)
			}
		}
		warm := s.warm
		res, err := s.Fit(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !warm {
			continue // the cold fit only pins the parameters
		}
		if !s.frozen {
			t.Fatal("warm refit did not run frozen")
		}
		st := s.State()
		want := denseTargetVariance(t, st.Sigma, st.Sigma2, st.ObsIdx)
		for r, v := range res.Variance {
			if d := math.Abs(v - want[r]); d > 1e-10*(1+math.Abs(want[r])) {
				t.Fatalf("k=%d: variance[%d] %.17g vs dense %.17g", k, r, v, want[r])
			}
		}
	}
}

// denseTargetVariance evaluates diag(Σ − Σ[:,Ω] K⁻¹ Σ[Ω,:]) one row at a
// time with K = σ²I + Σ[Ω,Ω].
func denseTargetVariance(t *testing.T, sigma *matrix.Matrix, sigma2 float64, obs []int) []float64 {
	t.Helper()
	n, k := sigma.Rows, len(obs)
	out := make([]float64, n)
	for r := range out {
		out[r] = sigma.At(r, r)
	}
	if k == 0 {
		return out
	}
	kmat := matrix.New(k, k)
	for a, ia := range obs {
		for b, ib := range obs {
			kmat.Set(a, b, sigma.At(ia, ib))
		}
	}
	ch, err := matrix.NewCholesky(kmat.AddDiagonal(sigma2))
	if err != nil {
		t.Fatal(err)
	}
	row := make([]float64, k)
	for r := range out {
		for a, ia := range obs {
			row[a] = sigma.At(r, ia)
		}
		out[r] -= matrix.Dot(row, ch.SolveVec(row))
	}
	return out
}
