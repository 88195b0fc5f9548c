package core

import (
	"context"
	"math"
	"testing"

	"leo/internal/matrix"
	"leo/internal/profile"
)

func TestLogLikelihoodKnownValue(t *testing.T) {
	// One app, one configuration, μ = 0, Σ = [1], σ = 0: y ~ N(0, 1).
	known := matrix.NewFromRows([][]float64{{0}})
	ll, err := LogLikelihood(known, nil, nil, []float64{0}, matrix.Identity(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	want := -0.5 * math.Log(2*math.Pi)
	if math.Abs(ll-want) > 1e-10 {
		t.Fatalf("LL = %g, want %g", ll, want)
	}
}

func TestLogLikelihoodTargetOnly(t *testing.T) {
	// No offline apps; target observed at one coordinate of a 3-config
	// space: y ~ N(μ_1, Σ_11 + σ²).
	known := matrix.New(0, 3)
	mu := []float64{1, 2, 3}
	sigma := matrix.NewFromRows([][]float64{{4, 0, 0}, {0, 9, 0}, {0, 0, 16}})
	ll, err := LogLikelihood(known, []int{1}, []float64{5}, mu, sigma, 1)
	if err != nil {
		t.Fatal(err)
	}
	// N(2, 10) evaluated at 5.
	v := 10.0
	want := -0.5 * ((5-2)*(5-2)/v + math.Log(v) + math.Log(2*math.Pi))
	if math.Abs(ll-want) > 1e-10 {
		t.Fatalf("LL = %g, want %g", ll, want)
	}
}

func TestLogLikelihoodValidation(t *testing.T) {
	known := matrix.New(1, 2)
	if _, err := LogLikelihood(known, nil, nil, []float64{0}, matrix.Identity(2), 1); err == nil {
		t.Fatal("mu length mismatch must error")
	}
	if _, err := LogLikelihood(known, nil, nil, []float64{0, 0}, matrix.Identity(3), 1); err == nil {
		t.Fatal("sigma shape mismatch must error")
	}
	if _, err := LogLikelihood(known, nil, nil, []float64{0, 0}, matrix.Identity(2), -1); err == nil {
		t.Fatal("negative noise must error")
	}
	if _, err := LogLikelihood(known, []int{0, 1}, []float64{1}, []float64{0, 0}, matrix.Identity(2), 1); err == nil {
		t.Fatal("obs length mismatch must error")
	}
}

func TestLogLikelihoodPeaksAtTrueMean(t *testing.T) {
	known, _, _ := kmeansLOO(t)
	sigma := matrix.Identity(32).ScaleInPlace(100)
	colMean := make([]float64, 32)
	for c := 0; c < 32; c++ {
		s := 0.0
		for r := 0; r < known.Rows; r++ {
			s += known.At(r, c)
		}
		colMean[c] = s / float64(known.Rows)
	}
	atMean, err := LogLikelihood(known, nil, nil, colMean, sigma, 1)
	if err != nil {
		t.Fatal(err)
	}
	shifted := matrix.CloneVec(colMean)
	for i := range shifted {
		shifted[i] += 25
	}
	atShifted, err := LogLikelihood(known, nil, nil, shifted, sigma, 1)
	if err != nil {
		t.Fatal(err)
	}
	if atMean <= atShifted {
		t.Fatalf("LL at column mean (%g) should beat a shifted mean (%g)", atMean, atShifted)
	}
}

// TestEMImprovesLikelihood is the canonical EM sanity check: the fitted
// parameters must explain the observed data better than the initialization.
// (Exact per-iteration monotonicity holds for the penalized objective with
// the NIW prior; the unpenalized observed-data likelihood must still end
// above its starting point on these well-posed problems.)
func TestEMImprovesLikelihood(t *testing.T) {
	known, truth, _ := kmeansLOO(t)
	mask := profile.UniformMask(32, 6)
	obs := profile.Observe(truth, mask, 0, nil)

	// Likelihood at the initialization (reconstructed the same way the EM
	// state builds it).
	em := newEMState(known, obs.Indices, obs.Values, Options{}.withDefaults())
	em.init()
	before, err := LogLikelihood(known, obs.Indices, obs.Values, em.mu, em.sigma, math.Sqrt(em.sigma2))
	if err != nil {
		t.Fatal(err)
	}

	res, st := fitSession(t, known, obs.Indices, obs.Values, Options{})
	after, err := LogLikelihood(known, obs.Indices, obs.Values, st.Mu, st.DenseSigma(), res.Noise)
	if err != nil {
		t.Fatal(err)
	}
	if after <= before {
		t.Fatalf("EM decreased the observed-data log-likelihood: %g -> %g", before, after)
	}
}

// TestEMLikelihoodTrajectoryMostlyMonotone runs the EM loop step by step and
// checks the observed-data likelihood never falls materially between
// iterations (small dips are possible because the σ² update is ML while μ,Σ
// take MAP steps, but collapses indicate a broken update).
func TestEMLikelihoodTrajectoryMostlyMonotone(t *testing.T) {
	known, truth, _ := kmeansLOO(t)
	mask := profile.UniformMask(32, 10)
	obs := profile.Observe(truth, mask, 0, nil)

	em := newEMState(known, obs.Indices, obs.Values, Options{}.withDefaults())
	em.init()
	prev := math.Inf(-1)
	for iter := 0; iter < 6; iter++ {
		ll, err := LogLikelihood(known, obs.Indices, obs.Values, em.mu, em.sigma, math.Sqrt(em.sigma2))
		if err != nil {
			t.Fatal(err)
		}
		if ll < prev-math.Abs(prev)*0.01-1 {
			t.Fatalf("iteration %d: log-likelihood fell from %g to %g", iter, prev, ll)
		}
		prev = ll
		e, err := em.eStep(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if err := em.mStep(context.Background(), e); err != nil {
			t.Fatal(err)
		}
	}
}
