package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"leo/internal/apps"
	"leo/internal/platform"
	"leo/internal/profile"
)

// TestVarianceCalibrationPinned pins how well Result.Variance is calibrated
// today; the pinned figures are not a target. For each space it collects a
// noise-free profile database, leaves each of the 25 suite applications out
// in turn, draws four random 20-probe masks per application from one
// generator seeded 7, observes the held-out application with 1% relative
// probe noise and fits both metrics with Prior.Estimate at default options.
// Each unobserved configuration scores z = (truth − estimate)/√variance. A
// calibrated posterior puts 95.4% of |z| within 2 with a median |z| of
// 0.674; the pins below record how far the model sits from that, to two
// decimals, so any change to the variance shows here.
func TestVarianceCalibrationPinned(t *testing.T) {
	want := map[string]string{
		"paper perf":  "0.79 / 0.80 / 10.04",
		"paper power": "0.69 / 1.31 / 6.55",
		"small perf":  "0.79 / 0.83 / 9.65",
		"small power": "0.57 / 1.69 / 6.90",
	}
	for _, sp := range []struct {
		name  string
		space platform.Space
	}{{"paper", platform.Paper()}, {"small", platform.Small()}} {
		db, err := profile.Collect(sp.space, apps.Suite(), 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		n := sp.space.N()
		rng := rand.New(rand.NewSource(7))
		var zPerf, zPower []float64
		for a := 0; a < db.NumApps(); a++ {
			rest, truthPerf, truthPower, err := db.LeaveOneOut(a)
			if err != nil {
				t.Fatal(err)
			}
			perfPrior, err := NewPrior(rest.Perf, Options{})
			if err != nil {
				t.Fatal(err)
			}
			powerPrior, err := NewPrior(rest.Power, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for m := 0; m < 4; m++ {
				mask := profile.RandomMask(n, 20, rng)
				observed := make([]bool, n)
				for _, i := range mask {
					observed[i] = true
				}
				score := func(prior *Prior, truth, z []float64) []float64 {
					obs := profile.Observe(truth, mask, 0.01, rng)
					res, err := prior.Estimate(context.Background(), obs.Indices, obs.Values)
					if err != nil {
						t.Fatal(err)
					}
					for i, v := range res.Variance {
						if observed[i] {
							continue
						}
						if !(v > 0) {
							t.Fatalf("%s app %d: variance %g at configuration %d", sp.name, a, v, i)
						}
						z = append(z, math.Abs(truth[i]-res.Estimate[i])/math.Sqrt(v))
					}
					return z
				}
				zPerf = score(perfPrior, truthPerf, zPerf)
				zPower = score(powerPrior, truthPower, zPower)
			}
		}
		for _, metric := range []struct {
			name string
			z    []float64
		}{{"perf", zPerf}, {"power", zPower}} {
			key := sp.name + " " + metric.name
			got := calibrationSummary(metric.z)
			if got != want[key] {
				t.Errorf("%s: within ±2 / median |z| / p99 |z| = %s, pinned %s", key, got, want[key])
			}
		}
	}
}

// calibrationSummary renders the share of |z| within 2, the median |z| and
// the p99 |z| to two decimals, the order statistics linearly interpolated.
// It sorts z in place.
func calibrationSummary(z []float64) string {
	slices.Sort(z)
	quantile := func(q float64) float64 {
		pos := q * float64(len(z)-1)
		lo := int(pos)
		if lo+1 == len(z) {
			return z[lo]
		}
		frac := pos - float64(lo)
		return z[lo]*(1-frac) + z[lo+1]*frac
	}
	within := 0
	for _, v := range z {
		if v <= 2 {
			within++
		}
	}
	return fmt.Sprintf("%.2f / %.2f / %.2f", float64(within)/float64(len(z)), quantile(0.5), quantile(0.99))
}
