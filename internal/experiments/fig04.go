package experiments

import (
	"context"
	"fmt"
	"io"
	"math"

	"leo/internal/core"
	"leo/internal/platform"
)

// CovarianceReport reproduces Figure 4's message with the real fitted model:
// the learned Σ captures correlation between configurations, which is what
// lets a handful of observations pin down the whole surface. It fits the
// model on the full database (no target) and reports average correlations
// between configuration groups.
type CovarianceReport struct {
	// ThreadCorr[d] is the mean correlation between configurations whose
	// thread counts differ by d (same speed and memory controllers).
	ThreadCorr []float64
	// SpeedCorr is the mean correlation between the lowest and highest
	// clock at identical threads/memory controllers.
	SpeedCorr float64
	// MemCorr is the mean correlation between 1- and 2-controller variants
	// of otherwise identical configurations.
	MemCorr float64
}

// Fig04 fits the hierarchical model to the performance data of all
// applications (a fully observed fit with a dummy empty target) and
// summarizes the learned correlation structure.
func Fig04(ctx context.Context, env *Env) (*CovarianceReport, error) {
	// Fit with every application fully observed and an unobserved target;
	// the fitted Σ is the population covariance, which the session holds in
	// its frame and DenseSigma forms.
	prior, err := core.NewPrior(env.DB.Perf, core.Options{})
	if err != nil {
		return nil, err
	}
	s := prior.NewSession()
	if _, err := s.Fit(ctx); err != nil {
		return nil, err
	}
	sigma := s.State().DenseSigma()
	corr := func(a, b int) float64 {
		va, vb := sigma.At(a, a), sigma.At(b, b)
		if va <= 0 || vb <= 0 {
			return 0
		}
		return sigma.At(a, b) / math.Sqrt(va*vb)
	}

	space := env.Space
	rep := &CovarianceReport{}
	maxD := 8
	if space.Threads <= maxD {
		maxD = space.Threads - 1
	}
	for d := 0; d <= maxD; d++ {
		sum, count := 0.0, 0
		for th := 1; th+d <= space.Threads; th++ {
			a := space.Index(platform.Config{Threads: th, Speed: 0, MemCtrls: 1})
			b := space.Index(platform.Config{Threads: th + d, Speed: 0, MemCtrls: 1})
			sum += corr(a, b)
			count++
		}
		rep.ThreadCorr = append(rep.ThreadCorr, sum/float64(count))
	}
	if space.Speeds > 1 {
		sum, count := 0.0, 0
		for th := 1; th <= space.Threads; th++ {
			a := space.Index(platform.Config{Threads: th, Speed: 0, MemCtrls: 1})
			b := space.Index(platform.Config{Threads: th, Speed: space.Speeds - 1, MemCtrls: 1})
			sum += corr(a, b)
			count++
		}
		rep.SpeedCorr = sum / float64(count)
	}
	if space.MemCtrls > 1 {
		sum, count := 0.0, 0
		for th := 1; th <= space.Threads; th++ {
			a := space.Index(platform.Config{Threads: th, Speed: 0, MemCtrls: 1})
			b := space.Index(platform.Config{Threads: th, Speed: 0, MemCtrls: 2})
			sum += corr(a, b)
			count++
		}
		rep.MemCorr = sum / float64(count)
	}
	return rep, nil
}

// Name implements Report.
func (r *CovarianceReport) Name() string { return "fig4" }

// Render implements Report.
func (r *CovarianceReport) Render(w io.Writer) error {
	t := newTable("fig4: learned Σ correlation structure (performance, all apps)",
		"Δthreads", "mean correlation")
	for d, c := range r.ThreadCorr {
		t.addRow(fmt.Sprintf("%d", d), f3(c))
	}
	t.addNote("lowest vs highest clock at same threads: %0.3f", r.SpeedCorr)
	t.addNote("1 vs 2 memory controllers at same threads: %0.3f", r.MemCorr)
	t.addNote("(nearby configurations correlate strongly — the structure Fig. 4 illustrates)")
	return t.render(w)
}
