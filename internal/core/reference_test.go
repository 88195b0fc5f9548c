package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"leo/internal/matrix"
)

// The dense reference EM: the oracle every fit path is held to. It
// evaluates Eq. (3) and Eq. (4) as printed, in configuration coordinates
// with every covariance an n×n matrix. It is written to be read against
// the paper, not to be fast, and shares no code with the production E- and
// M-steps: a fully observed application is the target's Eq. (3) with every
// configuration observed, so one posterior serves both.

// refE is one reference E-step: each database row's posterior mean and the
// posterior covariance the rows share, then the target's.
type refE struct {
	z  [][]float64
	c  *matrix.Matrix
	zM []float64
	cM *matrix.Matrix
}

// refFit is a reference fit's output: a Result's fields plus the fitted
// population parameters.
type refFit struct {
	Estimate, Variance, Mu []float64
	Sigma                  *matrix.Matrix
	Noise                  float64
	Iterations             int
	Converged              bool
}

// refPosterior is Eq. (3) for applications observed at the same
// configurations O = idx, one values vector each, in its
// Gaussian-conditioning form: with S = Σ[:,O] and K = Σ[O,O] + σ²I, each
// application's posterior mean and the covariance they share are
//
//	ẑ = μ + S K⁻¹ (y_O − μ_O),   Ĉ = Σ − S K⁻¹ Sᵀ.
//
// With nothing observed the posterior is the prior N(μ, Σ).
func refPosterior(mu []float64, sigma *matrix.Matrix, s2 float64, idx []int, vals ...[]float64) ([][]float64, *matrix.Matrix, error) {
	n, k := len(mu), len(idx)
	z := make([][]float64, len(vals))
	if k == 0 {
		for a := range z {
			z[a] = matrix.CloneVec(mu)
		}
		return z, sigma.Clone(), nil
	}
	s := matrix.New(n, k)
	for j := 0; j < n; j++ {
		for a, ia := range idx {
			s.Set(j, a, sigma.At(j, ia))
		}
	}
	kmat := matrix.New(k, k)
	for a, ia := range idx {
		kmat.SetRow(a, s.RowView(ia))
	}
	ch, err := matrix.NewCholesky(kmat.AddDiagonal(s2))
	if err != nil {
		return nil, nil, fmt.Errorf("reference: observation kernel not factorable: %w", err)
	}
	sk := ch.SolveTInto(matrix.New(n, k), s) // S K⁻¹, one row of S per solve
	r := make([]float64, k)
	for a, y := range vals {
		for b, ib := range idx {
			r[b] = y[b] - mu[ib]
		}
		z[a] = sk.MulVec(r)
		matrix.AxpyInPlace(1, mu, z[a])
	}
	c := sigma.Sub(matrix.MulTransBInto(matrix.New(n, n), sk, s))
	return z, c.Symmetrize(), nil
}

// refEStep evaluates Eq. (3) for every application: each database row
// observed everywhere, then the target at obsIdx.
func refEStep(known *matrix.Matrix, obsIdx []int, obsVal, mu []float64, sigma *matrix.Matrix, s2 float64) (*refE, error) {
	all := make([]int, known.Cols)
	for j := range all {
		all[j] = j
	}
	rows := make([][]float64, known.Rows)
	for i := range rows {
		rows[i] = known.RowView(i)
	}
	e := &refE{}
	var err error
	if e.z, e.c, err = refPosterior(mu, sigma, s2, all, rows...); err != nil {
		return nil, err
	}
	zM, cM, err := refPosterior(mu, sigma, s2, obsIdx, obsVal)
	if err != nil {
		return nil, err
	}
	e.zM, e.cM = zM[0], cM
	return e, nil
}

// refStart returns the cold start §5.5 defines: μ₀ the offline column means
// (zero under ZeroInit or with no database, InitMu when given), Σ₀ the
// identity plus the database's sample covariance, and σ² at 0.1% of the
// data's mean square (every database entry and observation), floored at
// SigmaFloor.
func refStart(known *matrix.Matrix, obsVal []float64, opts Options) ([]float64, *matrix.Matrix, float64) {
	n, rows := known.Cols, known.Rows
	mean := make([]float64, n)
	for i := 0; i < rows; i++ {
		for j, y := range known.RowView(i) {
			mean[j] += y / float64(rows)
		}
	}
	mu := make([]float64, n)
	switch {
	case opts.InitMu != nil:
		copy(mu, opts.InitMu)
	case !opts.ZeroInit && rows > 0:
		copy(mu, mean)
	}
	sigma := matrix.Identity(n)
	for i := 0; i < rows; i++ {
		d := matrix.SubVec(known.RowView(i), mean)
		sigma.AddScaledOuter(1/float64(rows), d, d)
	}
	sum, count := 0.0, len(known.Data)+len(obsVal)
	for _, v := range append(append([]float64(nil), known.Data...), obsVal...) {
		sum += v * v
	}
	s2 := opts.SigmaFloor
	if count > 0 {
		s2 = math.Max(0.001*sum/float64(count), opts.SigmaFloor)
	}
	return mu, sigma.Symmetrize(), s2
}

// refMStep applies Eq. (4) to the E-step e and returns the new μ, Σ and σ²:
//
//	μ  = (Σᵢ ẑᵢ + ẑ_M) / (M + π)
//	Σ  = (Σ_apps [Ĉ + (ẑ−μ)(ẑ−μ)ᵀ] + πμμᵀ + I) / (M + 1)
//	σ² = Σ_apps tr(diag(L)(Ĉ + (ẑ−y)(ẑ−y)ᵀ)) / ‖L‖²_F
//
// where M counts the applications, target included. StrictPaperSigma adds
// πμμᵀ + I outside the normalizer instead.
func refMStep(known *matrix.Matrix, obsIdx []int, obsVal []float64, e *refE, opts Options) ([]float64, *matrix.Matrix, float64) {
	n, rows := known.Cols, known.Rows
	m := float64(rows + 1)
	zs := append(append([][]float64(nil), e.z...), e.zM)
	mu := make([]float64, n)
	for _, z := range zs {
		for j, v := range z {
			mu[j] += v
		}
	}
	for j := range mu {
		mu[j] /= m + opts.Pi
	}
	sigma := matrix.New(n, n)
	for a, z := range zs {
		c := e.c
		if a == rows {
			c = e.cM
		}
		d := matrix.SubVec(z, mu)
		matrix.AxpyInPlace(1, c.Data, sigma.Data)
		sigma.AddScaledOuter(1, d, d)
	}
	if opts.StrictPaperSigma {
		sigma.ScaleInPlace(1/(m+1)).AddScaledOuter(opts.Pi, mu, mu).AddDiagonal(1)
	} else {
		sigma.AddScaledOuter(opts.Pi, mu, mu).AddDiagonal(1).ScaleInPlace(1 / (m + 1))
	}
	num := 0.0
	for i := 0; i < rows; i++ {
		num += e.c.Trace()
		for j, y := range known.RowView(i) {
			num += (e.z[i][j] - y) * (e.z[i][j] - y)
		}
	}
	for a, j := range obsIdx {
		num += e.cM.At(j, j) + (e.zM[j]-obsVal[a])*(e.zM[j]-obsVal[a])
	}
	s2 := opts.SigmaFloor
	if den := float64(rows*n + len(obsIdx)); den > 0 {
		s2 = math.Max(num/den, opts.SigmaFloor)
	}
	return mu, sigma.Symmetrize(), s2
}

// refEM is a cold fit on the reference, with Session.Fit's iteration
// protocol: up to MaxIter E/M rounds, stopping once the target's posterior
// mean moves by less than Tol (relChange) between rounds, then a final
// E-step whose target posterior is the estimate and its variance.
func refEM(known *matrix.Matrix, obsIdx []int, obsVal []float64, opts Options) (*refFit, error) {
	opts = opts.withDefaults()
	mu, sigma, s2 := refStart(known, obsVal, opts)
	fit := &refFit{}
	var prev []float64
	for iter := 0; iter < opts.MaxIter; iter++ {
		e, err := refEStep(known, obsIdx, obsVal, mu, sigma, s2)
		if err != nil {
			return nil, err
		}
		fit.Iterations = iter + 1
		mu, sigma, s2 = refMStep(known, obsIdx, obsVal, e, opts)
		if prev != nil && relChange(prev, e.zM) < opts.Tol {
			fit.Converged = true
			break
		}
		prev = e.zM
	}
	e, err := refEStep(known, obsIdx, obsVal, mu, sigma, s2)
	if err != nil {
		return nil, err
	}
	fit.Estimate = e.zM
	fit.Variance = make([]float64, len(mu))
	for j := range fit.Variance {
		fit.Variance[j] = e.cM.At(j, j)
	}
	fit.Mu, fit.Sigma, fit.Noise = mu, sigma, math.Sqrt(s2)
	return fit, nil
}

// LogLikelihood returns the observed-data log-likelihood of parameters
// (mu, sigma, noise σ) for the same data layout Estimate consumes: the
// marginal of each fully observed application is y_i ~ N(μ, Σ + σ²I), and
// the target's observed coordinates are y_Ω ~ N(μ_Ω, (Σ + σ²I)_{Ω,Ω}). EM
// maximizes this quantity plus the NIW prior's penalty on μ and Σ; the
// health watchdog's in-loop value is held to it.
func LogLikelihood(known *matrix.Matrix, obsIdx []int, obsVal []float64, mu []float64, sigma *matrix.Matrix, noise float64) (float64, error) {
	n := known.Cols
	if len(mu) != n || sigma.Rows != n || sigma.Cols != n {
		return 0, fmt.Errorf("core: parameter shapes do not match %d configurations", n)
	}
	if noise < 0 {
		return 0, fmt.Errorf("core: negative noise %g", noise)
	}
	total := 0.0

	if known.Rows > 0 {
		marg := sigma.Clone().AddDiagonal(noise * noise)
		ch, _, err := matrix.NewCholeskyJitter(marg, matrix.DefaultJitter, matrix.DefaultJitterTries)
		if err != nil {
			return 0, fmt.Errorf("core: marginal covariance not factorable: %w", err)
		}
		logDet := ch.LogDet()
		c := float64(n) * math.Log(2*math.Pi)
		for i := 0; i < known.Rows; i++ {
			diff := matrix.SubVec(known.RowView(i), mu)
			quad := matrix.Dot(diff, ch.SolveVec(diff))
			total += -0.5 * (quad + logDet + c)
		}
	}

	k := len(obsIdx)
	if k > 0 {
		if len(obsVal) != k {
			return 0, fmt.Errorf("core: %d observation indices but %d values", k, len(obsVal))
		}
		sub := matrix.New(k, k)
		for a, ia := range obsIdx {
			for b, ib := range obsIdx {
				sub.Set(a, b, sigma.At(ia, ib))
			}
		}
		sub.AddDiagonal(noise * noise)
		ch, _, err := matrix.NewCholeskyJitter(sub, matrix.DefaultJitter, matrix.DefaultJitterTries)
		if err != nil {
			return 0, fmt.Errorf("core: observed covariance not factorable: %w", err)
		}
		diff := make([]float64, k)
		for a, ia := range obsIdx {
			diff[a] = obsVal[a] - mu[ia]
		}
		quad := matrix.Dot(diff, ch.SolveVec(diff))
		total += -0.5 * (quad + ch.LogDet() + float64(k)*math.Log(2*math.Pi))
	}
	return total, nil
}

// fitSession is a cold Session.Fit of the inputs. It returns the Result with
// the session's state, which carries the fitted μ and, through DenseSigma,
// the fitted Σ.
func fitSession(t testing.TB, known *matrix.Matrix, obsIdx []int, obsVal []float64, opts Options) (*Result, *SessionState) {
	t.Helper()
	prior, err := NewPrior(known, opts)
	if err != nil {
		t.Fatal(err)
	}
	s := prior.NewSession()
	for i, idx := range obsIdx {
		if err := s.Add(idx, obsVal[i]); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Fit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res, s.State()
}

// requireMatchesReference fits the inputs cold on a session and on refEM
// and requires equal iteration counts, agreement within tol on the
// estimate, its variance, σ and the fitted μ and Σ, and an exactly
// symmetric Σ.
func requireMatchesReference(t *testing.T, known *matrix.Matrix, obsIdx []int, obsVal []float64, opts Options, tol float64) {
	t.Helper()
	got, st := fitSession(t, known, obsIdx, obsVal, opts)
	want, err := refEM(known, obsIdx, obsVal, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.Iterations != want.Iterations {
		t.Fatalf("iteration counts diverged: fit %d, reference %d", got.Iterations, want.Iterations)
	}
	if d := maxAbsDiffVec(got.Estimate, want.Estimate); d > tol {
		t.Errorf("Estimate differs by %g", d)
	}
	if d := maxAbsDiffVec(got.Variance, want.Variance); d > tol {
		t.Errorf("Variance differs by %g", d)
	}
	if d := maxAbsDiffVec(st.Mu, want.Mu); d > tol {
		t.Errorf("Mu differs by %g", d)
	}
	sigma := st.DenseSigma()
	if d := sigma.MaxAbsDiff(want.Sigma); d > tol {
		t.Errorf("Sigma differs by %g", d)
	}
	if d := math.Abs(got.Noise - want.Noise); d > tol {
		t.Errorf("Noise differs by %g", d)
	}
	if !sigma.IsSymmetric(0) {
		t.Error("fitted Sigma is not exactly symmetric")
	}
}

// requireEStepMatchesReference holds the E-step e, which s ran from its
// current parameters in the identity frame, to refEStep at the same
// parameters within tol: the target's posterior mean and covariance, and
// each database row's posterior mean and the shared covariance.
func requireEStepMatchesReference(t *testing.T, s *Session, e *eResult, tol float64) {
	t.Helper()
	ref, err := refEStep(s.known, s.obsIdx, s.obsVal, s.mu, s.sigma, s.sigma2)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiffVec(e.zTarget, ref.zM); d > tol {
		t.Errorf("zTarget differs from the reference by %g", d)
	}
	if d := e.cTarget.MaxAbsDiff(ref.cM); d > tol {
		t.Errorf("cTarget differs from the reference by %g", d)
	}
	for i := range ref.z {
		if d := maxAbsDiffVec(e.zFull.RowView(i), ref.z[i]); d > tol {
			t.Errorf("zFull row %d differs from the reference by %g", i, d)
		}
	}
	if len(ref.z) > 0 {
		if d := e.cFull.MaxAbsDiff(ref.c); d > tol {
			t.Errorf("cFull differs from the reference by %g", d)
		}
	}
}
