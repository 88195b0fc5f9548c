package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"leo/internal/matrix"
	"leo/internal/stats"
)

// ErrCanceled is returned (wrapped around the context's own error) when a fit
// is aborted by context cancellation. Check with errors.Is(err, ErrCanceled);
// errors.Is against context.Canceled / context.DeadlineExceeded also works,
// so callers can distinguish a deadline from an explicit cancel.
var ErrCanceled = errors.New("core: fit canceled")

// canceled wraps the context's cause so both ErrCanceled and the original
// context error survive errors.Is. Each abort passes through here exactly
// once, so it doubles as the cancellation counter's single hook.
func canceled(cause error) error {
	mEMCanceled.Inc()
	return fmt.Errorf("%w: %w", ErrCanceled, cause)
}

// Prior is the offline half of the hierarchical model (§3's "big data"
// learner): everything that depends only on the fully observed application
// database, computed once and shared. It holds the column means, the running
// sum of squares that seeds σ², and — built on first use — the initial
// covariance Σ₀ = I + sample covariance with its Cholesky factor: the state
// every cold EM fit would otherwise recompute from scratch.
//
// A Prior's model is immutable once built and the whole object is safe for
// concurrent use: any number of goroutines may call NewSession and run the
// resulting sessions in parallel. The only mutable state is the session free
// list, which has its own lock, and the lazily built Σ₀, which sigma0Once
// guards.
type Prior struct {
	opts  Options
	known *matrix.Matrix // private clone of the (M−1)×n database
	n     int

	colMean []float64 // offline column means (nil when no rows)
	sumSq   float64   // Σ v² over the database, in row-major order
	count   int       // number of database entries

	// Σ₀ and its factor, read through coldSigma. Only cold starts in a
	// session's own coordinates need them (frame.go), so a prior whose fits
	// all run in data-subspace frames never builds the n×n pair.
	sigma0Once sync.Once
	sigma0     *matrix.Matrix   // initial Σ: identity + sample covariance
	chol0      *matrix.Cholesky // factor of sigma0 (nil if not factorable)

	// Session free list (see Session.Release). A session's EM workspace is a
	// few n×n matrices — recycling it turns admission in a churning fleet
	// from megabytes of zeroed allocations into a pointer pop.
	poolMu sync.Mutex
	pool   []*Session

	// Cached Digest (the fold walks the whole database; see state.go).
	digestOnce sync.Once
	digest     uint64
}

// NewPrior fits the offline portion of the model over the database: one fully
// observed application per row ((M−1)×n, zero rows allowed). The matrix is
// cloned, so later mutation of known does not affect the Prior. opts applies
// to every session derived from this prior.
func NewPrior(known *matrix.Matrix, opts Options) (*Prior, error) {
	opts = opts.withDefaults()
	if known == nil || known.Cols == 0 {
		return nil, fmt.Errorf("core: zero-width data matrix")
	}
	n := known.Cols
	if opts.InitMu != nil && len(opts.InitMu) != n {
		return nil, fmt.Errorf("core: InitMu length %d != %d configurations", len(opts.InitMu), n)
	}
	for _, v := range known.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("core: non-finite offline datum %g", v)
		}
	}

	p := &Prior{opts: opts, known: known.Clone(), n: n}
	if p.known.Rows > 0 {
		p.colMean = stats.ColumnMeans(p.known)
	}
	for _, v := range p.known.Data {
		p.sumSq += v * v
		p.count++
	}
	return p, nil
}

// coldSigma returns Σ₀ and its Cholesky factor (nil when Σ₀ is not
// factorable), building both on the first call. Only cold starts in a
// session's own coordinates read them: identity-frame fits, the exact and
// naive ablations, and the watchdog's rescue of a cold fit.
func (p *Prior) coldSigma() (*matrix.Matrix, *matrix.Cholesky) {
	p.sigma0Once.Do(func() {
		// Initial Σ exactly as the EM cold start defines it (§5.5): identity
		// plus the offline sample covariance, symmetrized.
		n := p.n
		p.sigma0 = matrix.Identity(n)
		if p.known.Rows > 0 {
			scale := 1 / float64(p.known.Rows)
			for i := 0; i < p.known.Rows; i++ {
				d := matrix.SubVec(p.known.RowView(i), p.colMean)
				p.sigma0.AddScaledOuter(scale, d, d)
			}
			p.sigma0.Symmetrize()
		}
		// Pre-factor Σ₀ so a cold session's first exact E-step can skip its
		// factorization. A failure here is not fatal: the session falls back
		// to factorizing (with jitter) itself.
		ch := matrix.NewCholeskyWorkspace(n)
		if _, err := ch.FactorizeJitter(p.sigma0, matrix.DefaultJitter, matrix.DefaultJitterTries); err == nil {
			p.chol0 = ch
		}
	})
	return p.sigma0, p.chol0
}

// Configurations returns n, the width of the configuration space.
func (p *Prior) Configurations() int { return p.n }

// Applications returns the number of fully observed applications (M−1).
func (p *Prior) Applications() int { return p.known.Rows }

// Options returns the fit options every session derived from this prior uses
// (with defaults applied).
func (p *Prior) Options() Options { return p.opts }

// Estimate runs one cold fit over this prior: the exact computation of the
// package-level Estimate, minus rebuilding the offline model. Validation
// matches Estimate too — mismatched lengths, duplicate or out-of-range
// indices and non-finite values are rejected with the same errors. The fit
// runs in a session that is discarded afterwards, so unless LeanResults is
// set the Result's Mu and Sigma are that session's own parameters, not
// copies.
func (p *Prior) Estimate(ctx context.Context, obsIdx []int, obsVal []float64) (*Result, error) {
	if len(obsIdx) != len(obsVal) {
		return nil, fmt.Errorf("core: %d observation indices but %d values", len(obsIdx), len(obsVal))
	}
	if p.known.Rows == 0 && len(obsIdx) == 0 {
		return nil, ErrNoData
	}
	seen := make(map[int]bool, len(obsIdx))
	for _, idx := range obsIdx {
		if idx < 0 || idx >= p.n {
			return nil, fmt.Errorf("core: observation index %d out of range [0,%d)", idx, p.n)
		}
		if seen[idx] {
			return nil, fmt.Errorf("core: duplicate observation index %d", idx)
		}
		seen[idx] = true
	}
	for _, v := range obsVal {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("core: non-finite observation %g", v)
		}
	}
	s := p.NewSession()
	for i, idx := range obsIdx {
		if err := s.Add(idx, obsVal[i]); err != nil {
			return nil, err
		}
	}
	res, err := s.Fit(ctx)
	if res != nil && !p.opts.LeanResults {
		res.Mu, res.Sigma = s.mu, s.sigma
	}
	return res, err
}

// NewSession creates an independent fitting session over this prior. Sessions
// are cheap relative to a fit (they allocate Σ and the EM workspace's
// vectors, leaving its dense buffers to the first path that reads them, and
// compute nothing) and are not safe for concurrent use with themselves — use
// one per goroutine; the shared Prior is. When the free list holds a released
// session it is recycled instead, which skips the workspace allocation
// entirely; a recycled session is indistinguishable from a fresh one (every
// fit path fully rewrites the parameters before reading them).
func (p *Prior) NewSession() *Session {
	p.poolMu.Lock()
	if k := len(p.pool); k > 0 {
		s := p.pool[k-1]
		p.pool[k-1] = nil
		p.pool = p.pool[:k-1]
		p.poolMu.Unlock()
		return s
	}
	p.poolMu.Unlock()
	n := p.n
	return &Session{
		prior:  p,
		opts:   p.opts,
		known:  p.known,
		n:      n,
		m:      p.known.Rows + 1,
		mu:     make([]float64, n),
		sigma:  matrix.New(n, n),
		obsPos: make(map[int]int),
		ws:     newEMWorkspace(n, p.known.Rows),
	}
}

// sessionPoolMax bounds each prior's free list; releases past the bound fall
// to the garbage collector, so a transient registration spike cannot pin its
// peak working set forever.
const sessionPoolMax = 256

// Release returns the session to its prior's free list for NewSession to
// recycle. The session must not be used after Release — treat it like a
// freed buffer. Releasing is optional (an abandoned session is collected
// normally); it pays off where sessions churn, e.g. a serving fleet
// admitting and evicting tenants.
func (s *Session) Release() {
	if s == nil || s.prior == nil {
		return
	}
	s.Reset()
	s.health = Health{}
	s.fallbackExact = false
	s.frozen = false
	s.freshSigma = false
	s.sigma2 = 0
	s.ws.wc.invalidate()
	p := s.prior
	p.poolMu.Lock()
	if len(p.pool) < sessionPoolMax {
		p.pool = append(p.pool, s)
	}
	p.poolMu.Unlock()
}

// Session is one target application's incremental fit against a shared Prior.
// It accumulates online observations via Add, owns the EM workspace (so
// repeated fits allocate nothing beyond the first), and warm-starts each Fit
// from the posterior parameters of the previous one. The zero value is
// unusable; obtain sessions from Prior.NewSession.
type Session struct {
	prior *Prior
	opts  Options
	known *matrix.Matrix // the prior's database (shared, read-only)
	n     int            // configurations
	m     int            // applications including the target

	obsIdx []int
	obsVal []float64
	obsPos map[int]int // observation index -> position in obsIdx/obsVal

	// Posterior parameters. Before the first fit (or after ForgetPosterior)
	// they are seeded from the prior; afterwards they carry the previous
	// fit's result, which is the warm start.
	mu     []float64
	sigma  *matrix.Matrix
	sigma2 float64
	warm   bool

	// freshSigma marks that sigma is exactly the prior's Σ₀, so the first
	// E-step may copy the pre-computed factor instead of refactorizing.
	freshSigma bool

	// sub is the data-subspace frame a cold fit runs in (frame.go),
	// allocated on the session's first frame fit; own is the identity frame
	// over the session's own parameters, refreshed by frame().
	sub *subspace
	own frame

	// fallbackExact forces the exact E-step for the remainder of the current
	// Fit: set (once, by Fit itself) when a numerical-health watchdog trips
	// on the fast path, cleared when the fit ends.
	fallbackExact bool
	health        Health

	// frozen marks the current Fit as a frozen-parameter warm refit: Σ and
	// σ² stay pinned, the E-step runs from the warm operator cache, and the
	// M-step updates μ only. Recomputed at every Fit entry (see warm.go for
	// the cache it enables); cleared for the watchdog's exact-path retry.
	frozen bool

	ws *emWorkspace
}

// Add records an observation of the target application: val measured at
// configuration idx. Observing an index that already has a value replaces it
// (latest wins) — the shape of a controller feeding one new measurement per
// window.
func (s *Session) Add(idx int, val float64) error {
	if idx < 0 || idx >= s.n {
		return fmt.Errorf("core: observation index %d out of range [0,%d)", idx, s.n)
	}
	if math.IsNaN(val) || math.IsInf(val, 0) {
		return fmt.Errorf("core: non-finite observation %g", val)
	}
	if pos, ok := s.obsPos[idx]; ok {
		s.obsVal[pos] = val
		return nil
	}
	s.obsPos[idx] = len(s.obsIdx)
	s.obsIdx = append(s.obsIdx, idx)
	s.obsVal = append(s.obsVal, val)
	return nil
}

// Observations returns copies of the accumulated observation indices and
// values, in insertion order.
func (s *Session) Observations() ([]int, []float64) {
	idx := make([]int, len(s.obsIdx))
	val := make([]float64, len(s.obsVal))
	copy(idx, s.obsIdx)
	copy(val, s.obsVal)
	return idx, val
}

// ClearObservations drops every accumulated observation but keeps the warm
// posterior, so the next Fit still starts from the previous parameters.
func (s *Session) ClearObservations() {
	s.obsIdx = s.obsIdx[:0]
	s.obsVal = s.obsVal[:0]
	for k := range s.obsPos {
		delete(s.obsPos, k)
	}
}

// ForgetPosterior discards the warm start: the next Fit re-initializes from
// the prior exactly as a cold Estimate call would. Observations are kept.
func (s *Session) ForgetPosterior() { s.warm = false }

// Reset returns the session to its initial state: no observations, cold
// start.
func (s *Session) Reset() {
	s.ClearObservations()
	s.ForgetPosterior()
}

// Fit runs EM over the prior's database plus the session's observations and
// returns the target prediction. The first call (and any call after
// ForgetPosterior) cold-starts from the prior; subsequent calls warm-start
// from the previous posterior, which typically converges in fewer iterations.
//
// Cancellation is checked between EM iterations: on a canceled or expired
// context Fit returns an error wrapping both ErrCanceled and ctx.Err(), and
// the session reverts to a cold start (mid-iteration parameters are not kept).
// Non-convergence at MaxIter is soft, exactly as in Estimate: the capped
// Result is returned with Converged=false, and an *ErrNotConverged alongside
// it only under Options.StrictConvergence.
func (s *Session) Fit(ctx context.Context) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if s.known.Rows == 0 && len(s.obsIdx) == 0 {
		return nil, ErrNoData
	}
	if s.sub != nil {
		// A frame lives for one fit; whatever the last fit left is stale.
		s.sub.active = false
	}
	maxIter := s.opts.MaxIter
	warmStart := s.warm
	if s.warm {
		// Incremental update: the parameters already sit near the fixed
		// point, so a couple of iterations propagate the new observations.
		maxIter = s.opts.WarmMaxIter
		s.ws.ensureObs(s.n, len(s.obsIdx))
	} else {
		s.coldStart()
	}
	// A warm refit against a populated database freezes Σ/σ² and runs from
	// the operator cache (warm.go); every other shape of fit may rewrite
	// Σ/σ² or clobber the cached factor, so the cache dies with it. The
	// per-fit target preparation is redone for every fit's observation set.
	s.frozen = warmStart && s.known.Rows > 0 && !s.opts.ExactEStep && !s.opts.NaiveEStep
	if !s.frozen {
		s.ws.wc.invalidate()
	}
	s.ws.wc.fitPrepared = false
	// The watchdogs can rescue a diverged fast-path fit by re-running it on
	// the exact E-step, but only from the exact parameters this fit started
	// with. A cold fit's are the prior's, which init reproduces; a warm fit's
	// must be backed up before the first attempt can corrupt them.
	canFallback := !s.opts.DisableHealthChecks && !s.opts.ExactEStep && !s.opts.NaiveEStep
	if canFallback && warmStart {
		s.ws.saveStart(s)
	}
	res, err := s.run(ctx, maxIter)
	if canFallback && IsNumericalHealth(err) {
		s.health.Fallbacks++
		mHealthFallbacks.Inc()
		if warmStart {
			s.ws.restoreStart(s)
		} else {
			s.init()
		}
		// The retry runs the exact E-step with full M-step updates: Σ/σ²
		// will move and the exact path reuses the cached factor workspaces,
		// so the frozen-fit cache cannot survive it.
		s.frozen = false
		s.ws.wc.invalidate()
		s.fallbackExact = true
		res, err = s.run(ctx, maxIter)
		s.fallbackExact = false
	}
	if err != nil && !IsNotConverged(err) {
		// Hard failure (numerical or canceled): the parameters may be
		// mid-update, so the next fit must start cold.
		s.warm = false
		return nil, err
	}
	if warmStart {
		mEMFitsWarm.Inc()
	} else {
		mEMFitsCold.Inc()
	}
	s.warm = true
	if err != nil && !s.opts.StrictConvergence {
		// Soft failure: the capped estimate in res is the usable product;
		// Result.Converged already records the shortfall.
		return res, nil
	}
	return res, err
}
