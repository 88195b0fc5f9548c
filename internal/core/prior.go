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
// covariance Σ₀ = I + sample covariance: the state every cold EM fit would
// otherwise recompute from scratch.
//
// A Prior's model is immutable once built and the whole object is safe for
// concurrent use: any number of goroutines may call NewSession and run the
// resulting sessions in parallel. The only mutable state is the prior's own
// free list of fit scratch, which has its own lock, and the lazily built Σ₀,
// which sigma0Once guards.
type Prior struct {
	opts  Options
	known *matrix.Matrix // private clone of the (M−1)×n database
	n     int

	colMean []float64 // offline column means (nil when no rows)
	sumSq   float64   // Σ v² over the database, in row-major order
	count   int       // number of database entries

	// Σ₀, read through coldSigma. Only cold starts in a session's own
	// coordinates need it (frame.go), so a prior whose fits all run in
	// data-subspace frames never builds the n×n matrix.
	sigma0Once sync.Once
	sigma0     *matrix.Matrix // initial Σ: identity + sample covariance

	// The free list NewSession's sessions and Estimate's one-shot fits
	// borrow their fit scratch from.
	free *FreeList

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
	p.free = p.NewFreeList()
	if p.known.Rows > 0 {
		p.colMean = stats.ColumnMeans(p.known)
	}
	for _, v := range p.known.Data {
		p.sumSq += v * v
		p.count++
	}
	return p, nil
}

// coldSigma returns Σ₀, building it on the first call. Only cold starts in
// a session's own coordinates read it: fits whose data-subspace frame would
// span every configuration.
func (p *Prior) coldSigma() *matrix.Matrix {
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
	})
	return p.sigma0
}

// Options returns the fit options every session derived from this prior uses
// (with defaults applied).
func (p *Prior) Options() Options { return p.opts }

// Estimate runs one cold fit over this prior: the exact computation of the
// package-level Estimate, minus rebuilding the offline model. Validation
// matches Estimate too — mismatched lengths, duplicate or out-of-range
// indices and non-finite values are rejected with the same errors. The fit
// borrows its scratch from the prior's free list and keeps no posterior:
// nothing of it beyond the Result survives, so the fit leaves μ in its
// frame and the frame's storage in the scratch, where the next one-shot fit
// reuses it. To read the fitted μ and Σ, fit a session and take its State.
func (p *Prior) Estimate(ctx context.Context, obsIdx []int, obsVal []float64) (*Result, error) {
	if len(obsIdx) != len(obsVal) {
		return nil, fmt.Errorf("core: %d observation indices but %d values", len(obsIdx), len(obsVal))
	}
	if p.known.Rows == 0 && len(obsIdx) == 0 {
		return nil, ErrNoData
	}
	s := p.NewSession()
	s.oneShot = true
	s.obsPos = make(map[int]int, len(obsIdx))
	for i, idx := range obsIdx {
		if idx < 0 || idx >= p.n {
			return nil, fmt.Errorf("core: observation index %d out of range [0,%d)", idx, p.n)
		}
		if _, dup := s.obsPos[idx]; dup {
			return nil, fmt.Errorf("core: duplicate observation index %d", idx)
		}
		s.obsPos[idx] = i
	}
	for _, v := range obsVal {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("core: non-finite observation %g", v)
		}
	}
	// The session dies before Estimate returns and never writes its
	// observations, so it reads the caller's in place.
	s.obsIdx, s.obsVal = obsIdx, obsVal
	return s.Fit(ctx)
}

// NewSession creates an independent fitting session over this prior whose
// fits borrow their scratch from the prior's own free list. Only one-shot
// fits and callers without an estimator of their own reach that list;
// baseline.LEO opens its sessions through a free list of its own
// (NewFreeList). See FreeList.NewSession.
func (p *Prior) NewSession() *Session { return p.free.NewSession() }

// A FreeList lends fit scratch to the sessions opened through it. A session
// keeps its posterior between fits and nothing else: every buffer a fit
// writes and no later fit reads (the EM workspaces, the frame build, the
// frozen refit's per-fit operands) is scratch, which each fit takes from
// the list at entry and returns at exit. A returned scratch is reused
// unzeroed by whichever session fits next, as every fit path rewrites what
// it reads. The list grows only while fits run at once through it, so it
// holds at most as many scratch sets as it ever lent together, and it dies
// with its owner: baseline.LEO owns one per estimator. Safe for concurrent
// use.
type FreeList struct {
	prior *Prior
	mu    sync.Mutex
	free  []*fitScratch
}

// NewFreeList returns an empty free list for sessions over p.
func (p *Prior) NewFreeList() *FreeList { return &FreeList{prior: p} }

// NewSession creates an independent fitting session over the list's prior.
// Opening one allocates only the observation index and computes nothing: μ
// arrives with the first fit or Restore, and the fits borrow everything
// else from the list. Sessions are not safe for concurrent use with
// themselves — use one per goroutine; the shared Prior and FreeList are.
func (fl *FreeList) NewSession() *Session {
	p := fl.prior
	return &Session{
		prior:  p,
		free:   fl,
		opts:   p.opts,
		known:  p.known,
		n:      p.n,
		m:      p.known.Rows + 1,
		obsPos: make(map[int]int),
	}
}

// get pops a scratch set, or allocates one when none is free.
func (fl *FreeList) get() *fitScratch {
	fl.mu.Lock()
	if k := len(fl.free); k > 0 {
		sc := fl.free[k-1]
		fl.free[k-1] = nil
		fl.free = fl.free[:k-1]
		fl.mu.Unlock()
		return sc
	}
	fl.mu.Unlock()
	return newFitScratch(fl.prior.n, fl.prior.known.Rows)
}

// put returns a scratch set, holding no session's frame, to the list.
func (fl *FreeList) put(sc *fitScratch) {
	sc.sub.unbind()
	fl.mu.Lock()
	fl.free = append(fl.free, sc)
	fl.mu.Unlock()
}

// fitScratch is everything a fit writes and no later fit reads.
type fitScratch struct {
	ws  *emWorkspace // n-dimensional: the identity frame's and the target's buffers
	sub *subspace    // the subspace frame's build and d-dimensional buffers
}

func newFitScratch(n, rows int) *fitScratch {
	return &fitScratch{ws: newEMWorkspace(n, rows), sub: newSubspace(rows)}
}

// borrow takes scratch from the session's free list unless the session
// already holds some, and reports whether it took it; whoever took it
// returns it with giveBack.
func (s *Session) borrow() bool {
	if s.fitScratch != nil {
		return false
	}
	s.fitScratch = s.free.get()
	return true
}

// giveBack returns the session's scratch to its free list.
func (s *Session) giveBack() {
	s.free.put(s.fitScratch)
	s.fitScratch = nil
}

// Session is one target application's incremental fit against a shared Prior.
// It accumulates online observations via Add and warm-starts each Fit from
// the posterior parameters of the previous one. Between fits it holds that
// posterior and nothing else — μ, σ², its observations, Σ in its frame and
// the frozen-refit operators — and each fit borrows its scratch from the
// free list the session was opened with (FreeList), so repeated fits
// allocate nothing beyond the first. The zero value is unusable; obtain
// sessions from Prior.NewSession or FreeList.NewSession.
type Session struct {
	prior *Prior
	free  *FreeList
	opts  Options
	known *matrix.Matrix // the prior's database (shared, read-only)
	n     int            // configurations
	m     int            // applications including the target

	obsIdx []int
	obsVal []float64
	obsPos map[int]int // observation index -> position in obsIdx/obsVal

	// Posterior parameters. Before the first fit (or after ForgetPosterior)
	// they are seeded from the prior; afterwards they carry the previous
	// fit's result, which is the warm start. μ is dense, allocated by the
	// first fit or Restore that writes it. Σ lives in the posterior's frame
	// (frame.go): the subspace frame held when it is set, otherwise the
	// identity frame, where sigma holds it densely (allocated by the first
	// path that needs it).
	mu     []float64
	sigma  *matrix.Matrix
	sigma2 float64
	warm   bool
	held   heldFrame

	// ops is the frozen-refit operator set of the current posterior, built
	// by the first frozen refit or adopted from a seed donor (warm.go);
	// anything that changes Σ or σ² drops it.
	ops *frozenOps

	// own is the identity frame over the session's own parameters,
	// refreshed by frame().
	own frame

	health Health

	// frozen marks the current Fit as a frozen-parameter warm refit: Σ and
	// σ² stay pinned, the E-step runs from the operator set, and the M-step
	// updates μ only. Recomputed at every Fit entry (see warm.go for the
	// operators it enables); cleared for the cold refit that rescues a
	// tripped one.
	frozen bool

	// oneShot marks Prior.Estimate's session, whose posterior dies with
	// the call: its cold fit leaves μ unlifted and its frame in the
	// scratch.
	oneShot bool

	// The fit scratch, borrowed from free for the length of a fit (and by
	// FrozenOps to build the operators outside one); nil between fits.
	*fitScratch
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
// ForgetPosterior) cold-starts from the prior. Later calls are frozen
// refits: they warm-start from the previous posterior with Σ and σ² pinned
// and move μ only, for at most WarmMaxIter iterations (warm.go). A prior
// with no database rows has nothing to pin Σ against, so every fit on it is
// cold.
//
// A frozen refit that trips a numerical-health watchdog is re-run once as a
// cold fit of the same observations, counted in Health.Fallbacks. A cold fit
// that trips returns its *ErrNumericalHealth like any other hard failure.
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
	if s.borrow() {
		defer s.giveBack()
	}
	// A frame lives for one fit; whatever the scratch's last fit left is
	// stale, and so is its per-fit target preparation.
	s.sub.active = false
	s.ws.fitPrepared = false
	warm := s.warm && s.known.Rows > 0
	var (
		res *Result
		err error
	)
	if warm {
		s.frozen = true
		s.ws.ensureObs(s.n, len(s.obsIdx))
		res, err = s.run(ctx, s.opts.WarmMaxIter)
		if IsNumericalHealth(err) {
			s.health.Fallbacks++
			mHealthFallbacks.Inc()
			// The rescue is a cold fit, and is counted as one.
			warm = false
			res, err = s.fitCold(ctx)
		}
	} else {
		res, err = s.fitCold(ctx)
	}
	if err != nil && !IsNotConverged(err) {
		// Hard failure (numerical or canceled): the parameters may be
		// mid-update, so the next fit must start cold.
		s.warm = false
		return nil, err
	}
	if warm {
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

// fitCold runs a cold fit from the prior's starting parameters. It rewrites
// Σ and σ², so the frozen-refit operators die with it.
func (s *Session) fitCold(ctx context.Context) (*Result, error) {
	s.frozen = false
	s.ops = nil
	s.ws.fitPrepared = false
	s.coldStart()
	return s.run(ctx, s.opts.MaxIter)
}
