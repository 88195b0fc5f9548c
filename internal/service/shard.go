package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"leo/internal/baseline"
	"leo/internal/control"
	"leo/internal/core"
	"leo/internal/pareto"
	"leo/internal/persist"
)

// Typed request outcomes the HTTP layer maps to status codes.
var (
	ErrUnknownTenant  = errors.New("service: unknown tenant")
	ErrUnknownClass   = errors.New("service: unknown application class")
	ErrClassMismatch  = errors.New("service: tenant already registered under a different class")
	ErrNoEstimates    = errors.New("service: tenant has no estimates yet")
	ErrTooFewSamples  = errors.New("service: too few valid probes in window")
	ErrMaxSessions    = errors.New("service: session capacity reached")
	ErrDraining       = errors.New("service: server is draining")
	ErrNoFeasiblePlan = errors.New("service: no feasible plan")
)

type opKind int

const (
	opRegister opKind = iota
	opObserve
	opEstimate
	opPlan
)

// request is one tenant call traveling from the HTTP layer into a shard.
// The reply channel is buffered (capacity 1) so the shard never blocks on a
// caller that gave up.
type request struct {
	// ctx is the caller's lifetime: dispatch stops waiting for the reply once
	// it is done (the shard still processes the request and drops the reply
	// into the buffered channel). nil means wait unconditionally.
	ctx    context.Context
	op     opKind
	tenant string

	class     string  // register
	idlePower float64 // register

	obsIdx []int     // observe
	perf   []float64 // observe
	power  []float64 // observe

	work     float64 // plan
	deadline float64 // plan
	powerCap float64 // plan, capped mode
	capped   bool    // plan: maximize work under powerCap instead

	reply chan response
}

type response struct {
	err error

	windows int    // observe: total windows folded into this tenant
	dropped int    // observe: probes discarded by the validity filter
	rung    string // observe/estimate: tier that served the request
	shed    bool   // observe: window was served by the load-shedding rung

	perfEst, powerEst []float64    // estimate
	idlePower         float64      // estimate
	plan              *pareto.Plan // plan: fallback when planJSON could not render
	planJSON          []byte       // plan: complete pre-encoded reply body
	gen               uint64       // plan: tenant estimates generation
}

// tenant is one application instance's serving state, owned exclusively by
// its shard goroutine.
type tenant struct {
	name      string
	class     *Class
	idlePower float64

	rung                int // sticky index into class.Tiers
	perfSess, powerSess baseline.Session

	perfEst, powerEst []float64 // sanitized copies; nil until the first window
	windows           int
	fitWindows        int  // windows absorbed by the tenant's own sessions (shed ones excluded)
	estFails          int  // consecutive failures at the current rung
	seeded            bool // sessions warm-started from a class seed; cleared when they reopen cold

	// Plan memoization: the Pareto frontier over (perfEst, powerEst) and the
	// fully encoded reply for every (demand, deadline) already served, both
	// valid for exactly one estimates generation.
	estGen    uint64
	planner   *pareto.Planner
	planCache map[planKey][]byte
}

// planKey identifies one memoized plan reply: the exact float bits of the
// demand pair, plus which planning mode produced it.
type planKey struct {
	capped bool
	d1, d2 uint64 // Float64bits of work (or power cap) and deadline
}

// planCacheMax bounds a tenant's memoized replies. Real tenants cycle
// through a handful of quantized demand levels; a tenant that exceeds this
// is churning unique demands, so the whole cache is dropped at once rather
// than tracking recency per entry.
const planCacheMax = 1024

// invalidatePlans advances the tenant's estimates generation, discarding
// the cached frontier and every memoized plan reply. Called wherever the
// published estimates, the tier name, or the session provenance behind them
// change: estimate publishes, degrades, restores, rung changes.
func (t *tenant) invalidatePlans() {
	t.estGen++
	t.planner = nil
	clear(t.planCache)
}

// shard is one single-writer worker: a goroutine that owns a disjoint set
// of tenants, a bounded request queue in front of it, and (optionally) its
// own persist.Store. All tenant state on this struct is touched only by
// run(), which is what makes the sessions lock-free.
type shard struct {
	srv *Server
	id  int

	queue chan *request
	stop  chan struct{} // closed by Server.Close
	done  chan struct{} // closed when run() has snapshotted and exited

	tenants map[string]*tenant
	// seeds hold one captured posterior per class — the REOH-style transfer
	// source that turns a new tenant's first fit from cold (~full EM) into
	// warm (~one refit). First capture wins; see captureSeed.
	seeds    map[string]*classSeed
	store    *persist.Store
	met      shardMetrics
	closeErr error

	planScratch pareto.Plan // reused by plan() on cache misses
}

// classSeed is a donated rung-0 posterior for one application class, held
// with the prior digests that gate its application to a recipient. When the
// donor could export them, the seed also carries the shared frozen-refit
// operator caches, so every transferred tenant's first warm refit skips the
// O(n³) operator rebuild; seeds reloaded from a snapshot carry none and
// recipients rebuild on demand — bit-identical either way.
type classSeed struct {
	perf, power             *core.SessionState
	perfDigest, powerDigest uint64
	perfOps, powerOps       *core.FrozenOps
}

func newShard(srv *Server, id int) (*shard, error) {
	sh := &shard{
		srv:     srv,
		id:      id,
		queue:   make(chan *request, srv.cfg.QueueDepth),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		tenants: make(map[string]*tenant),
		seeds:   make(map[string]*classSeed),
		met:     newShardMetrics(id),
	}
	if srv.cfg.StateDir != "" {
		store, err := persist.OpenShard(srv.cfg.StateDir, id)
		if err != nil {
			return nil, fmt.Errorf("service: shard %d: %w", id, err)
		}
		sh.store = store
		if err := sh.recover(); err != nil {
			store.Close()
			return nil, fmt.Errorf("service: shard %d recovery: %w", id, err)
		}
	}
	return sh, nil
}

func (sh *shard) closeStore() {
	if sh.store != nil {
		sh.store.Close()
	}
}

// run is the shard's single-writer loop: block for one request (or stop),
// drain what else has queued up to BatchMax, and process the batch with
// same-Prior refits coalesced. On stop it finishes the queue, snapshots
// every tenant, and exits.
func (sh *shard) run() {
	defer close(sh.done)
	for {
		var batch []*request
		select {
		case r := <-sh.queue:
			batch = append(batch, r)
		case <-sh.stop:
			sh.shutdown()
			return
		}
		sh.gather(&batch)
		depth := len(sh.queue)
		sh.met.queue.Set(float64(depth))
		mBatchSize.Observe(float64(len(batch)))
		// Load-shedding rung: when the queue is still three-quarters full
		// after taking a whole batch, this tick's refits run on the cheap
		// ladder so the shard catches up instead of collapsing.
		shed := depth >= sh.srv.cfg.QueueDepth*3/4
		sh.process(batch, shed)
	}
}

// gather fills the batch up to BatchMax. Event-driven (TickInterval 0) it
// takes only what has already queued; with a tick configured it waits out the
// remainder of one tick for more arrivals, coalescing refits at the cost of
// up to one tick of latency — the tradeoff the Retry-After hint is derived
// from. A stop during the wait cuts the tick short; the loop sees sh.stop on
// its next select and drains.
func (sh *shard) gather(batch *[]*request) {
	tick := sh.srv.cfg.TickInterval
	var timeout <-chan time.Time
	if tick > 0 {
		timer := time.NewTimer(tick)
		defer timer.Stop()
		timeout = timer.C
	}
	for len(*batch) < sh.srv.cfg.BatchMax {
		select {
		case r := <-sh.queue:
			*batch = append(*batch, r)
			continue
		default:
		}
		if timeout == nil {
			return
		}
		select {
		case r := <-sh.queue:
			*batch = append(*batch, r)
		case <-timeout:
			return
		case <-sh.stop:
			return
		}
	}
}

// shutdown drains every queued request (callers are already being rejected
// with 503 at the HTTP layer), then snapshots the shard's tenants.
func (sh *shard) shutdown() {
	for {
		select {
		case r := <-sh.queue:
			sh.process([]*request{r}, false)
		default:
			sh.closeErr = sh.snapshot()
			if sh.store != nil {
				if err := sh.store.Close(); err != nil && sh.closeErr == nil {
					sh.closeErr = err
				}
			}
			// The shard is done mutating: hand every tenant's sessions back
			// to their estimators' free lists so a successor server over the
			// same priors (restart, tests) admits without reallocating.
			for _, t := range sh.tenants {
				if t.perfSess != nil {
					baseline.ReleaseSession(t.perfSess)
				}
				if t.powerSess != nil {
					baseline.ReleaseSession(t.powerSess)
				}
				t.perfSess, t.powerSess = nil, nil
			}
			return
		}
	}
}

// process serves one gathered batch in phases: registrations first (so an
// observe behind its register in the same batch succeeds), then observes
// with same-Prior refits batched, then reads (estimate/plan) against the
// freshly updated state.
func (sh *shard) process(batch []*request, shed bool) {
	var observes, reads []*request
	for _, r := range batch {
		switch r.op {
		case opRegister:
			sh.register(r)
		case opObserve:
			observes = append(observes, r)
		default:
			reads = append(reads, r)
		}
	}
	sh.processObserves(observes, shed)
	for _, r := range reads {
		switch r.op {
		case opEstimate:
			sh.estimate(r)
		case opPlan:
			sh.plan(r)
		}
	}
}

func (sh *shard) register(r *request) {
	cl, ok := sh.srv.classes[r.class]
	if !ok {
		r.reply <- response{err: fmt.Errorf("%w: %q", ErrUnknownClass, r.class)}
		return
	}
	if t, exists := sh.tenants[r.tenant]; exists {
		if t.class != cl {
			r.reply <- response{err: fmt.Errorf("%w: %q is %q", ErrClassMismatch, r.tenant, t.class.Name)}
			return
		}
		// Idempotent re-register (a rebooted tenant announcing itself):
		// no new session slot is consumed.
		r.reply <- response{windows: t.windows, rung: t.class.Tiers[t.rung].Name}
		return
	}
	// Admission control: a genuinely new tenant takes one fleet-wide slot.
	if !sh.srv.admit() {
		mRejectedSessions.Inc()
		r.reply <- response{err: ErrMaxSessions}
		return
	}
	t := &tenant{name: r.tenant, class: cl, idlePower: r.idlePower, rung: 0}
	if t.idlePower <= 0 {
		t.idlePower = cl.IdlePower
	}
	if err := sh.openSessions(t); err != nil {
		sh.srv.unadmit()
		r.reply <- response{err: err}
		return
	}
	// Cold-start transfer: when an earlier tenant of this class has donated
	// its first fitted posterior, admission buys a warm session, and the new
	// tenant's first window costs a refit instead of a full cold fit.
	if seed := sh.seeds[cl.Name]; seed != nil {
		applied, err := sh.applySeed(t, seed)
		if err != nil {
			sh.srv.unadmit()
			r.reply <- response{err: err}
			return
		}
		if applied {
			mSeedTransfers.Inc()
		}
	}
	sh.tenants[r.tenant] = t
	mRegisters.Inc()
	mTenants.Add(1)
	sh.met.tenants.Set(float64(len(sh.tenants)))
	r.reply <- response{rung: cl.Tiers[0].Name}
}

// captureSeed donates t's just-fitted rung-0 posterior as its class's
// cold-start seed. First capture wins, in journal-sequence order, so a live
// run and its replay capture the identical seed; sessions that cannot carry
// state are skipped and the next capturable tenant donates instead.
func (sh *shard) captureSeed(t *tenant) {
	pc, okP := t.perfSess.(baseline.StateCarrier)
	qc, okQ := t.powerSess.(baseline.StateCarrier)
	if !okP || !okQ {
		return
	}
	seed := &classSeed{
		perf:        pc.SessionState(),
		power:       qc.SessionState(),
		perfDigest:  pc.StateDigest(),
		powerDigest: qc.StateDigest(),
	}
	// Export the donor's frozen-refit operators alongside the posterior:
	// recipients adopt them instead of each rebuilding the identical bits.
	// Export failure just means recipients rebuild on demand.
	if oc, ok := t.perfSess.(baseline.OpsCarrier); ok {
		if ops, err := oc.FrozenOps(); err == nil {
			seed.perfOps = ops
		}
	}
	if oc, ok := t.powerSess.(baseline.OpsCarrier); ok {
		if ops, err := oc.FrozenOps(); err == nil {
			seed.powerOps = ops
		}
	}
	sh.seeds[t.class.Name] = seed
	mSeedCaptures.Inc()
}

// applySeed warm-starts t's freshly opened rung-0 sessions from a class
// seed. Not applied (false, nil) when the sessions cannot carry state or
// were built against a different prior — the tenant simply starts cold, as
// before seeds existed. A non-nil error means a half-applied transfer could
// not be rolled back to cold sessions, leaving the tenant unusable.
func (sh *shard) applySeed(t *tenant, seed *classSeed) (bool, error) {
	pc, okP := t.perfSess.(baseline.StateCarrier)
	qc, okQ := t.powerSess.(baseline.StateCarrier)
	if !okP || !okQ || pc.StateDigest() != seed.perfDigest || qc.StateDigest() != seed.powerDigest {
		return false, nil
	}
	if err := pc.RestoreSessionState(seed.perf); err != nil {
		return false, sh.openSessions(t)
	}
	if err := qc.RestoreSessionState(seed.power); err != nil {
		return false, sh.openSessions(t)
	}
	// Adopt the donor's shared frozen-refit operators so the transferred
	// tenant's first warm refit skips the O(n³) operator rebuild. Adoption is
	// digest-gated in core; a declined adopt just rebuilds bit-identically.
	if seed.perfOps != nil {
		if oc, ok := t.perfSess.(baseline.OpsCarrier); ok {
			oc.AdoptFrozenOps(seed.perfOps)
		}
	}
	if seed.powerOps != nil {
		if oc, ok := t.powerSess.(baseline.OpsCarrier); ok {
			oc.AdoptFrozenOps(seed.powerOps)
		}
	}
	t.seeded = true
	return true, nil
}

// openSessions (re)creates t's per-metric sessions at its current rung,
// releasing any previous pair to their estimators' free lists. On error the
// tenant's existing sessions are left in place.
func (sh *shard) openSessions(t *tenant) error {
	tier := t.class.Tiers[t.rung]
	perfSess, err := tier.Perf.NewSession(context.Background())
	if err != nil {
		return fmt.Errorf("service: opening %s performance session: %w", tier.Name, err)
	}
	powerSess, err := tier.Power.NewSession(context.Background())
	if err != nil {
		baseline.ReleaseSession(perfSess)
		return fmt.Errorf("service: opening %s power session: %w", tier.Name, err)
	}
	if t.perfSess != nil {
		baseline.ReleaseSession(t.perfSess)
	}
	if t.powerSess != nil {
		baseline.ReleaseSession(t.powerSess)
	}
	t.perfSess, t.powerSess = perfSess, powerSess
	return nil
}

// staged is one observe window whose sessions support batched fitting,
// parked between Stage and FinishFit.
type staged struct {
	req    *request
	ten    *tenant
	w      control.Window
	bfPerf baseline.BatchFitter
	bfPow  baseline.BatchFitter

	perfEst, powerEst []float64
	err               error
}

// processObserves serves a batch's observation windows. Multiple windows
// from one tenant are processed in arrival-order waves (a session can hold
// only one window at a time); within a wave, every tenant whose sessions
// support it is staged and refit through one core.FitBatch pass per
// (class, rung) group — the refit scheduler the shard exists for.
func (sh *shard) processObserves(observes []*request, shed bool) {
	if len(observes) == 0 {
		return
	}
	byTenant := make(map[string][]*request)
	var order []string
	waves := 0
	for _, r := range observes {
		if _, seen := byTenant[r.tenant]; !seen {
			order = append(order, r.tenant)
		}
		byTenant[r.tenant] = append(byTenant[r.tenant], r)
		if n := len(byTenant[r.tenant]); n > waves {
			waves = n
		}
	}
	for k := 0; k < waves; k++ {
		var wave []*request
		for _, name := range order {
			if rs := byTenant[name]; k < len(rs) {
				wave = append(wave, rs[k])
			}
		}
		sh.processWave(wave, shed)
	}
}

func (sh *shard) processWave(wave []*request, shed bool) {
	var items []*staged
	for _, r := range wave {
		t, ok := sh.tenants[r.tenant]
		if !ok {
			r.reply <- response{err: fmt.Errorf("%w: %q", ErrUnknownTenant, r.tenant)}
			continue
		}
		w := control.FilterWindow(r.obsIdx, r.perf, r.power)
		if len(w.ObsIdx) < sh.srv.cfg.Resilience.MinValidSamples {
			r.reply <- response{
				err:     fmt.Errorf("%w: only %d of %d probes usable", ErrTooFewSamples, len(w.ObsIdx), len(r.obsIdx)),
				dropped: w.Dropped,
			}
			continue
		}
		if shed {
			if rung, ok := sh.shedRung(t); ok {
				sh.fitShed(r, t, w, rung)
				continue
			}
		}
		bfPerf, okP := t.perfSess.(baseline.BatchFitter)
		bfPow, okQ := t.powerSess.(baseline.BatchFitter)
		if okP && okQ {
			it := &staged{req: r, ten: t, w: w, bfPerf: bfPerf, bfPow: bfPow}
			// Mirror control.FitWindow exactly: previous window out, new
			// window staged; the fit itself is deferred to the group pass.
			t.perfSess.DropObservations()
			t.powerSess.DropObservations()
			if err := bfPerf.Stage(w.ObsIdx, w.Perf); err != nil {
				it.err = fmt.Errorf("service: performance estimation: %w", err)
			} else if err := bfPow.Stage(w.ObsIdx, w.Power); err != nil {
				it.err = fmt.Errorf("service: power estimation: %w", err)
			}
			items = append(items, it)
			continue
		}
		// Sessions without batch support (the adapted baselines) fit inline
		// through the same shared code path the controller walks.
		perfEst, powerEst, err := control.FitWindow(context.Background(), t.perfSess, t.powerSess, w, sh.srv.cfg.Resilience)
		sh.finishWindow(r, t, w, perfEst, powerEst, err, t.rung, false)
	}
	sh.fitStaged(items)
	for _, it := range items {
		sh.finishWindow(it.req, it.ten, it.w, it.perfEst, it.powerEst, it.err, it.ten.rung, false)
	}
}

// shedRung picks the degraded rung a shed window runs on: one rung below
// the primary, never above the tenant's own sticky rung. False when the
// tenant is already at the ladder's bottom — nothing cheaper exists.
func (sh *shard) shedRung(t *tenant) (int, bool) {
	rung := t.rung + 1
	if rung >= len(t.class.Tiers) {
		return 0, false
	}
	return rung, true
}

// fitShed serves one window on the load-shedding rung with ephemeral
// sessions: the adapted baselines refit from scratch each window anyway, so
// a throwaway session is indistinguishable from a persistent one, and the
// tenant's own (expensive, warm) sessions are left untouched — its sticky
// rung does not change because the *server* fell behind.
func (sh *shard) fitShed(r *request, t *tenant, w control.Window, rung int) {
	tier := t.class.Tiers[rung]
	perfSess, err := tier.Perf.NewSession(context.Background())
	if err == nil {
		var powerSess baseline.Session
		powerSess, err = tier.Power.NewSession(context.Background())
		if err == nil {
			var perfEst, powerEst []float64
			perfEst, powerEst, err = control.FitWindow(context.Background(), perfSess, powerSess, w, sh.srv.cfg.Resilience)
			mShedWindows.Inc()
			baseline.ReleaseSession(perfSess)
			baseline.ReleaseSession(powerSess)
			sh.finishWindow(r, t, w, perfEst, powerEst, err, rung, true)
			return
		}
		baseline.ReleaseSession(perfSess)
	}
	sh.finishWindow(r, t, w, nil, nil, err, rung, true)
}

// fitStaged runs the coalesced refits: staged items grouped by
// (class, rung) — every group's core sessions share one immutable Prior by
// construction — one core.FitBatch pass per metric per group, under the
// same FitWatchdog deadline a serial fit gets. Power sessions are fitted
// only for tenants whose performance fit succeeded, exactly as the serial
// FitWindow path short-circuits, so batched state evolution is
// indistinguishable from serial.
func (sh *shard) fitStaged(items []*staged) {
	type groupKey struct {
		cl   *Class
		rung int
	}
	groups := make(map[groupKey][]*staged)
	var keys []groupKey
	for _, it := range items {
		if it.err != nil {
			continue // staging already failed
		}
		k := groupKey{it.ten.class, it.ten.rung}
		if _, seen := groups[k]; !seen {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], it)
	}
	for _, k := range keys {
		g := groups[k]
		ctx, cancel := watchdogContext(context.Background(), sh.srv.cfg.Resilience)

		perfSessions := make([]*core.Session, len(g))
		for i, it := range g {
			perfSessions[i] = it.bfPerf.CoreSession()
		}
		perfOut, batchErr := core.FitBatch(ctx, perfSessions)
		var survivors []*staged
		for i, it := range g {
			var res *core.Result
			var err error
			if i < len(perfOut) {
				res, err = perfOut[i].Result, perfOut[i].Err
			} else {
				err = batchErr // canceled before this session's turn
			}
			it.perfEst, err = it.bfPerf.FinishFit(res, err)
			if err != nil {
				it.err = fmt.Errorf("service: performance estimation: %w", err)
				continue
			}
			survivors = append(survivors, it)
		}

		powerSessions := make([]*core.Session, len(survivors))
		for i, it := range survivors {
			powerSessions[i] = it.bfPow.CoreSession()
		}
		powerOut, batchErr := core.FitBatch(ctx, powerSessions)
		for i, it := range survivors {
			var res *core.Result
			var err error
			if i < len(powerOut) {
				res, err = powerOut[i].Result, powerOut[i].Err
			} else {
				err = batchErr
			}
			it.powerEst, err = it.bfPow.FinishFit(res, err)
			if err != nil {
				it.err = fmt.Errorf("service: power estimation: %w", err)
				continue
			}
			// Jitter budgets, in FitWindow's order: performance first.
			if jerr := control.CheckJitter(it.ten.perfSess, "performance", sh.srv.cfg.Resilience.JitterBudget); jerr != nil {
				it.err = jerr
			} else if jerr := control.CheckJitter(it.ten.powerSess, "power", sh.srv.cfg.Resilience.JitterBudget); jerr != nil {
				it.err = jerr
			}
		}
		cancel()
	}
}

// finishWindow is the tail of the shared calibrate-window path for one
// tenant window: validate, journal the accepted window before its estimates
// take effect, sanitize, publish. Failures feed the tenant's
// retry-then-degrade ladder — except on shed windows, where the failure is
// the server's choice of rung, not the tenant's estimator.
func (sh *shard) finishWindow(r *request, t *tenant, w control.Window, perfEst, powerEst []float64, err error, rung int, shed bool) {
	cfg := &sh.srv.cfg
	if err == nil {
		err = control.ValidateEstimates(perfEst, powerEst, cfg.Space.N())
		if err != nil {
			err = fmt.Errorf("service: %s estimates rejected: %w", t.class.Tiers[rung].Name, err)
		}
	}
	if err != nil {
		mEstimationFailures.Inc()
		if !shed {
			t.estFails++
			if t.estFails >= cfg.Resilience.MaxEstimationFailures && t.rung+1 < len(t.class.Tiers) {
				t.rung++
				t.estFails = 0
				t.seeded = false // fresh cold sessions at the new rung
				mDegrades.Inc()
				// The tier name baked into cached plan replies changed.
				t.invalidatePlans()
				if serr := sh.openSessions(t); serr != nil {
					err = errors.Join(err, serr)
				}
			}
		}
		r.reply <- response{err: err, dropped: w.Dropped, rung: t.class.Tiers[rung].Name, shed: shed}
		return
	}
	// The seed-transfer marker rides the tenant's first owned window: replay
	// must re-apply the class seed before fitting that window, and only that
	// one — every later window fits from the session state it left behind.
	transferred := !shed && t.seeded && t.fitWindows == 0
	if sh.store != nil {
		rec := &persist.WindowRecord{
			Seq:    sh.store.LastSeq() + 1,
			Rung:   rung,
			ObsIdx: w.ObsIdx,
			Perf:   w.Perf,
			Power:  w.Power,
			Tenant: packTenantMeta(t, shed, transferred),
		}
		if jerr := sh.store.Append(rec); jerr != nil {
			r.reply <- response{err: fmt.Errorf("service: journaling window: %w", jerr), dropped: w.Dropped}
			return
		}
	}
	perf, power := control.SanitizeEstimates(perfEst, powerEst)
	// Own the published vectors: session Update may reuse its buffers on the
	// next fit, and replies must stay stable after the shard moves on.
	t.perfEst = append(t.perfEst[:0], perf...)
	t.powerEst = append(t.powerEst[:0], power...)
	t.windows++
	t.estFails = 0
	if !shed {
		t.fitWindows++
		// First-wins donation: the earliest successfully fitted rung-0
		// posterior of each class becomes its cold-start seed.
		if rung == 0 && sh.seeds[t.class.Name] == nil {
			sh.captureSeed(t)
		}
	}
	t.invalidatePlans()
	mWindows.Inc()
	r.reply <- response{windows: t.windows, dropped: w.Dropped, rung: t.class.Tiers[rung].Name, shed: shed}
}

func (sh *shard) estimate(r *request) {
	t, ok := sh.tenants[r.tenant]
	if !ok {
		r.reply <- response{err: fmt.Errorf("%w: %q", ErrUnknownTenant, r.tenant)}
		return
	}
	if t.perfEst == nil {
		r.reply <- response{err: fmt.Errorf("%w: %q", ErrNoEstimates, r.tenant)}
		return
	}
	r.reply <- response{
		perfEst:   append([]float64(nil), t.perfEst...),
		powerEst:  append([]float64(nil), t.powerEst...),
		idlePower: t.idlePower,
		rung:      t.class.Tiers[t.rung].Name,
		windows:   t.windows,
	}
}

// plan mirrors Controller.PlanContext's estimate-backed path float for
// float: minimize energy over the sanitized estimates; if they call the
// demand infeasible, fall back to the believed-fastest configuration run
// flat out. In capped mode (?cap=) it maximizes completed work under the
// power cap instead, with no fallback — a flat-out fallback would violate
// the cap the caller asked for.
//
// Replies are memoized per tenant: the Pareto frontier is built once per
// estimates generation, and each distinct (demand, deadline) is planned and
// JSON-encoded once, so steady-state planning is one map lookup.
func (sh *shard) plan(r *request) {
	t, ok := sh.tenants[r.tenant]
	if !ok {
		r.reply <- response{err: fmt.Errorf("%w: %q", ErrUnknownTenant, r.tenant)}
		return
	}
	if t.perfEst == nil {
		r.reply <- response{err: fmt.Errorf("%w: %q", ErrNoEstimates, r.tenant)}
		return
	}
	key := planKey{capped: r.capped, d1: math.Float64bits(r.work), d2: math.Float64bits(r.deadline)}
	if r.capped {
		key.d1 = math.Float64bits(r.powerCap)
	}
	if buf, hit := t.planCache[key]; hit {
		mPlanCacheHits.Inc()
		r.reply <- response{planJSON: buf}
		return
	}
	mPlanCacheMisses.Inc()
	plan := &sh.planScratch
	var err error
	if t.planner == nil {
		t.planner, err = pareto.NewPlanner(t.perfEst, t.powerEst, t.idlePower)
	}
	if err == nil {
		if r.capped {
			_, err = t.planner.MaximizePerformanceInto(r.powerCap, r.deadline, plan)
		} else {
			_, err = t.planner.MinimizeEnergyInto(r.work, r.deadline, plan)
		}
	}
	if err != nil {
		if r.capped {
			r.reply <- response{err: fmt.Errorf("%w: %v", ErrNoFeasiblePlan, err)}
			return
		}
		best := believedFastest(t.perfEst)
		if best < 0 {
			r.reply <- response{err: err}
			return
		}
		plan.Allocations = append(plan.Allocations[:0], pareto.Allocation{Index: best, Time: r.deadline})
		plan.IdleTime = 0
		plan.Rate = r.work / r.deadline
		plan.Energy = t.powerEst[best] * r.deadline
	}
	rung := t.class.Tiers[t.rung].Name
	buf, ok := appendPlanJSON(make([]byte, 0, 96+32*len(plan.Allocations)), plan, rung, t.estGen)
	if !ok {
		// Non-finite value in the plan: hand a private copy to the stdlib
		// path, which refuses to encode it exactly as it always has.
		cp := *plan
		cp.Allocations = append([]pareto.Allocation(nil), plan.Allocations...)
		r.reply <- response{plan: &cp, rung: rung, gen: t.estGen}
		return
	}
	if t.planCache == nil {
		t.planCache = make(map[planKey][]byte)
	} else if len(t.planCache) >= planCacheMax {
		clear(t.planCache)
	}
	t.planCache[key] = buf
	r.reply <- response{planJSON: buf}
}

// believedFastest is the controller's infeasible-demand fallback with no
// abandoned configurations: the highest finite estimated rate, -1 when
// every estimate is zero or worse.
func believedFastest(perfEst []float64) int {
	best, bestIdx := 0.0, -1
	for i, v := range perfEst {
		if v > best && !math.IsInf(v, 1) {
			best, bestIdx = v, i
		}
	}
	return bestIdx
}

// --- persistence -----------------------------------------------------------

// metaSep separates tenant metadata fields inside journal records and
// snapshot entry names. 0x1f (ASCII unit separator) cannot appear in tenant
// or class names the HTTP layer accepts.
const metaSep = "\x1f"

// packTenantMeta tags a journal record with everything replay needs to
// reconstruct the tenant it belongs to: name, class, idle power (exact,
// hex-packed bits), the tenant's own sticky rung, and an optional flags
// field — "s" when the window ran on the load-shedding rung, "t" when this
// is a seeded tenant's first owned window (replay re-applies the class seed
// before fitting it).
func packTenantMeta(t *tenant, shed, transferred bool) string {
	meta := t.name + metaSep + t.class.Name + metaSep +
		strconv.FormatUint(math.Float64bits(t.idlePower), 16) + metaSep +
		strconv.Itoa(t.rung)
	if shed || transferred {
		flags := ""
		if shed {
			flags += "s"
		}
		if transferred {
			flags += "t"
		}
		meta += metaSep + flags
	}
	return meta
}

type tenantMeta struct {
	name        string
	class       string
	idlePower   float64
	rung        int
	shed        bool
	transferred bool
}

func unpackTenantMeta(s string) (tenantMeta, error) {
	parts := strings.Split(s, metaSep)
	if len(parts) < 4 || len(parts) > 5 {
		return tenantMeta{}, fmt.Errorf("service: malformed tenant metadata %q", s)
	}
	bits, err := strconv.ParseUint(parts[2], 16, 64)
	if err != nil {
		return tenantMeta{}, fmt.Errorf("service: malformed idle power in %q: %w", s, err)
	}
	rung, err := strconv.Atoi(parts[3])
	if err != nil || rung < 0 {
		return tenantMeta{}, fmt.Errorf("service: malformed rung in %q", s)
	}
	m := tenantMeta{name: parts[0], class: parts[1], idlePower: math.Float64frombits(bits), rung: rung}
	if len(parts) == 5 {
		for _, f := range parts[4] {
			switch f {
			case 's':
				m.shed = true
			case 't':
				m.transferred = true
			default:
				return tenantMeta{}, fmt.Errorf("service: malformed flags in %q", s)
			}
		}
	}
	return m, nil
}

// snapshot persists every tenant's sessions into the shard's store, two
// entries per tenant (perf, power) named by the packed metadata so restore
// can rebuild the tenant without a registry, plus — for tenants that have
// estimates — an "est" entry carrying the published estimate vectors in a
// core.SessionState shell (Mu: perf, ObsVal: power, Sigma2: window count),
// so a gracefully restarted server serves plans immediately instead of
// answering 409 until the next observe. Deterministic order (sorted tenant
// names) so identical state writes identical snapshots.
func (sh *shard) snapshot() error {
	if sh.store == nil {
		return nil
	}
	snap := &persist.Snapshot{Seq: sh.store.LastSeq()}
	// Class seeds first: a tenant whose journaled first window carries the
	// transfer marker but replays on top of this snapshot needs the seed
	// available before its record is reached. Entry names start with the
	// separator, which no tenant name can, so restore tells them apart.
	classes := make([]string, 0, len(sh.seeds))
	for class := range sh.seeds {
		classes = append(classes, class)
	}
	sort.Strings(classes)
	for _, class := range classes {
		seed := sh.seeds[class]
		prefix := metaSep + "seed" + metaSep + class + metaSep
		snap.Sessions = append(snap.Sessions,
			persist.SessionEntry{Name: prefix + "perf", Digest: seed.perfDigest, State: seed.perf},
			persist.SessionEntry{Name: prefix + "power", Digest: seed.powerDigest, State: seed.power},
		)
	}
	names := make([]string, 0, len(sh.tenants))
	for name := range sh.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t := sh.tenants[name]
		meta := packTenantMeta(t, false, t.seeded && t.fitWindows == 0)
		for _, m := range []struct {
			metric string
			sess   baseline.Session
		}{{"perf", t.perfSess}, {"power", t.powerSess}} {
			entry := persist.SessionEntry{Name: meta + metaSep + m.metric, State: &core.SessionState{}}
			if sc, ok := m.sess.(baseline.StateCarrier); ok {
				entry.Digest = sc.StateDigest()
				entry.State = sc.SessionState()
			}
			snap.Sessions = append(snap.Sessions, entry)
		}
		if t.perfEst != nil {
			snap.Sessions = append(snap.Sessions, persist.SessionEntry{
				Name: meta + metaSep + "est",
				State: &core.SessionState{
					Mu:     append([]float64(nil), t.perfEst...),
					ObsVal: append([]float64(nil), t.powerEst...),
					Sigma2: float64(t.windows),
				},
			})
		}
	}
	return sh.store.WriteSnapshot(snap)
}

// recover rebuilds the shard's tenants from its store: snapshot first
// (sessions restored warm when their prior digest still matches), then the
// journaled windows after it, replayed through the same serial code path a
// live batch reduces to — so the recovered estimates are bit-identical to
// the pre-crash ones for every journaled window.
func (sh *shard) recover() error {
	snap, err := sh.store.LoadSnapshot()
	if err != nil {
		// Both generations unusable: the journal is never truncated, so
		// replaying it from the start recovers every window — the same
		// fallback as Controller.AttachStateStore.
		snap = nil
	}
	if snap != nil {
		for _, se := range snap.Sessions {
			// Seed entries lead with the separator — impossible for tenant
			// names — and restore the class's cold-start donation.
			if rest, isSeed := strings.CutPrefix(se.Name, metaSep+"seed"+metaSep); isSeed {
				class, metric, ok := strings.Cut(rest, metaSep)
				if !ok || (metric != "perf" && metric != "power") || se.State == nil {
					return fmt.Errorf("service: malformed seed entry %q", se.Name)
				}
				seed := sh.seeds[class]
				if seed == nil {
					seed = &classSeed{}
					sh.seeds[class] = seed
				}
				if metric == "perf" {
					seed.perf, seed.perfDigest = se.State, se.Digest
				} else {
					seed.power, seed.powerDigest = se.State, se.Digest
				}
				continue
			}
			// Entry names are the packed tenant metadata plus a metric
			// suffix: name/class/idle/rung[/flags]/("perf"|"power"|"est").
			i := strings.LastIndex(se.Name, metaSep)
			if i < 0 {
				return fmt.Errorf("service: malformed snapshot entry %q", se.Name)
			}
			metric := se.Name[i+1:]
			if metric != "perf" && metric != "power" && metric != "est" {
				return fmt.Errorf("service: snapshot entry %q: unknown metric", se.Name)
			}
			meta, err := unpackTenantMeta(se.Name[:i])
			if err != nil {
				return err
			}
			t, err := sh.restoreTenant(meta)
			if err != nil {
				return err
			}
			if t == nil {
				continue // capacity exceeded: tenant dropped
			}
			if metric == "est" {
				if se.State != nil && len(se.State.Mu) > 0 {
					t.perfEst = append([]float64(nil), se.State.Mu...)
					t.powerEst = append([]float64(nil), se.State.ObsVal...)
					t.windows = int(se.State.Sigma2)
					t.invalidatePlans()
				}
				continue
			}
			sess := t.perfSess
			if metric == "power" {
				sess = t.powerSess
			}
			sc, ok := sess.(baseline.StateCarrier)
			if ok && se.Digest != 0 && se.Digest == sc.StateDigest() && se.State != nil {
				if err := sc.RestoreSessionState(se.State); err != nil {
					return fmt.Errorf("service: restoring %q: %w", se.Name, err)
				}
			}
		}
	}
	var afterSeq uint64
	if snap != nil {
		afterSeq = snap.Seq
	}
	recs, err := sh.store.Replay(afterSeq)
	if err != nil {
		return err
	}
	for _, rec := range recs {
		if rec.Tenant == "" {
			continue // not a service record
		}
		if err := sh.applyRecord(rec); err != nil {
			return err
		}
	}
	sh.met.tenants.Set(float64(len(sh.tenants)))
	return nil
}

// restoreTenant finds or creates the tenant a snapshot entry or journal
// record describes, moving it to the recorded sticky rung (fresh sessions
// on a rung change, exactly as a live degrade opens fresh ones). nil when
// the fleet-wide session cap is already spent.
func (sh *shard) restoreTenant(meta tenantMeta) (*tenant, error) {
	cl, ok := sh.srv.classes[meta.class]
	if !ok {
		return nil, fmt.Errorf("service: recovered tenant %q names unknown class %q", meta.name, meta.class)
	}
	if meta.rung >= len(cl.Tiers) {
		return nil, fmt.Errorf("service: recovered tenant %q rung %d beyond ladder", meta.name, meta.rung)
	}
	if t, exists := sh.tenants[meta.name]; exists {
		if t.rung != meta.rung {
			t.rung = meta.rung
			t.estFails = 0
			t.seeded = false
			t.invalidatePlans()
			if err := sh.openSessions(t); err != nil {
				return nil, err
			}
		}
		if meta.transferred {
			t.seeded = true
		}
		return t, nil
	}
	if !sh.srv.admit() {
		return nil, nil
	}
	t := &tenant{name: meta.name, class: cl, idlePower: meta.idlePower, rung: meta.rung}
	if t.idlePower <= 0 {
		t.idlePower = cl.IdlePower
	}
	if err := sh.openSessions(t); err != nil {
		sh.srv.unadmit()
		return nil, err
	}
	t.seeded = meta.transferred
	sh.tenants[meta.name] = t
	mTenants.Add(1)
	mRestoredTenants.Inc()
	return t, nil
}

// applyRecord replays one journaled window. Shed windows replay on
// ephemeral sessions at the recorded rung, exactly as they ran live; owned
// windows walk FitWindow — which a batched live fit is bit-identical to —
// so the tenant's sessions and estimates land where the crash left them.
func (sh *shard) applyRecord(rec *persist.WindowRecord) error {
	meta, err := unpackTenantMeta(rec.Tenant)
	if err != nil {
		return err
	}
	t, err := sh.restoreTenant(meta)
	if err != nil {
		return err
	}
	if t == nil {
		return nil // capacity exceeded: tenant dropped
	}
	w := control.Window{ObsIdx: rec.ObsIdx, Perf: rec.Perf, Power: rec.Power}
	var perfEst, powerEst []float64
	if meta.shed {
		if rec.Rung < 0 || rec.Rung >= len(t.class.Tiers) {
			return fmt.Errorf("service: journaled shed rung %d beyond ladder", rec.Rung)
		}
		tier := t.class.Tiers[rec.Rung]
		perfSess, serr := tier.Perf.NewSession(context.Background())
		if serr != nil {
			return serr
		}
		powerSess, serr := tier.Power.NewSession(context.Background())
		if serr != nil {
			return serr
		}
		perfEst, powerEst, err = control.FitWindow(context.Background(), perfSess, powerSess, w, sh.srv.cfg.Resilience)
	} else {
		if meta.transferred {
			// The record ran live on seed-transferred sessions; re-apply the
			// seed (captured earlier in this replay, or restored from the
			// snapshot) so the refit starts from the same posterior. On a
			// snapshot-restored, never-fitted tenant the re-apply is
			// idempotent.
			seed := sh.seeds[meta.class]
			if seed == nil {
				return fmt.Errorf("service: replaying window %d for %q: class %q transfer seed unavailable", rec.Seq, meta.name, meta.class)
			}
			applied, aerr := sh.applySeed(t, seed)
			if aerr != nil {
				return aerr
			}
			if !applied {
				return fmt.Errorf("service: replaying window %d for %q: class %q seed does not match the current prior", rec.Seq, meta.name, meta.class)
			}
		}
		perfEst, powerEst, err = control.FitWindow(context.Background(), t.perfSess, t.powerSess, w, sh.srv.cfg.Resilience)
	}
	if err == nil {
		err = control.ValidateEstimates(perfEst, powerEst, sh.srv.cfg.Space.N())
	}
	if err != nil {
		// A journaled window was accepted live; a failed replay means the
		// environment changed (e.g. different ladder). Surface it rather
		// than silently recovering different state.
		return fmt.Errorf("service: replaying window %d for %q: %w", rec.Seq, meta.name, err)
	}
	perf, power := control.SanitizeEstimates(perfEst, powerEst)
	t.perfEst = append(t.perfEst[:0], perf...)
	t.powerEst = append(t.powerEst[:0], power...)
	t.windows++
	if !meta.shed {
		t.fitWindows++
		// Mirror the live capture point record for record, so replay and the
		// run it reconstructs agree on every class's seed.
		if rec.Rung == 0 && sh.seeds[t.class.Name] == nil {
			sh.captureSeed(t)
		}
	}
	t.invalidatePlans()
	return nil
}
