package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"leo/internal/baseline"
	"leo/internal/control"
	"leo/internal/core"
	"leo/internal/pareto"
	"leo/internal/persist"
	"leo/internal/service"
	"leo/internal/stream"
)

// The layer replay re-runs a serve run's accepted windows and plans, in the
// server's order, through the public functions the server composes
// (control.FilterWindow, the sessions' Stage / core.FitBatch / FinishFit,
// control.ValidateEstimates, persist.Store.Append, control.SanitizeEstimates,
// pareto.NewPlanner and MinimizeEnergyInto), with a span around each call.
// It mirrors the shard's per-window sequence one window at a time: a batch
// of one, which the server's batched-equals-serial contract makes
// bit-identical to what the server computed.

// replayRec is one accepted window to replay.
type replayRec struct {
	shard       int
	tenant      string
	class       string
	idle        float64
	rung        int
	transferred bool // journaled: the tenant's sessions started from the class seed
	known       bool // transferred comes from the journal, not from the replay's own seed state
	obsIdx      []int
	perf, power []float64
	log         *windowLog // the live request, when the client saw it accepted
}

type replayTenant struct {
	perf, power       baseline.Session
	perfEst, powerEst []float64
	windows           int
}

type replaySeed struct {
	perf, power             *core.SessionState
	perfDigest, powerDigest uint64
	perfOps, powerOps       *core.FrozenOps
}

type replayer struct {
	classes map[string]*service.Class
	res     control.Resilience
	configs int
	tr      *tracer
	store   *persist.Store // scratch journal; nil when the workload persists nothing

	tenants map[string]*replayTenant
	seeds   []map[string]*replaySeed // per shard, per class

	windowDur  map[*windowLog]time.Duration
	coldFits   []time.Duration
	fitTotal   time.Duration
	windows    int
	kernelMs   float64
	matrixDiff metricSet
}

// replayServe builds the records (from the shard journals when the run had
// a state directory, else from the client's acceptance order) and replays
// them.
func replayServe(env *serveEnv, spec serveSpec, logs []*windowLog, tr *tracer) (*replayer, error) {
	shards := env.srv.Shards()
	var recs []replayRec
	var err error
	if env.stateDir != "" {
		recs, err = journalRecords(env.stateDir, shards, logs)
	} else {
		recs = clientRecords(env, shards, logs)
	}
	if err != nil {
		return nil, err
	}
	rp := &replayer{
		classes:   map[string]*service.Class{},
		res:       control.Resilience{}.WithDefaults(),
		configs:   env.space.N(),
		tr:        tr,
		tenants:   map[string]*replayTenant{},
		windowDur: map[*windowLog]time.Duration{},
	}
	for i := range env.classes {
		rp.classes[env.classes[i].Name] = &env.classes[i]
	}
	for i := 0; i < shards; i++ {
		rp.seeds = append(rp.seeds, map[string]*replaySeed{})
	}
	if spec.stateDir {
		dir, err := scratchDir(env.stateDir, "replay-journal")
		if err != nil {
			return nil, err
		}
		if rp.store, err = persist.Open(dir); err != nil {
			return nil, err
		}
		defer func() {
			rp.store.Close()
			os.RemoveAll(dir)
		}()
	}
	before, err := scrapeLocal()
	if err != nil {
		return nil, err
	}
	for i := range recs {
		if err := rp.window(&recs[i]); err != nil {
			return nil, fmt.Errorf("window %d of %s: %w", i, recs[i].tenant, err)
		}
	}
	after, err := scrapeLocal()
	if err != nil {
		return nil, err
	}
	rp.matrixDiff = metricSet{}
	rp.kernelMs = addMatrix(rp.matrixDiff, before, after)
	return rp, nil
}

// journalRecords reads every shard's journal in its own append order — the
// order the shard fitted and published the windows.
func journalRecords(stateDir string, shards int, logs []*windowLog) ([]replayRec, error) {
	byKey := map[string]*windowLog{}
	for _, w := range logs {
		byKey[w.tenant+"\x00"+strconv.Itoa(w.index)] = w
	}
	seen := map[string]int{}
	var recs []replayRec
	for sh := 0; sh < shards; sh++ {
		store, err := persist.OpenShard(stateDir, sh)
		if err != nil {
			return nil, err
		}
		jr, err := store.Replay(0)
		store.Close()
		if err != nil {
			return nil, err
		}
		for _, r := range jr {
			meta, err := parseMeta(r.Tenant)
			if err != nil {
				return nil, err
			}
			if meta.shed {
				return nil, fmt.Errorf("journal record %d: shed windows are not replayed", r.Seq)
			}
			key := meta.name + "\x00" + strconv.Itoa(seen[meta.name])
			seen[meta.name]++
			recs = append(recs, replayRec{
				shard: sh, tenant: meta.name, class: meta.class, idle: meta.idle, rung: r.Rung,
				transferred: meta.transferred, known: true,
				obsIdx: r.ObsIdx, perf: r.Perf, power: r.Power, log: byKey[key],
			})
		}
	}
	return recs, nil
}

// clientRecords orders the accepted windows by completion time, per shard:
// without a journal, the client's view is the closest to the server's order.
func clientRecords(env *serveEnv, shards int, logs []*windowLog) []replayRec {
	sorted := append([]*windowLog(nil), logs...)
	sort.SliceStable(sorted, func(a, b int) bool { return sorted[a].done.Before(sorted[b].done) })
	idle := map[string]float64{}
	for _, c := range env.classes {
		idle[c.Name] = c.IdlePower
	}
	recs := make([]replayRec, 0, len(sorted))
	for _, w := range sorted {
		recs = append(recs, replayRec{
			shard: int(stream.Hash64(w.tenant) % uint64(shards)), tenant: w.tenant, class: w.class,
			idle: idle[w.class], obsIdx: w.ev.ObsIdx, perf: w.ev.Perf, power: w.ev.Power, log: w,
		})
	}
	return recs
}

type tenantMeta struct {
	name, class       string
	idle              float64
	rung              int
	shed, transferred bool
}

// parseMeta decodes the tenant tag the server writes on each journal record:
// name, class, idle-power bits (hex), sticky rung and optional flags ("s"
// shed, "t" seed-transferred first window), separated by 0x1f.
func parseMeta(s string) (tenantMeta, error) {
	parts := strings.Split(s, "\x1f")
	if len(parts) < 4 || len(parts) > 5 {
		return tenantMeta{}, fmt.Errorf("malformed journal tenant tag %q", s)
	}
	bits, err := strconv.ParseUint(parts[2], 16, 64)
	if err != nil {
		return tenantMeta{}, fmt.Errorf("malformed idle power in %q", s)
	}
	rung, err := strconv.Atoi(parts[3])
	if err != nil {
		return tenantMeta{}, fmt.Errorf("malformed rung in %q", s)
	}
	m := tenantMeta{name: parts[0], class: parts[1], idle: math.Float64frombits(bits), rung: rung}
	if len(parts) == 5 {
		m.shed = strings.Contains(parts[4], "s")
		m.transferred = strings.Contains(parts[4], "t")
	}
	return m, nil
}

// window replays one accepted window under a replay.window span.
func (rp *replayer) window(r *replayRec) error {
	cl := rp.classes[r.class]
	if cl == nil || r.rung != 0 {
		return fmt.Errorf("class %q rung %d is not replayable", r.class, r.rung)
	}
	tr := rp.tr
	root := tr.id()
	start := time.Now()
	t := rp.tenants[r.tenant]
	fresh := t == nil
	if fresh {
		t = &replayTenant{}
		var err error
		tr.timed(root, "core.new_session", func() { t.perf, err = cl.Tiers[0].Perf.NewSession(context.Background()) })
		if err != nil {
			return err
		}
		tr.timed(root, "core.new_session", func() { t.power, err = cl.Tiers[0].Power.NewSession(context.Background()) })
		if err != nil {
			return err
		}
		rp.tenants[r.tenant] = t
	}
	seeds := rp.seeds[r.shard]
	if !r.known {
		r.transferred = fresh && seeds[r.class] != nil
	}
	cold := fresh && !r.transferred
	if r.transferred {
		seed := seeds[r.class]
		if seed == nil {
			return fmt.Errorf("class %q seed unavailable", r.class)
		}
		var err error
		tr.timed(root, "core.apply_seed", func() { err = applySeed(t, seed) })
		if err != nil {
			return err
		}
	}

	var w control.Window
	tr.timed(root, "control.filter", func() { w = control.FilterWindow(r.obsIdx, r.perf, r.power) })
	bfPerf, okP := t.perf.(baseline.BatchFitter)
	bfPow, okQ := t.power.(baseline.BatchFitter)
	if !okP || !okQ {
		return fmt.Errorf("rung-0 sessions do not support batched fitting")
	}
	var err error
	tr.timed(root, "core.stage", func() {
		t.perf.DropObservations()
		t.power.DropObservations()
		if err = bfPerf.Stage(w.ObsIdx, w.Perf); err == nil {
			err = bfPow.Stage(w.ObsIdx, w.Power)
		}
	})
	if err != nil {
		return err
	}
	var perfEst, powerEst []float64
	fitStart := time.Now()
	for _, m := range []struct {
		bf  baseline.BatchFitter
		est *[]float64
	}{{bfPerf, &perfEst}, {bfPow, &powerEst}} {
		var out []core.BatchOutcome
		tr.timed(root, "core.fit_batch", func() { out, err = core.FitBatch(context.Background(), []*core.Session{m.bf.CoreSession()}) })
		if err != nil {
			return err
		}
		tr.timed(root, "core.finish_fit", func() { *m.est, err = m.bf.FinishFit(out[0].Result, out[0].Err) })
		if err != nil {
			return err
		}
	}
	fit := time.Since(fitStart)
	rp.fitTotal += fit
	if cold {
		rp.coldFits = append(rp.coldFits, fit)
	}
	tr.timed(root, "control.check_jitter", func() {
		if jerr := control.CheckJitter(t.perf, "performance", rp.res.JitterBudget); jerr != nil {
			err = jerr
		} else if jerr := control.CheckJitter(t.power, "power", rp.res.JitterBudget); jerr != nil {
			err = jerr
		}
	})
	if err != nil {
		return err
	}
	tr.timed(root, "control.validate", func() { err = control.ValidateEstimates(perfEst, powerEst, rp.configs) })
	if err != nil {
		return err
	}
	if rp.store != nil {
		rec := &persist.WindowRecord{Seq: rp.store.LastSeq() + 1, Rung: r.rung, ObsIdx: w.ObsIdx, Perf: w.Perf, Power: w.Power, Tenant: r.tenant}
		tr.timed(root, "persist.append", func() { err = rp.store.Append(rec) })
		if err != nil {
			return err
		}
	}
	var perf, power []float64
	tr.timed(root, "control.sanitize", func() { perf, power = control.SanitizeEstimates(perfEst, powerEst) })
	t.perfEst = append(t.perfEst[:0], perf...)
	t.powerEst = append(t.powerEst[:0], power...)
	t.windows++
	if seeds[r.class] == nil {
		tr.timed(root, "core.capture_seed", func() { seeds[r.class] = captureSeed(t) })
	}
	end := time.Now()
	tr.record(root, 0, 0, "replay.window", start, end)
	rp.windows++
	if r.log != nil {
		rp.windowDur[r.log] = end.Sub(start)
		rp.plans(r, t)
	}
	return nil
}

// plans replays the plan requests that followed the window: one frontier,
// then one plan per distinct demand — the plan-cache misses the server paid.
func (rp *replayer) plans(r *replayRec, t *replayTenant) {
	if len(r.log.plans) == 0 {
		return
	}
	tr := rp.tr
	root := tr.id()
	start := time.Now()
	var pl *pareto.Planner
	var err error
	tr.timed(root, "pareto.new_planner", func() { pl, err = pareto.NewPlanner(t.perfEst, t.powerEst, r.idle) })
	if err == nil {
		var plan pareto.Plan
		done := map[[2]float64]bool{}
		for _, d := range r.log.plans {
			if done[d] {
				continue
			}
			done[d] = true
			tr.timed(root, "pareto.minimize", func() { _, _ = pl.MinimizeEnergyInto(d[0], d[1], &plan) })
		}
	}
	tr.record(root, 0, 0, "replay.plans", start, time.Now())
}

// captureSeed and applySeed mirror the server's first-wins class seed: the
// donor's posterior plus its shared frozen-refit operators.
func captureSeed(t *replayTenant) *replaySeed {
	pc, okP := t.perf.(baseline.StateCarrier)
	qc, okQ := t.power.(baseline.StateCarrier)
	if !okP || !okQ {
		return nil
	}
	s := &replaySeed{perf: pc.SessionState(), power: qc.SessionState(), perfDigest: pc.StateDigest(), powerDigest: qc.StateDigest()}
	if oc, ok := t.perf.(baseline.OpsCarrier); ok {
		if ops, err := oc.FrozenOps(); err == nil {
			s.perfOps = ops
		}
	}
	if oc, ok := t.power.(baseline.OpsCarrier); ok {
		if ops, err := oc.FrozenOps(); err == nil {
			s.powerOps = ops
		}
	}
	return s
}

func applySeed(t *replayTenant, s *replaySeed) error {
	pc, okP := t.perf.(baseline.StateCarrier)
	qc, okQ := t.power.(baseline.StateCarrier)
	if !okP || !okQ || pc.StateDigest() != s.perfDigest || qc.StateDigest() != s.powerDigest {
		return fmt.Errorf("seed does not match the tenant's prior")
	}
	if err := pc.RestoreSessionState(s.perf); err != nil {
		return err
	}
	if err := qc.RestoreSessionState(s.power); err != nil {
		return err
	}
	if s.perfOps != nil {
		t.perf.(baseline.OpsCarrier).AdoptFrozenOps(s.perfOps)
	}
	if s.powerOps != nil {
		t.power.(baseline.OpsCarrier).AdoptFrozenOps(s.powerOps)
	}
	return nil
}

// matches requires every tenant's replayed estimates to equal the server's
// final /v1/estimate reply bit for bit.
func (rp *replayer) matches(served map[string]*estimate) error {
	for name, est := range served {
		t := rp.tenants[name]
		if t == nil {
			return fmt.Errorf("tenant %s was served but never replayed", name)
		}
		if t.windows != est.Windows || !sameBits(t.perfEst, est.Perf) || !sameBits(t.powerEst, est.Power) {
			return fmt.Errorf("tenant %s: replayed estimates differ from the served ones", name)
		}
	}
	return nil
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// report adds the replay's per-layer metrics and prints the decomposition
// of replay.window into self times, remainder included.
func (rp *replayer) report(l metricSet, handler map[uint64]span, logs []*windowLog) {
	spans := rp.tr.snapshot()
	us := func(name string, q float64) float64 {
		return orZero(quantile(durationsIn(durations(spans, name), time.Microsecond), q))
	}
	l.add("control.filter_us_p50", us("control.filter", 0.5), "us")
	l.add("control.validate_us_p50", us("control.validate", 0.5), "us")
	l.add("control.sanitize_us_p50", us("control.sanitize", 0.5), "us")
	l.add("core.new_session_us_p50", us("core.new_session", 0.5), "us")
	l.add("pareto.new_planner_us_p50", us("pareto.new_planner", 0.5), "us")
	l.add("pareto.minimize_us_p50", us("pareto.minimize", 0.5), "us")
	l.add("persist.append_ms_p50", us("persist.append", 0.5)/1e3, "ms")
	l.add("persist.append_ms_p99", us("persist.append", 0.99)/1e3, "ms")
	l.add("core.fit_batch_ms_per_window", ratio(float64(rp.fitTotal)/float64(time.Millisecond), float64(rp.windows)), "ms")
	l.add("core.cold_fit_s_p50", orZero(median(durationsIn(rp.coldFits, time.Second))), "s")
	l.add("replay.window_ms_p50", us("replay.window", 0.5)/1e3, "ms")
	for k, v := range rp.matrixDiff {
		l[k] = v
	}
	l.add("matrix.kernel_share", ratio(rp.kernelMs, float64(rp.fitTotal)/float64(time.Millisecond)), "ratio")

	var overhead []float64
	for _, w := range logs {
		h, ok := handler[w.req]
		d, replayed := rp.windowDur[w]
		if w.req != 0 && ok && replayed {
			overhead = append(overhead, float64(h.dur()-d)/float64(time.Millisecond))
		}
	}
	l.add("service.observe_overhead_ms_p50", orZero(median(overhead)), "ms")

	self := selfByName(spans, "replay.window")
	var total time.Duration
	for _, d := range durations(spans, "replay.window") {
		total += d
	}
	l.add("trace.residual_share", ratio(float64(self["replay.window"]), float64(total)), "ratio")
	printDecomposition("replay.window", total, self)
}

// printDecomposition prints each layer's self time under a root span and
// checks that they add up to the root's total.
func printDecomposition(root string, total time.Duration, self map[string]time.Duration) {
	names := make([]string, 0, len(self))
	var sum time.Duration
	for n, d := range self {
		names = append(names, n)
		sum += d
	}
	sort.Strings(names)
	fmt.Printf("decomposition of %s (total %.3f ms):\n", root, float64(total)/1e6)
	for _, n := range names {
		label := n
		if n == root {
			label = n + " (remainder)"
		}
		fmt.Printf("  %-28s %10.3f ms  %5.1f%%\n", label, float64(self[n])/1e6, 100*ratio(float64(self[n]), float64(total)))
	}
	fmt.Printf("  %-28s %10.3f ms (self times sum to the total within %.3f ms)\n", "sum", float64(sum)/1e6, math.Abs(float64(sum-total))/1e6)
}
