package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"leo/internal/profile"
	"leo/internal/stream"
)

// BenchmarkServiceThroughput measures the serving layer end to end: a
// synthetic fleet (GenerateTraffic) replayed over real HTTP against a
// sharded server. One benchmark iteration replays the whole schedule —
// registrations, observe windows and piggybacked plan requests — through a
// small client pool that preserves per-tenant ordering (tenants are
// partitioned across clients by the same FNV hash the shards use).
//
// Three custom metrics feed the BENCH_em.json service column: sessions/s is
// tenant-windows refit per wall-clock second (the service's unit of work —
// each window is one warm session refit per metric), plans/s is plan
// requests answered per wall-clock second, and p99-plan-ms is the
// client-observed 99th-percentile plan latency.
//
// The workload is plan-heavy and admission-heavy on purpose: tenants
// register on their first window's arrival (not all at t=0), so cold-start
// transfer is on the measured path, and each window is followed by several
// plan requests over quantized demand levels, so the plan cache is too.
func BenchmarkServiceThroughput(b *testing.B) {
	f := newFixture(b)
	cfg := f.config()
	cfg.Shards = 4

	tenants := 32
	duration := 3.0
	if testing.Short() {
		tenants = 8
		duration = 1.0
	}
	events, err := GenerateTraffic(TrafficConfig{
		Seed:    7,
		Tenants: tenants,
		Classes: []TrafficClass{
			{Name: "kmeans", PerfTruth: f.truePerf, PowerTruth: f.truePower},
		},
		MeanRate:          1,
		DiurnalAmplitude:  0.5,
		DiurnalPeriod:     duration,
		Duration:          duration,
		ProbesPerWindow:   12,
		Noise:             0.02,
		PlansPerWindow:    8,
		PlanLevels:        4,
		RegisterOnArrival: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	windows, plans := 0, 0
	for _, ev := range events {
		switch ev.Kind {
		case EvObserve:
			windows++
		case EvPlan:
			plans++
		}
	}
	if windows == 0 {
		b.Fatal("traffic schedule has no observe windows")
	}

	const clients = 4
	var planLat []time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		srv, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		// Steady-state admission: one untimed donor window per shard captures
		// each shard's class seed, the once-per-deployment cold fit. The
		// measured replay then pays what a running fleet pays — seed-
		// transferred warm refits — for every arriving tenant.
		seedShards(b, ts.URL, f, cfg.Shards)
		b.StartTimer()

		lat := replayTraffic(b, ts.URL, events, clients)

		b.StopTimer()
		ts.Close()
		if err := srv.Close(context.Background()); err != nil {
			b.Fatal(err)
		}
		planLat = append(planLat, lat...)
		// Collect the replay's HTTP-layer garbage off the clock: on a
		// single-CPU box a background cycle landing mid-replay steals
		// wall-clock from every shard at once and bimodalizes the numbers.
		runtime.GC()
		b.StartTimer()
	}
	b.StopTimer()

	elapsed := b.Elapsed().Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(windows*b.N)/elapsed, "sessions/s")
		b.ReportMetric(float64(plans*b.N)/elapsed, "plans/s")
	}
	if len(planLat) > 0 {
		sort.Slice(planLat, func(i, j int) bool { return planLat[i] < planLat[j] })
		p99 := planLat[(len(planLat)*99+99)/100-1]
		b.ReportMetric(float64(p99)/float64(time.Millisecond), "p99-plan-ms")
	}
}

// seedShards registers one donor tenant per shard and feeds it a single
// observation window, so every shard holds a class seed before the timed
// replay begins. Donor names are probed until each shard's hash bucket is
// covered — the same FNV lane the server routes by.
func seedShards(b *testing.B, base string, f *fixture, shards int) {
	b.Helper()
	rng := rand.New(rand.NewSource(12345))
	covered := make([]bool, shards)
	remaining := shards
	for k := 0; remaining > 0; k++ {
		name := fmt.Sprintf("seed-donor-%03d", k)
		sh := int(stream.Hash64(name) % uint64(shards))
		if covered[sh] {
			continue
		}
		covered[sh] = true
		remaining--
		mask := profile.RandomMask(len(f.truePerf), 12, rng)
		perf := profile.Observe(f.truePerf, mask, 0.02, rng)
		power := profile.Observe(f.truePower, mask, 0.02, rng)
		for _, ev := range []Event{
			{Kind: EvRegister, Tenant: name, Class: "kmeans"},
			{Kind: EvObserve, Tenant: name, ObsIdx: mask, Perf: perf.Values, Power: power.Values},
		} {
			if _, err := issueEvent(base, ev); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// replayTraffic issues the schedule against base through a fixed client
// pool. Each tenant's events run on one client in schedule order, so the
// per-tenant observe→plan dependency holds; 429 backpressure is honored by
// retrying after a short pause. Returns the observed plan latencies.
func replayTraffic(b *testing.B, base string, events []Event, clients int) []time.Duration {
	perClient := make([][]Event, clients)
	for _, ev := range events {
		c := int(stream.Hash64(ev.Tenant) % uint64(clients))
		perClient[c] = append(perClient[c], ev)
	}
	lats := make([][]time.Duration, clients)
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, ev := range perClient[c] {
				lat, err := issueEvent(base, ev)
				if err != nil {
					select {
					case errs <- err:
					default:
					}
					return
				}
				if ev.Kind == EvPlan {
					lats[c] = append(lats[c], lat)
				}
			}
		}(c)
	}
	wg.Wait()
	select {
	case err := <-errs:
		b.Fatal(err)
	default:
	}
	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	return all
}

// issueEvent performs one traffic event, retrying 429 backpressure.
func issueEvent(base string, ev Event) (time.Duration, error) {
	for attempt := 0; ; attempt++ {
		var (
			resp *http.Response
			err  error
		)
		start := time.Now()
		switch ev.Kind {
		case EvRegister:
			body, _ := json.Marshal(map[string]any{"tenant": ev.Tenant, "class": ev.Class})
			resp, err = http.Post(base+"/v1/register", "application/json", bytes.NewReader(body))
		case EvObserve:
			body, _ := json.Marshal(map[string]any{
				"tenant": ev.Tenant, "obs_idx": ev.ObsIdx, "perf": ev.Perf, "power": ev.Power,
			})
			resp, err = http.Post(base+"/v1/observe", "application/json", bytes.NewReader(body))
		case EvPlan:
			resp, err = http.Get(fmt.Sprintf("%s/v1/plan?tenant=%s&work=%g&deadline=%g",
				base, ev.Tenant, ev.Work, ev.Deadline))
		}
		if err != nil {
			return 0, err
		}
		lat := time.Since(start)
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests && attempt < 50 {
			time.Sleep(2 * time.Millisecond)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("%v %s: %d %s", ev.Kind, ev.Tenant, resp.StatusCode, raw)
		}
		return lat, nil
	}
}
