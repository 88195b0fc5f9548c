package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"leo/internal/apps"
	"leo/internal/core"
	"leo/internal/platform"
	"leo/internal/profile"
)

// fixture is the shared serving scenario: the small space, kmeans as the
// tenant application class, LEO priors fit leave-one-out — the same rig the
// controller tests run.
type fixture struct {
	space     platform.Space
	classes   []Class
	truePerf  []float64
	truePower []float64
	idle      float64
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	return newFixtureWith(t, platform.Small(), core.Options{}, core.Options{})
}

// newFixtureWith is newFixture over space, with the performance and power
// priors built under the given options.
func newFixtureWith(t testing.TB, space platform.Space, perfOpts, powerOpts core.Options) *fixture {
	t.Helper()
	app := apps.MustByName("kmeans")
	db, err := profile.Collect(space, apps.Suite(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := db.AppIndex(app.Name)
	if err != nil {
		t.Fatal(err)
	}
	rest, _, _, err := db.LeaveOneOut(idx)
	if err != nil {
		t.Fatal(err)
	}
	perfPrior, err := core.NewPrior(rest.Perf, perfOpts)
	if err != nil {
		t.Fatal(err)
	}
	powerPrior, err := core.NewPrior(rest.Power, powerOpts)
	if err != nil {
		t.Fatal(err)
	}
	tiers, err := StandardLadder(space, perfPrior, powerPrior, rest.Perf, rest.Power)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{
		space:     space,
		classes:   []Class{{Name: "kmeans", Tiers: tiers, IdlePower: app.IdlePower}},
		truePerf:  app.PerfVector(space),
		truePower: app.PowerVector(space),
		idle:      app.IdlePower,
	}
}

func (f *fixture) config() Config {
	return Config{Space: f.space, Classes: f.classes, Shards: 2, QueueDepth: 64}
}

// startServer boots a server plus its HTTP front end and wires shutdown
// into test cleanup.
func startServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := s.Close(context.Background()); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return s, ts
}

func postJSON(t testing.TB, url string, body any) (int, map[string]json.RawMessage) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, out
}

func getJSON(t testing.TB, url string) (int, map[string]json.RawMessage) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, out
}

// register is the happy-path helper.
func register(t testing.TB, base, tenant, class string, idle float64) {
	t.Helper()
	code, body := postJSON(t, base+"/v1/register",
		map[string]any{"tenant": tenant, "class": class, "idle_power": idle})
	if code != http.StatusOK {
		t.Fatalf("register %s: %d %s", tenant, code, body["error"])
	}
}

// observeTruth posts one clean window probing the first k configurations.
func observeTruth(t testing.TB, base, tenant string, f *fixture, k int) {
	t.Helper()
	idx := make([]int, k)
	perf := make([]float64, k)
	power := make([]float64, k)
	for i := 0; i < k; i++ {
		idx[i], perf[i], power[i] = i, f.truePerf[i], f.truePower[i]
	}
	code, body := postJSON(t, base+"/v1/observe",
		map[string]any{"tenant": tenant, "obs_idx": idx, "perf": perf, "power": power})
	if code != http.StatusOK {
		t.Fatalf("observe %s: %d %s", tenant, code, body["error"])
	}
}

// TestServeLifecycle walks the README quick-start over real HTTP: register,
// observe a window, read estimates, get a plan.
func TestServeLifecycle(t *testing.T) {
	f := newFixture(t)
	_, ts := startServer(t, f.config())

	register(t, ts.URL, "alpha", "kmeans", f.idle)
	observeTruth(t, ts.URL, "alpha", f, 12)

	code, est := getJSON(t, ts.URL+"/v1/estimate?tenant=alpha")
	if code != http.StatusOK {
		t.Fatalf("estimate: %d %s", code, est["error"])
	}
	var perf []float64
	if err := json.Unmarshal(est["perf"], &perf); err != nil {
		t.Fatal(err)
	}
	if len(perf) != f.space.N() {
		t.Fatalf("estimate length %d, want %d", len(perf), f.space.N())
	}

	code, plan := getJSON(t, ts.URL+"/v1/plan?tenant=alpha&work=100&deadline=10")
	if code != http.StatusOK {
		t.Fatalf("plan: %d %s", code, plan["error"])
	}
	var energy, rate float64
	if err := json.Unmarshal(plan["energy"], &energy); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(plan["rate"], &rate); err != nil {
		t.Fatal(err)
	}
	if energy <= 0 || rate != 10 {
		t.Fatalf("plan energy=%g rate=%g", energy, rate)
	}
}

// TestServeRejections pins every admission/backpressure status code the API
// documents.
func TestServeRejections(t *testing.T) {
	f := newFixture(t)
	cfg := f.config()
	cfg.MaxSessions = 2
	s, ts := startServer(t, cfg)

	// Unknown class: 400, and the reserved session slot is returned.
	code, _ := postJSON(t, ts.URL+"/v1/register", map[string]any{"tenant": "x", "class": "nope"})
	if code != http.StatusBadRequest {
		t.Fatalf("unknown class: %d", code)
	}
	register(t, ts.URL, "a", "kmeans", 0)
	register(t, ts.URL, "b", "kmeans", 0)
	// Idempotent re-register holds no extra slot.
	register(t, ts.URL, "a", "kmeans", 0)
	// Third distinct tenant: admission control.
	code, _ = postJSON(t, ts.URL+"/v1/register", map[string]any{"tenant": "c", "class": "kmeans"})
	if code != http.StatusTooManyRequests {
		t.Fatalf("over capacity: %d, want 429", code)
	}
	// Class mismatch on an existing tenant: 409.
	code, _ = postJSON(t, ts.URL+"/v1/register", map[string]any{"tenant": "a", "class": "other"})
	if code != http.StatusBadRequest && code != http.StatusConflict {
		t.Fatalf("class mismatch: %d", code)
	}

	// Observe for an unregistered tenant: 404.
	code, _ = postJSON(t, ts.URL+"/v1/observe",
		map[string]any{"tenant": "ghost", "obs_idx": []int{0, 1, 2, 3}, "perf": []float64{1, 1, 1, 1}, "power": []float64{1, 1, 1, 1}})
	if code != http.StatusNotFound {
		t.Fatalf("ghost observe: %d, want 404", code)
	}
	// Too few valid probes: 422.
	code, body := postJSON(t, ts.URL+"/v1/observe",
		map[string]any{"tenant": "a", "obs_idx": []int{0, 1}, "perf": []float64{1, 2}, "power": []float64{3, 4}})
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("thin window: %d %s, want 422", code, body["error"])
	}
	// Estimate before any window: 409.
	code, _ = getJSON(t, ts.URL+"/v1/estimate?tenant=a")
	if code != http.StatusConflict {
		t.Fatalf("no estimates: %d, want 409", code)
	}
	code, _ = getJSON(t, ts.URL+"/v1/plan?tenant=a&work=10&deadline=1")
	if code != http.StatusConflict {
		t.Fatalf("no-estimate plan: %d, want 409", code)
	}

	// Draining: everything is 503 after Close.
	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	code, _ = postJSON(t, ts.URL+"/v1/register", map[string]any{"tenant": "z", "class": "kmeans"})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("draining register: %d, want 503", code)
	}
	code, _ = getJSON(t, ts.URL+"/v1/estimate?tenant=a")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("draining estimate: %d, want 503", code)
	}
}

// TestShardPlacementIsStable pins the FNV routing: a tenant always lands on
// the same shard, and the population spreads across shards.
func TestShardPlacementIsStable(t *testing.T) {
	f := newFixture(t)
	cfg := f.config()
	cfg.Shards = 4
	s, _ := startServer(t, cfg)
	seen := make(map[int]bool)
	for i := 0; i < 64; i++ {
		name := fmt.Sprintf("tenant-%06d", i)
		first := s.shardFor(name)
		for j := 0; j < 3; j++ {
			if s.shardFor(name) != first {
				t.Fatalf("tenant %q moved shards", name)
			}
		}
		seen[first.id] = true
	}
	if len(seen) != 4 {
		t.Fatalf("64 tenants hit %d of 4 shards", len(seen))
	}
}

// TestLoadSheddingServesDegradedRung drives a shard's wave processing
// directly (white box: no run loop is started, so this test owns the
// tenants) and asserts a shed window is served by the next rung down with
// the tenant's sticky rung and warm sessions untouched.
func TestLoadSheddingServesDegradedRung(t *testing.T) {
	f := newFixture(t)
	cfg := f.config().withDefaults()
	srv := &Server{
		cfg:      cfg,
		classes:  map[string]*Class{"kmeans": &f.classes[0]},
		draining: make(chan struct{}),
		admitted: make(chan struct{}, cfg.MaxSessions),
	}
	sh, err := newShard(srv, 0)
	if err != nil {
		t.Fatal(err)
	}
	reply := make(chan response, 1)
	sh.register(&request{op: opRegister, tenant: "a", class: "kmeans", reply: reply})
	if resp := <-reply; resp.err != nil {
		t.Fatal(resp.err)
	}

	idx := []int{0, 5, 9, 14, 20, 31, 40, 47, 55, 63, 80, 101, 115, 127}
	perf := make([]float64, len(idx))
	power := make([]float64, len(idx))
	for i, c := range idx {
		perf[i], power[i] = f.truePerf[c], f.truePower[c]
	}
	obs := &request{op: opObserve, tenant: "a", obsIdx: idx, perf: perf, power: power, reply: make(chan response, 1)}
	sh.process([]*request{obs}, true) // shed this tick
	resp := <-obs.reply
	if resp.err != nil {
		t.Fatal(resp.err)
	}
	if !resp.shed || resp.rung != "Online" {
		t.Fatalf("shed window served by rung %q (shed=%v), want Online via shedding", resp.rung, resp.shed)
	}
	ten := sh.tenants["a"]
	if ten.rung != 0 {
		t.Fatalf("shedding moved the sticky rung to %d", ten.rung)
	}
	if ten.perfEst == nil {
		t.Fatal("shed window published no estimates")
	}

	// The next unshed window runs on the tenant's own LEO rung.
	obs2 := &request{op: opObserve, tenant: "a", obsIdx: idx, perf: perf, power: power, reply: make(chan response, 1)}
	sh.process([]*request{obs2}, false)
	resp2 := <-obs2.reply
	if resp2.err != nil {
		t.Fatal(resp2.err)
	}
	if resp2.shed || resp2.rung != "LEO" {
		t.Fatalf("owned window served by %q (shed=%v), want LEO", resp2.rung, resp2.shed)
	}
}

// TestTrafficGeneratorDeterministic: the same config renders byte-identical
// schedules, registrations lead, and arrival times are sorted.
func TestTrafficGeneratorDeterministic(t *testing.T) {
	f := newFixture(t)
	cfg := TrafficConfig{
		Seed:     7,
		Tenants:  5,
		Classes:  []TrafficClass{{Name: "kmeans", PerfTruth: f.truePerf, PowerTruth: f.truePower}},
		MeanRate: 2, Duration: 3, ProbesPerWindow: 8,
		DiurnalAmplitude: 0.5, DiurnalPeriod: 2, Noise: 0.01,
	}
	a, err := GenerateTraffic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateTraffic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("schedule lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if fmt.Sprintf("%+v", a[i]) != fmt.Sprintf("%+v", b[i]) {
			t.Fatalf("schedules diverge at event %d", i)
		}
	}
	registers := 0
	for i, ev := range a {
		if i > 0 && ev.At < a[i-1].At {
			t.Fatalf("events out of order at %d", i)
		}
		if ev.Kind == EvRegister {
			registers++
			if ev.At != 0 {
				t.Fatalf("registration at t=%g, want 0", ev.At)
			}
		}
	}
	if registers != cfg.Tenants {
		t.Fatalf("%d registrations for %d tenants", registers, cfg.Tenants)
	}
}
