package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"leo/internal/platform"
	"leo/internal/service"
)

func schedule(t *testing.T, spec serveSpec, seed int64) []service.Event {
	t.Helper()
	classes, err := classTruths(platform.Small(), spec.classes)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := buildSchedule(spec, classes, seed, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) == 0 {
		t.Fatalf("%s: empty schedule", spec.name)
	}
	return evs
}

// registrations lists (tenant, class) in schedule order: the cohort
// composition of a churn schedule.
func registrations(evs []service.Event) []string {
	var out []string
	for _, ev := range evs {
		if ev.Kind == service.EvRegister {
			out = append(out, ev.Tenant+"/"+ev.Class)
		}
	}
	return out
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	for _, spec := range []serveSpec{planHeavy, admissionChurn} {
		a, b := schedule(t, spec, 7), schedule(t, spec, 7)
		if !bytes.Equal(scheduleBytes(a), scheduleBytes(b)) {
			t.Errorf("%s: same seed gave different schedules", spec.name)
		}
		c := schedule(t, spec, 8)
		if bytes.Equal(scheduleBytes(a), scheduleBytes(c)) {
			t.Errorf("%s: different seeds gave the same schedule", spec.name)
		}
		if spec.cohorts {
			ra, rc := registrations(a), registrations(c)
			if len(ra) == len(rc) && bytes.Equal([]byte(jsonOf(t, ra)), []byte(jsonOf(t, rc))) {
				t.Errorf("%s: different seeds gave the same cohort composition", spec.name)
			}
		}
	}
}

// scheduleBytes is the schedule's canonical encoding.
func scheduleBytes(evs []service.Event) []byte {
	b, err := json.Marshal(evs)
	if err != nil {
		panic(err) // events hold only finite floats, ints and strings
	}
	return b
}

func jsonOf(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestScheduleRegistersBeforeWindowsAndPlans(t *testing.T) {
	for _, spec := range []serveSpec{planHeavy, admissionChurn} {
		registered := map[string]bool{}
		observed := map[string]bool{}
		for _, ev := range schedule(t, spec, 3) {
			switch ev.Kind {
			case service.EvRegister:
				registered[ev.Tenant] = true
			case service.EvObserve:
				if !registered[ev.Tenant] {
					t.Fatalf("%s: %s observes before registering", spec.name, ev.Tenant)
				}
				observed[ev.Tenant] = true
			case service.EvPlan:
				if !observed[ev.Tenant] {
					t.Fatalf("%s: %s plans before its first window", spec.name, ev.Tenant)
				}
			}
		}
		for name := range registered {
			if !observed[name] {
				t.Errorf("%s: %s registers but never reports a window", spec.name, name)
			}
		}
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// TestMetricsMatchBenchmarkJSON pins the reported metric names and units to
// the declaration in BENCHMARK.json.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Workload []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, have []struct{ name, unit string }) {
		want := map[string]string{}
		for _, d := range declared {
			want[d.Name] = d.Unit
		}
		if len(want) != len(have) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark reports %d", kind, len(want), len(have))
		}
		for _, h := range have {
			if !metricName.MatchString(h.name) || len(h.name) > 64 {
				t.Errorf("%s: bad metric name %q", kind, h.name)
			}
			if u, ok := want[h.name]; !ok || u != h.unit {
				t.Errorf("%s: %s (%s) is not declared as such in BENCHMARK.json", kind, h.name, h.unit)
			}
		}
	}
	check("end_to_end", decl.EndToEnd, endToEnd)
	check("per_layer", decl.PerLayer, perLayer)
	var names []string
	for _, w := range decl.Workload {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is declared but not implemented", w.Name)
		}
	}
	if len(names) != len(workloads) {
		sort.Strings(names)
		t.Errorf("BENCHMARK.json declares workloads %v, the benchmark implements %d", names, len(workloads))
	}
}

func at(ms int64) time.Time { return time.Unix(0, ms*int64(time.Millisecond)) }

// TestSelfTimesReconcile checks that the per-layer self times of a span
// tree, remainder included, add up to the root span they decompose.
func TestSelfTimesReconcile(t *testing.T) {
	tr := &tracer{epoch: at(0)}
	root := tr.id()
	c := tr.id()
	tr.record(0, root, 0, "a", at(10), at(40))
	tr.record(0, root, 0, "b", at(40), at(60))
	tr.record(0, c, 0, "d", at(75), at(80))
	tr.record(c, root, 0, "c", at(70), at(90))
	tr.record(root, 0, 0, "root", at(0), at(100))
	tr.record(0, 0, 0, "other", at(0), at(500))

	self := selfByName(tr.snapshot(), "root")
	want := map[string]time.Duration{"root": 30, "a": 30, "b": 20, "c": 15, "d": 5}
	var sum time.Duration
	for name, ms := range want {
		if self[name] != ms*time.Millisecond {
			t.Errorf("self(%s) = %v, want %v ms", name, self[name], ms)
		}
		sum += self[name]
	}
	if len(self) != len(want) {
		t.Errorf("self times cover %d names, want %d (spans outside the root must not count)", len(self), len(want))
	}
	if sum != 100*time.Millisecond {
		t.Errorf("self times sum to %v, want the root's 100ms", sum)
	}
}

func TestSelfTimeMergesOverlapAndClips(t *testing.T) {
	tr := &tracer{epoch: at(0)}
	root := tr.id()
	tr.record(0, root, 0, "x", at(10), at(40))
	tr.record(0, root, 0, "y", at(30), at(60))  // overlaps x
	tr.record(0, root, 0, "z", at(90), at(130)) // runs past the root
	tr.record(root, 0, 0, "root", at(0), at(100))
	self := selfTimes(tr.snapshot())
	if got := self[root]; got != 40*time.Millisecond {
		t.Errorf("self(root) = %v, want 40ms (100 minus the merged 10-60 and clipped 90-100)", got)
	}
}

func TestParseMeta(t *testing.T) {
	m, err := parseMeta("c001-tenant-000003\x1fswish\x1f4044000000000000\x1f0\x1ft")
	if err != nil {
		t.Fatal(err)
	}
	if m.name != "c001-tenant-000003" || m.class != "swish" || m.idle != 40 || m.rung != 0 || !m.transferred || m.shed {
		t.Errorf("parsed %+v", m)
	}
	if _, err := parseMeta("no-separators"); err == nil {
		t.Error("malformed tag accepted")
	}
}

// TestTracerConcurrentUse records client and handler spans from several
// goroutines at once, the way senders and the server's handlers share one
// tracer in a traced run.
func TestTracerConcurrentUse(t *testing.T) {
	tr := newTracer()
	h := traceHandler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}), tr)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				req := uint64(g*1000 + i + 1)
				r := httptest.NewRequest(http.MethodGet, "/v1/plan", nil)
				r.Header.Set(reqHeader, strconv.FormatUint(req, 10))
				start := time.Now()
				h.ServeHTTP(httptest.NewRecorder(), r)
				tr.record(0, 0, req, "client.plan", start, time.Now())
			}
		}(g)
	}
	wg.Wait()
	spans := tr.snapshot()
	if got := len(durations(spans, "handler.plan")); got != 400 {
		t.Errorf("%d handler spans, want 400", got)
	}
	if got := len(durations(spans, "client.plan")); got != 400 {
		t.Errorf("%d client spans, want 400", got)
	}
}
