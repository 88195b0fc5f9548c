package service

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
)

// FuzzPlanQuery holds planQuery, the hand-rolled /v1/plan query parser, to
// url.ParseQuery: it must never panic, and on every raw query ParseQuery
// accepts whose keys need no unescaping — planQuery matches keys raw — it
// must return (Values.Get(key), Values.Has(key)) for each key the handler
// reads.
func FuzzPlanQuery(f *testing.F) {
	for _, q := range []string{
		"tenant=a&deadline=10&work=5",
		"tenant=a+b&cap=1e%2B3",
		"tenant=%41%62&deadline=%31%30",
		"tenant=a&deadline=%zz",
		"work=1&work=2&cap=3&cap=",
		"&&tenant=a&&deadline=&",
		"tenant&work",
		"tenant=a;deadline=1",
		"",
	} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		type param struct {
			value   string
			present bool
		}
		keys := []string{"tenant", "deadline", "work", "cap"}
		got := make([]param, len(keys))
		for i, key := range keys {
			got[i].value, got[i].present = planQuery(raw, key)
		}
		values, err := url.ParseQuery(raw)
		if err != nil {
			return
		}
		for _, pair := range strings.Split(raw, "&") {
			k, _, _ := strings.Cut(pair, "=")
			if u, err := url.QueryUnescape(k); err != nil || u != k {
				return
			}
		}
		for i, key := range keys {
			if want := (param{values.Get(key), values.Has(key)}); got[i] != want {
				t.Fatalf("planQuery(%q, %q) = %q, %v; url.ParseQuery gives %q, %v",
					raw, key, got[i].value, got[i].present, want.value, want.present)
			}
		}
	})
}

// serveInProcess runs one request through h without a socket and returns
// the recorded reply.
func serveInProcess(h http.Handler, method, target string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
	return rec
}

// tenantView is what an out-of-range observe must leave alone: the
// tenant's published estimates, rung and window count, as /v1/estimate
// reports them.
func tenantView(t testing.TB, h http.Handler, tenant string) string {
	t.Helper()
	rec := serveInProcess(h, http.MethodGet, "/v1/estimate?tenant="+tenant, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("estimate %s: %d %s", tenant, rec.Code, rec.Body.Bytes())
	}
	return rec.Body.String()
}

// observeWindow is a valid window for the fixture's tenant: the first k
// configurations at their true readings.
func observeWindow(f *fixture, tenant string, k int) observeBody {
	b := observeBody{Tenant: tenant, ObsIdx: make([]int, k), Perf: make([]float64, k), Power: make([]float64, k)}
	for i := range b.ObsIdx {
		b.ObsIdx[i], b.Perf[i], b.Power[i] = i, f.truePerf[i], f.truePower[i]
	}
	return b
}

// TestObserveRejectsOutOfRangeIndex: an observation index outside [0, n) is
// a malformed request. It is answered 400 before it reaches a shard, so it
// never counts as an estimation failure: the tenant keeps its rung, window
// count and estimates however often it is repeated.
func TestObserveRejectsOutOfRangeIndex(t *testing.T) {
	f := newFixture(t)
	s, ts := startServer(t, f.config())
	h := s.Handler()
	register(t, ts.URL, "alpha", "kmeans", f.idle)
	observeTruth(t, ts.URL, "alpha", f, 12)
	before := tenantView(t, h, "alpha")

	n := f.space.N()
	for _, bad := range []int{-1, n, n + 5} {
		for try := 0; try < 3; try++ {
			win := observeWindow(f, "alpha", 12)
			win.ObsIdx[4] = bad
			code, body := postJSON(t, ts.URL+"/v1/observe", win)
			if code != http.StatusBadRequest {
				t.Fatalf("index %d, try %d: %d %s, want 400", bad, try, code, body["error"])
			}
		}
	}
	if after := tenantView(t, h, "alpha"); after != before {
		t.Fatalf("out-of-range observes changed the tenant:\nbefore %s\nafter  %s", before, after)
	}
}

// TestObserveDropsReadingPastCeiling: a reading too large for the fit to
// hold (1.797e308, finite) is client input the filter drops, not a fit
// failure. The window is answered 200 with dropped: 1, the tenant keeps its
// rung, and its estimates are bit-identical to those of a tenant on a fresh
// server sent the same window without that pair.
func TestObserveDropsReadingPastCeiling(t *testing.T) {
	f := newFixture(t)
	win := observeWindow(f, "alpha", 12)
	huge := win
	huge.ObsIdx = append(append([]int(nil), win.ObsIdx...), 20)
	huge.Perf = append(append([]float64(nil), win.Perf...), math.MaxFloat64)
	huge.Power = append(append([]float64(nil), win.Power...), f.truePower[20])

	var est [2][2][]float64
	for i, body := range []observeBody{huge, win} {
		_, ts := startServer(t, f.config())
		register(t, ts.URL, "alpha", "kmeans", f.idle)
		code, reply := postJSON(t, ts.URL+"/v1/observe", body)
		if code != http.StatusOK {
			t.Fatalf("window %d: %d %s", i, code, reply["error"])
		}
		var dropped int
		var rung string
		if err := json.Unmarshal(reply["dropped"], &dropped); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(reply["rung"], &rung); err != nil {
			t.Fatal(err)
		}
		if want := 1 - i; dropped != want || rung != "LEO" {
			t.Fatalf("window %d: dropped %d on rung %q, want %d on LEO", i, dropped, rung, want)
		}
		est[i] = fetchEstimates(t, ts.URL, "alpha")
	}
	requireSameVector(t, "perf", est[0][0], est[1][0])
	requireSameVector(t, "power", est[0][1], est[1][1])
}

// FuzzObserveBody drives /v1/observe in process, through Server.Handler
// and httptest.NewRecorder, against one registered tenant that already
// holds estimates. No body may panic, every reply must be JSON, and a body
// that decodes as an observe request with equal non-zero lengths and any
// index outside [0, n) must get 400 and leave the tenant's estimates, rung
// and window count as they were.
func FuzzObserveBody(f *testing.F) {
	fx := newFixture(f)
	cfg := fx.config()
	cfg.Shards = 1
	s, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() {
		if err := s.Close(context.Background()); err != nil {
			f.Errorf("Close: %v", err)
		}
	})
	h := s.Handler()
	post := func(body []byte) *httptest.ResponseRecorder {
		return serveInProcess(h, http.MethodPost, "/v1/observe", body)
	}
	seed := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	if rec := serveInProcess(h, http.MethodPost, "/v1/register",
		seed(map[string]any{"tenant": "alpha", "class": "kmeans", "idle_power": fx.idle})); rec.Code != http.StatusOK {
		f.Fatalf("register: %d %s", rec.Code, rec.Body.Bytes())
	}
	valid := observeWindow(fx, "alpha", 12)
	if rec := post(seed(valid)); rec.Code != http.StatusOK {
		f.Fatalf("first window: %d %s", rec.Code, rec.Body.Bytes())
	}

	n := fx.space.N()
	with := func(edit func(b *observeBody)) []byte {
		b := observeWindow(fx, "alpha", 12)
		edit(&b)
		return seed(b)
	}
	for _, body := range [][]byte{
		seed(valid),
		with(func(b *observeBody) { b.ObsIdx[0] = -1 }),
		with(func(b *observeBody) { b.ObsIdx[11] = n }),
		with(func(b *observeBody) { b.ObsIdx[5] = 1 << 40 }),
		with(func(b *observeBody) { b.Perf = b.Perf[:11] }),
		with(func(b *observeBody) { b.ObsIdx, b.Perf, b.Power = nil, nil, nil }),
		with(func(b *observeBody) { b.Tenant = "" }),
		with(func(b *observeBody) { b.Tenant = "ghost" }),
		with(func(b *observeBody) { b.ObsIdx = b.ObsIdx[:2]; b.Perf = b.Perf[:2]; b.Power = b.Power[:2] }),
		with(func(b *observeBody) { b.ObsIdx[3] = b.ObsIdx[2] }),
		with(func(b *observeBody) { b.Perf[0], b.Power[1] = 1.7976931348623157e308, -1.7976931348623157e308 }),
		with(func(b *observeBody) { b.Perf[2], b.Power[3] = 5e-324, 0 }),
		with(func(b *observeBody) {
			b.ObsIdx, b.Perf, b.Power = append(b.ObsIdx, 20), append(b.Perf, 1.797e308), append(b.Power, fx.truePower[20])
		}),
		[]byte(`{"tenant":"alpha","obs_idx":[0,1,2,3],"perf":[1,2,3,4],"power":[1,2,3,"x"]}`),
		[]byte(`{"tenant":"alpha","obs_idx":[1.5],"perf":[1],"power":[1]}`),
		[]byte(`{"tenant":"alpha"`),
		[]byte(`[]`),
		[]byte(``),
	} {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req observeBody
		outOfRange := false
		if json.Unmarshal(body, &req) == nil && len(req.ObsIdx) > 0 &&
			len(req.ObsIdx) == len(req.Perf) && len(req.ObsIdx) == len(req.Power) {
			for _, idx := range req.ObsIdx {
				outOfRange = outOfRange || idx < 0 || idx >= n
			}
		}
		var before string
		if outOfRange {
			before = tenantView(t, h, "alpha")
		}
		rec := post(body)
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("status %d reply is not JSON: %q", rec.Code, rec.Body.Bytes())
		}
		if !outOfRange {
			return
		}
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("out-of-range index: %d %s, want 400", rec.Code, rec.Body.Bytes())
		}
		if after := tenantView(t, h, "alpha"); after != before {
			t.Fatalf("out-of-range observe changed the tenant:\nbefore %s\nafter  %s", before, after)
		}
	})
}
