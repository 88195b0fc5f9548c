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
// reports them. The reply must be JSON.
func tenantView(t testing.TB, h http.Handler, tenant string) string {
	t.Helper()
	rec := serveInProcess(h, http.MethodGet, "/v1/estimate?tenant="+tenant, nil)
	if rec.Code != http.StatusOK || !json.Valid(rec.Body.Bytes()) {
		t.Fatalf("estimate %s: %d %q", tenant, rec.Code, rec.Body.Bytes())
	}
	return rec.Body.String()
}

// viewRung returns the rung a tenantView reports.
func viewRung(t testing.TB, view string) string {
	t.Helper()
	var v struct{ Rung string }
	if err := json.Unmarshal([]byte(view), &v); err != nil {
		t.Fatal(err)
	}
	return v.Rung
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

// alphaInProcess starts a one-shard server over fx, registers tenant
// "alpha" under kmeans and fits its first window, the fixture's first 12
// configurations at their true readings. It returns the server's handler,
// for serveInProcess.
func alphaInProcess(tb testing.TB, fx *fixture) http.Handler {
	tb.Helper()
	cfg := fx.config()
	cfg.Shards = 1
	s, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		if err := s.Close(context.Background()); err != nil {
			tb.Errorf("Close: %v", err)
		}
	})
	h := s.Handler()
	for _, req := range []struct {
		path string
		body any
	}{
		{"/v1/register", map[string]any{"tenant": "alpha", "class": "kmeans", "idle_power": fx.idle}},
		{"/v1/observe", observeWindow(fx, "alpha", 12)},
	} {
		b, err := json.Marshal(req.body)
		if err != nil {
			tb.Fatal(err)
		}
		if rec := serveInProcess(h, http.MethodPost, req.path, b); rec.Code != http.StatusOK {
			tb.Fatalf("%s: %d %s", req.path, rec.Code, rec.Body.Bytes())
		}
	}
	return h
}

// unusablePowerWindow is a well-formed window whose fit leaves some power
// estimates unusable as readings, so the published power vector holds +Inf
// entries (control.SanitizeEstimates).
const unusablePowerWindow = `{"tenant":"alpha","obs_idx":[0,1,10,11],"perf":[1,1,1,1],"power":[1,1,100,0.1]}`

// TestEstimateServesUnusablePowerAsNull: after a window that leaves unusable
// power estimates, /v1/estimate answers 200 with a JSON body whose unusable
// entries are null and whose finite entries keep encoding/json's bytes.
// encoding/json refuses +Inf, and the handler used to have sent its 200
// header before the encoder failed, leaving an empty body.
func TestEstimateServesUnusablePowerAsNull(t *testing.T) {
	h := alphaInProcess(t, newFixture(t))
	if rec := serveInProcess(h, http.MethodPost, "/v1/observe", []byte(unusablePowerWindow)); rec.Code != http.StatusOK {
		t.Fatalf("observe: %d %s", rec.Code, rec.Body.Bytes())
	}
	rec := serveInProcess(h, http.MethodGet, "/v1/estimate?tenant=alpha", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("estimate: %d %s", rec.Code, rec.Body.Bytes())
	}
	var reply struct {
		Perf  json.RawMessage
		Power []*float64
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
		t.Fatalf("estimate reply %q: %v", rec.Body.Bytes(), err)
	}
	var finite []float64
	for _, p := range reply.Power {
		if p != nil {
			finite = append(finite, *p)
		}
	}
	if len(finite) == len(reply.Power) {
		t.Fatal("no power entry is null: the window no longer leaves unusable estimates")
	}
	if len(finite) == 0 {
		t.Fatal("every power entry is null")
	}
	var perf []float64
	if err := json.Unmarshal(reply.Perf, &perf); err != nil {
		t.Fatal(err)
	}
	for _, v := range [][]float64{perf, finite} {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := json.Marshal(estimateVector(v)); !bytes.Equal(got, want) {
			t.Fatalf("finite entries render as\n%s\nencoding/json renders\n%s", got, want)
		}
	}
	if want, _ := json.Marshal(perf); !bytes.Equal(reply.Perf, want) {
		t.Fatalf("served perf\n%s\nencoding/json renders\n%s", reply.Perf, want)
	}
}

// TestWriteJSONRefusedValueIs500: a reply encoding/json refuses is a 500
// with a JSON error body, not a 200 with an empty one.
func TestWriteJSONRefusedValueIs500(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"x": math.Inf(1)})
	var body errorBody
	if rec.Code != http.StatusInternalServerError || json.Unmarshal(rec.Body.Bytes(), &body) != nil || body.Error == "" {
		t.Fatalf("refused value: %d %q, want 500 with a JSON error", rec.Code, rec.Body.Bytes())
	}
}

// FuzzObserveBody drives /v1/observe in process, through Server.Handler
// and httptest.NewRecorder, against one registered tenant that already
// holds estimates. No body may panic, every reply must be JSON, and after
// every body the tenant's /v1/estimate reply must be JSON too. A body that
// decodes as an observe request with equal non-zero lengths and any index
// outside [0, n) must get 400 and leave the tenant's estimates, rung and
// window count as they were. A well-formed window (the known tenant, equal
// non-zero lengths, distinct in-range indices) must get no 5xx and leave
// the tenant's rung as it was, whatever its readings.
func FuzzObserveBody(f *testing.F) {
	fx := newFixture(f)
	h := alphaInProcess(f, fx)
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
	valid := observeWindow(fx, "alpha", 12)

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
		[]byte(unusablePowerWindow),
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
		outOfRange, wellFormed := false, false
		if json.Unmarshal(body, &req) == nil && len(req.ObsIdx) > 0 &&
			len(req.ObsIdx) == len(req.Perf) && len(req.ObsIdx) == len(req.Power) {
			seen := make(map[int]bool, len(req.ObsIdx))
			for _, idx := range req.ObsIdx {
				outOfRange = outOfRange || idx < 0 || idx >= n
				seen[idx] = true
			}
			wellFormed = req.Tenant == "alpha" && !outOfRange && len(seen) == len(req.ObsIdx)
		}
		before := tenantView(t, h, "alpha")
		rec := post(body)
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("status %d reply is not JSON: %q", rec.Code, rec.Body.Bytes())
		}
		after := tenantView(t, h, "alpha")
		switch {
		case outOfRange:
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("out-of-range index: %d %s, want 400", rec.Code, rec.Body.Bytes())
			}
			if after != before {
				t.Fatalf("out-of-range observe changed the tenant:\nbefore %s\nafter  %s", before, after)
			}
		case wellFormed:
			if rec.Code >= 500 {
				t.Fatalf("well-formed window: %d %s", rec.Code, rec.Body.Bytes())
			}
			if rb, ra := viewRung(t, before), viewRung(t, after); ra != rb {
				t.Fatalf("well-formed window moved the tenant from rung %s to %s", rb, ra)
			}
		}
	})
}
