package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"leo/internal/metrics"
	"leo/internal/pareto"
)

// Handler returns the server's HTTP surface: the tenant API under /v1/ on
// top of the standard debug mux (/metrics, /healthz, /debug/pprof), so one
// listener serves both tenants and operators — the same plumbing every
// binary's -metrics-addr flag uses.
//
//	POST /v1/register   {"tenant","class","idle_power"?}
//	POST /v1/observe    {"tenant","obs_idx","perf","power"}
//	GET  /v1/estimate?tenant=NAME
//	GET  /v1/plan?tenant=NAME&work=W&deadline=T
//
// /v1/estimate answers {"perf","power","idle_power","rung","windows"} with
// the estimates the planner uses. A power entry the fit left unusable as a
// reading is null: the planner holds it at +Inf, which JSON cannot carry,
// and so avoids that configuration.
//
// Backpressure is visible in status codes: 429 with Retry-After when a
// shard queue or the session cap is full, 503 once the server is draining.
func (s *Server) Handler() http.Handler {
	mux := metrics.NewDebugMux(nil)
	mux.HandleFunc("/v1/register", s.handleRegister)
	mux.HandleFunc("/v1/observe", s.handleObserve)
	mux.HandleFunc("/v1/estimate", s.handleEstimate)
	mux.HandleFunc("/v1/plan", s.handlePlan)
	return mux
}

type errorBody struct {
	Error string `json:"error"`
}

// writeJSON encodes v as json.Encoder does (a trailing newline included),
// then sends it with status. The body is encoded before any status is
// written, so a value encoding/json refuses becomes a 500 with a JSON error
// body instead of a 200 with an empty one.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		mEncodeErrors.Inc()
		status = http.StatusInternalServerError
		body, _ = json.Marshal(errorBody{Error: "service: encoding reply: " + err.Error()}) // a string always encodes
	}
	writeRaw(w, status, append(body, '\n'))
}

// estimateVector is a published estimate vector on the wire: each finite
// entry exactly as encoding/json renders a float64, each non-finite one as
// null.
type estimateVector []float64

func (v estimateVector) MarshalJSON() ([]byte, error) {
	b := make([]byte, 0, 2+20*len(v))
	b = append(b, '[')
	for i, x := range v {
		if i > 0 {
			b = append(b, ',')
		}
		var ok bool
		if b, ok = appendJSONFloat(b, x); !ok {
			b = append(b, "null"...)
		}
	}
	return append(b, ']'), nil
}

// writeRaw sends a pre-encoded JSON body: a memoized plan reply, a pooled
// observe buffer or writeJSON's encoding.
func writeRaw(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if _, err := w.Write(body); err != nil {
		mEncodeErrors.Inc()
	}
}

// requestPool recycles request structs together with their one-slot reply
// channels. A request may be recycled only by whoever is certain the shard
// will never touch it again: dispatch does so after consuming the reply or
// when the enqueue itself failed, and never on the abandoned paths, where
// the shard still owns the struct and will drop a reply into the channel.
var requestPool = sync.Pool{New: func() any { return &request{reply: make(chan response, 1)} }}

func getRequest() *request {
	r := requestPool.Get().(*request)
	reply := r.reply
	*r = request{reply: reply}
	return r
}

// writeError renders an error reply; 429s carry the server's Retry-After
// hint, derived from the configured scheduling tick.
func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", s.retryAfter)
	}
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// statusClientClosedRequest is nginx's non-standard code for a client that
// went away before the reply; no standard status fits and the client will
// never read it anyway — it exists for the access log.
const statusClientClosedRequest = 499

// statusFor maps a shard's typed error to its HTTP status.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrUnknownTenant):
		return http.StatusNotFound
	case errors.Is(err, ErrUnknownClass):
		return http.StatusBadRequest
	case errors.Is(err, ErrClassMismatch), errors.Is(err, ErrNoEstimates),
		errors.Is(err, ErrNoFeasiblePlan):
		return http.StatusConflict
	case errors.Is(err, ErrTooFewSamples):
		return http.StatusUnprocessableEntity
	case errors.Is(err, ErrMaxSessions):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return statusClientClosedRequest
	default:
		return http.StatusInternalServerError
	}
}

// dispatch routes one request to its tenant's shard and waits for the
// reply. Queue-full is backpressure, not failure: the caller gets 429 and
// a Retry-After hint. A shard that shut down mid-wait surfaces as draining,
// and a caller that went away (r.ctx done) gets its context error instead of
// leaving the handler goroutine parked until the shard replies — the reply
// channel is buffered, so the shard never notices the abandonment.
func (s *Server) dispatch(r *request) (response, error) {
	select {
	case <-s.draining:
		mRejectedDraining.Inc()
		requestPool.Put(r)
		return response{}, ErrDraining
	default:
	}
	var ctxDone <-chan struct{}
	if r.ctx != nil {
		ctxDone = r.ctx.Done()
	}
	sh := s.shardFor(r.tenant)
	select {
	case sh.queue <- r:
	default:
		mRejectedQueue.Inc()
		id := sh.id
		requestPool.Put(r)
		return response{}, fmt.Errorf("%w: shard %d queue full", ErrMaxSessions, id)
	}
	select {
	case resp := <-r.reply:
		requestPool.Put(r)
		return resp, nil
	case <-ctxDone:
		mCanceled.Inc()
		return response{}, fmt.Errorf("service: request abandoned by client: %w", context.Cause(r.ctx))
	case <-sh.done:
		// The shard drained its queue and exited between our enqueue and
		// its final sweep; the request will never be served.
		select {
		case resp := <-r.reply:
			requestPool.Put(r)
			return resp, nil
		default:
			mRejectedDraining.Inc()
			return response{}, ErrDraining
		}
	}
}

// validName rejects tenant/class names that cannot round-trip through the
// persistence metadata (the 0x1f separator) or are unreasonably long.
func validName(s string) bool {
	return s != "" && len(s) <= 1024 && !strings.Contains(s, metaSep)
}

type registerBody struct {
	Tenant    string  `json:"tenant"`
	Class     string  `json:"class"`
	IdlePower float64 `json:"idle_power,omitempty"`
}

func (s *Server) handleRegister(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeError(w, http.StatusMethodNotAllowed, errors.New("service: POST required"))
		return
	}
	var body registerBody
	if err := json.NewDecoder(req.Body).Decode(&body); err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("service: bad register body: %w", err))
		return
	}
	if !validName(body.Tenant) || !validName(body.Class) {
		s.writeError(w, http.StatusBadRequest, errors.New("service: tenant and class names must be nonempty printable strings"))
		return
	}
	r := getRequest()
	r.ctx = req.Context()
	r.op = opRegister
	r.tenant = body.Tenant
	r.class = body.Class
	r.idlePower = body.IdlePower
	resp, err := s.dispatch(r)
	if err != nil {
		s.writeError(w, statusFor(err), err)
		return
	}
	if resp.err != nil {
		s.writeError(w, statusFor(resp.err), resp.err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"tenant":  body.Tenant,
		"rung":    resp.rung,
		"windows": resp.windows,
	})
}

type observeBody struct {
	Tenant string    `json:"tenant"`
	ObsIdx []int     `json:"obs_idx"`
	Perf   []float64 `json:"perf"`
	Power  []float64 `json:"power"`
}

func (s *Server) handleObserve(w http.ResponseWriter, req *http.Request) {
	start := time.Now()
	defer func() { mObserveLatency.Observe(time.Since(start).Seconds()) }()
	if req.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeError(w, http.StatusMethodNotAllowed, errors.New("service: POST required"))
		return
	}
	var body observeBody
	if err := json.NewDecoder(req.Body).Decode(&body); err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("service: bad observe body: %w", err))
		return
	}
	if !validName(body.Tenant) {
		s.writeError(w, http.StatusBadRequest, errors.New("service: tenant name required"))
		return
	}
	if len(body.ObsIdx) == 0 || len(body.ObsIdx) != len(body.Perf) || len(body.ObsIdx) != len(body.Power) {
		s.writeError(w, http.StatusBadRequest,
			fmt.Errorf("service: obs_idx/perf/power must be nonempty and the same length (got %d/%d/%d)",
				len(body.ObsIdx), len(body.Perf), len(body.Power)))
		return
	}
	// An index outside the space is the client's error, not a failed
	// estimation: past the shard it would count against the tenant's rung.
	n := s.cfg.Space.N()
	for _, idx := range body.ObsIdx {
		if idx < 0 || idx >= n {
			s.writeError(w, http.StatusBadRequest,
				fmt.Errorf("service: observation index %d out of range [0,%d)", idx, n))
			return
		}
	}
	r := getRequest()
	r.ctx = req.Context()
	r.op = opObserve
	r.tenant = body.Tenant
	r.obsIdx = body.ObsIdx
	r.perf = body.Perf
	r.power = body.Power
	resp, err := s.dispatch(r)
	if err != nil {
		s.writeError(w, statusFor(err), err)
		return
	}
	if resp.err != nil {
		s.writeError(w, statusFor(resp.err), resp.err)
		return
	}
	// Render without encoding/json: the reply is four fixed fields, and this
	// path runs once per observation window fleet-wide. Byte-identical to
	// the map encoding it replaces (alphabetical keys, trailing newline).
	bp := replyBufPool.Get().(*[]byte)
	b := appendObserveJSON((*bp)[:0], resp.windows, resp.dropped, resp.rung, resp.shed)
	writeRaw(w, http.StatusOK, b)
	*bp = b[:0]
	replyBufPool.Put(bp)
}

// replyBufPool recycles observe reply buffers across handler goroutines.
var replyBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 128); return &b }}

func (s *Server) handleEstimate(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		s.writeError(w, http.StatusMethodNotAllowed, errors.New("service: GET required"))
		return
	}
	tenantName := req.URL.Query().Get("tenant")
	if !validName(tenantName) {
		s.writeError(w, http.StatusBadRequest, errors.New("service: tenant query parameter required"))
		return
	}
	r := getRequest()
	r.ctx = req.Context()
	r.op = opEstimate
	r.tenant = tenantName
	resp, err := s.dispatch(r)
	if err != nil {
		s.writeError(w, statusFor(err), err)
		return
	}
	if resp.err != nil {
		s.writeError(w, statusFor(resp.err), resp.err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"perf":       estimateVector(resp.perfEst),
		"power":      estimateVector(resp.powerEst),
		"idle_power": resp.idlePower,
		"rung":       resp.rung,
		"windows":    resp.windows,
	})
}

// planReply is the wire form of a pareto.Plan. encoding/json renders
// float64 in shortest-round-trip form, so the decoded plan is bit-identical
// to the shard's — the property the HTTP-vs-controller test pins. The hot
// path renders the same shape through appendPlanJSON without allocating;
// this struct remains for non-finite fallbacks and must keep its field
// order in lockstep with that encoder.
type planReply struct {
	Allocations []pareto.Allocation `json:"allocations"`
	IdleTime    float64             `json:"idle_time"`
	Energy      float64             `json:"energy"`
	Rate        float64             `json:"rate"`
	Rung        string              `json:"rung"`
	Gen         uint64              `json:"gen"`
}

// planQuery pulls one parameter out of a raw (still escaped) query string
// without materializing a url.Values map — /v1/plan is the fleet's hottest
// endpoint and its three floats don't justify a map per request. Returns
// the unescaped value and whether the key was present.
func planQuery(rawQuery, key string) (string, bool) {
	for len(rawQuery) > 0 {
		pair := rawQuery
		if i := strings.IndexByte(pair, '&'); i >= 0 {
			pair, rawQuery = pair[:i], pair[i+1:]
		} else {
			rawQuery = ""
		}
		k, v, _ := strings.Cut(pair, "=")
		if k != key {
			continue
		}
		if strings.ContainsAny(v, "%+") {
			if u, err := url.QueryUnescape(v); err == nil {
				return u, true
			}
			return "", false
		}
		return v, true
	}
	return "", false
}

func (s *Server) handlePlan(w http.ResponseWriter, req *http.Request) {
	start := time.Now()
	defer func() { mPlanLatency.Observe(time.Since(start).Seconds()) }()
	if req.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		s.writeError(w, http.StatusMethodNotAllowed, errors.New("service: GET required"))
		return
	}
	rawQuery := req.URL.RawQuery
	tenantName, _ := planQuery(rawQuery, "tenant")
	if !validName(tenantName) {
		s.writeError(w, http.StatusBadRequest, errors.New("service: tenant query parameter required"))
		return
	}
	var deadline float64
	if v, ok := planQuery(rawQuery, "deadline"); ok {
		deadline, _ = strconv.ParseFloat(v, 64)
	}
	if !(deadline > 0) {
		s.writeError(w, http.StatusBadRequest, errors.New("service: positive deadline query parameter required"))
		return
	}
	workStr, hasWork := planQuery(rawQuery, "work")
	capStr, hasCap := planQuery(rawQuery, "cap")
	if hasWork == hasCap {
		s.writeError(w, http.StatusBadRequest, errors.New("service: exactly one of work (minimize energy) or cap (maximize work under a power cap) is required"))
		return
	}
	var work, powerCap float64
	if hasCap {
		powerCap, _ = strconv.ParseFloat(capStr, 64)
		if !(powerCap > 0) {
			s.writeError(w, http.StatusBadRequest, errors.New("service: positive cap query parameter required"))
			return
		}
	} else {
		work, _ = strconv.ParseFloat(workStr, 64)
		if !(work > 0) {
			s.writeError(w, http.StatusBadRequest, errors.New("service: positive work query parameter required"))
			return
		}
	}
	r := getRequest()
	r.ctx = req.Context()
	r.op = opPlan
	r.tenant = tenantName
	r.deadline = deadline
	r.work = work
	r.powerCap = powerCap
	r.capped = hasCap
	resp, err := s.dispatch(r)
	if err != nil {
		s.writeError(w, statusFor(err), err)
		return
	}
	if resp.err != nil {
		s.writeError(w, statusFor(resp.err), resp.err)
		return
	}
	if resp.planJSON != nil {
		writeRaw(w, http.StatusOK, resp.planJSON)
		return
	}
	writeJSON(w, http.StatusOK, planReply{
		Allocations: resp.plan.Allocations,
		IdleTime:    resp.plan.IdleTime,
		Energy:      resp.plan.Energy,
		Rate:        resp.plan.Rate,
		Rung:        resp.rung,
		Gen:         resp.gen,
	})
}
