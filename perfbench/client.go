package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"leo/internal/service"
	"leo/internal/stream"
)

// reqHeader carries the request id that pairs a client span with the
// handler span of the same request in the traced run.
const reqHeader = "X-Bench-Req"

var kindNames = map[service.EventKind]string{
	service.EvRegister: "register",
	service.EvObserve:  "observe",
	service.EvPlan:     "plan",
}

// newSenderClient returns a client that holds exactly one keep-alive
// connection to the server.
func newSenderClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}
}

// sample is one timed request: its due time and its latency from then.
type sample struct {
	at time.Time
	d  time.Duration
}

// planRecord is one plan reply as served, kept for the correctness check.
type planRecord struct {
	work, deadline float64
	body           []byte
}

// windowLog is one accepted observe window, in the order its sender saw it
// accepted, with the plan demands that followed it.
type windowLog struct {
	tenant, class string
	index         int // the tenant's accepted-window count before this one
	done          time.Time
	ev            *service.Event
	req           uint64       // traced request id, 0 untraced
	plans         [][2]float64 // (work, deadline) of the plans that followed
}

// tenantLog is what one sender learned about one of its tenants.
type tenantLog struct {
	class      string
	regDue     time.Time
	firstPlan  time.Time // completion of the first successful plan
	windows    int       // accepted observe windows
	finalPlans []planRecord
}

// phaseStats accounts one phase's requests per kind and outcome.
type phaseStats struct {
	sent   map[string]int64
	ok     map[string]int64
	failed map[string]map[string]int64 // kind → status class → count
}

func newPhaseStats() *phaseStats {
	return &phaseStats{sent: map[string]int64{}, ok: map[string]int64{}, failed: map[string]map[string]int64{}}
}

func (p *phaseStats) note(kind string, status int, err error) {
	p.sent[kind]++
	if err == nil && status == http.StatusOK {
		p.ok[kind]++
		return
	}
	cls := statusClass(status, err)
	if p.failed[kind] == nil {
		p.failed[kind] = map[string]int64{}
	}
	p.failed[kind][cls]++
}

func (p *phaseStats) merge(q *phaseStats) {
	for k, v := range q.sent {
		p.sent[k] += v
	}
	for k, v := range q.ok {
		p.ok[k] += v
	}
	for k, m := range q.failed {
		if p.failed[k] == nil {
			p.failed[k] = map[string]int64{}
		}
		for c, v := range m {
			p.failed[k][c] += v
		}
	}
}

func (p *phaseStats) totals() (sent, failed int64) {
	for _, v := range p.sent {
		sent += v
	}
	for _, m := range p.failed {
		for _, v := range m {
			failed += v
		}
	}
	return sent, failed
}

func (p *phaseStats) String() string {
	var kinds []string
	for k := range p.sent {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	var b strings.Builder
	for _, k := range kinds {
		fmt.Fprintf(&b, " %s: sent=%d ok=%d failed=%d", k, p.sent[k], p.ok[k], p.sent[k]-p.ok[k])
		if m := p.failed[k]; len(m) > 0 {
			var cls []string
			for c := range m {
				cls = append(cls, c)
			}
			sort.Strings(cls)
			for _, c := range cls {
				fmt.Fprintf(&b, " [%s=%d]", c, m[c])
			}
		}
		b.WriteByte(';')
	}
	return b.String()
}

// statusClass buckets a failed request: 429/499/503 by name, other 4xx and
// 5xx by class, transport errors as "net".
func statusClass(status int, err error) string {
	switch {
	case err != nil:
		return "net"
	case status == 429, status == 499, status == 503:
		return strconv.Itoa(status)
	case status >= 500:
		return "5xx"
	default:
		return "4xx"
	}
}

// sender issues one partition of the schedule over its own connection.
// Every tenant lives on exactly one sender, so a tenant's requests are
// issued in schedule order and its observe is answered before its plans.
type sender struct {
	client *http.Client
	base   string
	tr     *tracer
	reqIDs *atomic.Uint64

	stats   *phaseStats
	tenants map[string]*tenantLog
	windows []*windowLog
	open    map[string]*windowLog // tenant → its latest accepted window

	// timedFrom ends the open loop's warm-up: events due earlier are sent
	// and checked but not timed. Admission (first window, first plan) is
	// timed from there; plan and observe latencies only from steadyFrom,
	// once every tenant has arrived and the offered load is constant.
	timedFrom, steadyFrom time.Time
	lat                   map[string][]sample // open loop: completion minus due time, per kind
	lags                  []time.Duration     // open loop: send minus due time, warm-up included
	// firstFit is the due-to-done latency of each tenant's first window.
	firstFit []time.Duration
}

func newSender(base string, tr *tracer, ids *atomic.Uint64) *sender {
	return &sender{
		client: newSenderClient(), base: base, tr: tr, reqIDs: ids,
		stats: newPhaseStats(), tenants: map[string]*tenantLog{}, open: map[string]*windowLog{},
		lat: map[string][]sample{},
	}
}

// issue sends one event and reads the whole reply.
func (s *sender) issue(ctx context.Context, ev *service.Event, req uint64) (int, []byte, error) {
	var (
		httpReq *http.Request
		err     error
	)
	// Marshal cannot fail on these maps of strings, ints and finite floats.
	switch ev.Kind {
	case service.EvRegister:
		body, _ := json.Marshal(map[string]any{"tenant": ev.Tenant, "class": ev.Class})
		httpReq, err = http.NewRequestWithContext(ctx, http.MethodPost, s.base+"/v1/register", bytes.NewReader(body))
	case service.EvObserve:
		body, _ := json.Marshal(map[string]any{"tenant": ev.Tenant, "obs_idx": ev.ObsIdx, "perf": ev.Perf, "power": ev.Power})
		httpReq, err = http.NewRequestWithContext(ctx, http.MethodPost, s.base+"/v1/observe", bytes.NewReader(body))
	case service.EvPlan:
		url := s.base + "/v1/plan?tenant=" + ev.Tenant +
			"&work=" + strconv.FormatFloat(ev.Work, 'g', -1, 64) +
			"&deadline=" + strconv.FormatFloat(ev.Deadline, 'g', -1, 64)
		httpReq, err = http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	default:
		return 0, nil, fmt.Errorf("unknown event kind %d", ev.Kind)
	}
	if err != nil {
		return 0, nil, err
	}
	if req != 0 {
		httpReq.Header.Set(reqHeader, strconv.FormatUint(req, 10))
	}
	resp, err := s.client.Do(httpReq)
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body, err
}

// send issues one event and folds the outcome into the sender's logs.
// due is zero in the closed loop, which is not timed per request.
func (s *sender) send(ctx context.Context, ev *service.Event, due time.Time) error {
	kind := kindNames[ev.Kind]
	var req uint64
	if s.tr != nil && !due.IsZero() {
		req = s.reqIDs.Add(1)
	}
	sent := time.Now()
	status, body, err := s.issue(ctx, ev, req)
	done := time.Now()
	if ctx.Err() != nil {
		return ctx.Err()
	}
	s.stats.note(kind, status, err)
	if req != 0 {
		s.tr.record(0, 0, req, "client."+kind, sent, done)
	}
	if !due.IsZero() {
		s.lags = append(s.lags, sent.Sub(due))
	}
	ok := err == nil && status == http.StatusOK
	timed := !due.IsZero() && !due.Before(s.timedFrom)
	t := s.tenants[ev.Tenant]
	if t == nil {
		t = &tenantLog{class: ev.Class}
		s.tenants[ev.Tenant] = t
	}
	switch ev.Kind {
	case service.EvRegister:
		if timed && t.regDue.IsZero() {
			t.regDue = due
		}
	case service.EvObserve:
		if !ok {
			break
		}
		w := &windowLog{tenant: ev.Tenant, class: ev.Class, index: t.windows, done: done, ev: ev, req: req}
		if timed && t.windows == 0 {
			s.firstFit = append(s.firstFit, done.Sub(due))
		}
		t.windows++
		t.finalPlans = t.finalPlans[:0]
		s.windows = append(s.windows, w)
		s.open[ev.Tenant] = w
	case service.EvPlan:
		if !ok {
			break
		}
		if t.firstPlan.IsZero() {
			t.firstPlan = done
		}
		t.finalPlans = append(t.finalPlans, planRecord{work: ev.Work, deadline: ev.Deadline, body: body})
		if w := s.open[ev.Tenant]; w != nil {
			w.plans = append(w.plans, [2]float64{ev.Work, ev.Deadline})
		}
	}
	if ok && timed && !due.Before(s.steadyFrom) {
		s.lat[kind] = append(s.lat[kind], sample{at: due, d: done.Sub(due)})
	}
	return nil
}

// partition splits events across n senders by FNV hash of the tenant name.
func partition(evs []service.Event, n int) [][]*service.Event {
	out := make([][]*service.Event, n)
	for i := range evs {
		ev := &evs[i]
		k := int(stream.Hash64(ev.Tenant) % uint64(n))
		out[k] = append(out[k], ev)
	}
	return out
}

// openLoop issues every event at its due time (start + At seconds), or as
// soon as its sender is free when it is already late.
func openLoop(ctx context.Context, senders []*sender, parts [][]*service.Event, start time.Time) error {
	return forEachSender(senders, func(i int, s *sender) error {
		timer := time.NewTimer(0)
		defer timer.Stop()
		<-timer.C
		for _, ev := range parts[i] {
			due := start.Add(time.Duration(ev.At * float64(time.Second)))
			if d := time.Until(due); d > 0 {
				timer.Reset(d)
				select {
				case <-timer.C:
				case <-ctx.Done():
					return ctx.Err()
				}
			}
			if err := s.send(ctx, ev, due); err != nil {
				return err
			}
		}
		return nil
	})
}

// closedLoop sends back to back until the deadline; a sender that runs
// out of events starts its partition over, so the same tenants report again
// and the phase admits no new ones.
func closedLoop(ctx context.Context, senders []*sender, parts [][]*service.Event, deadline time.Time) error {
	return forEachSender(senders, func(i int, s *sender) error {
		for len(parts[i]) > 0 {
			for _, ev := range parts[i] {
				if !time.Now().Before(deadline) {
					return nil
				}
				if err := s.send(ctx, ev, time.Time{}); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// forEachSender runs fn on every sender concurrently and waits for all.
func forEachSender(senders []*sender, fn func(int, *sender) error) error {
	var wg sync.WaitGroup
	errs := make([]error, len(senders))
	for i, s := range senders {
		wg.Add(1)
		go func(i int, s *sender) {
			defer wg.Done()
			errs[i] = fn(i, s)
		}(i, s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
