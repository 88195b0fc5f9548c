// Package metrics is a stdlib-only, concurrency-safe registry of counters,
// gauges and fixed-bucket histograms — the observability substrate for the
// runtime the paper drives from measured performance and power (§6.1). The
// rest of the stack instruments itself through package-level metrics created
// at init time; binaries expose the registry over HTTP (Prometheus text
// exposition plus pprof, see NewDebugMux) and as a JSON snapshot on exit.
//
// Design constraints, in priority order:
//
//  1. Observe-only: recording a sample never changes program behavior or
//     output. Instrumented code paths stay bit-identical.
//  2. Hot-path cheap: after a metric is registered, Inc/Add/Set/Observe are
//     a handful of atomic operations and perform zero heap allocations —
//     the EM loop's 0 allocs/iteration contract (TestEMIterationAllocs)
//     holds with instrumentation in place, pinned by TestMetricOpsAllocs.
//  3. Safe for concurrent use: any number of goroutines may record while
//     others scrape.
//
// Registration (NewCounter and friends) takes a lock and allocates; callers
// register once — typically in a package var block — and keep the pointer.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// enabled is the global kill switch consulted by every recording operation.
// It exists for overhead measurement (the metrics-off benchmarks) and as an
// escape hatch; the default is on.
var enabled atomic.Bool

func init() { enabled.Store(true) }

// SetEnabled turns sample recording on or off globally. Disabled metrics keep
// their last values and still expose them; only new samples are dropped. The
// default is enabled.
func SetEnabled(on bool) { enabled.Store(on) }

// Enabled reports whether sample recording is on.
func Enabled() bool { return enabled.Load() }

// Label is one constant key=value pair attached to a metric at registration.
type Label struct {
	Key, Value string
}

// Counter is a monotonically increasing uint64.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by n.
func (c *Counter) Add(n uint64) {
	if !enabled.Load() {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if !enabled.Load() {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add increments the gauge by delta (atomically, via CAS).
func (g *Gauge) Add(delta float64) {
	if !enabled.Load() {
		return
	}
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed cumulative buckets, Prometheus
// style: bucket i counts observations <= bounds[i], with an implicit +Inf
// bucket holding everything. Bounds are fixed at registration; Observe is a
// bounds scan plus two atomic adds and one CAS loop for the sum.
type Histogram struct {
	bounds  []float64 // strictly increasing upper bounds, +Inf implicit
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if !enabled.Load() {
		return
	}
	// Linear scan: bucket counts are small (≤ ~20) and the common case exits
	// early; a binary search would cost more in branch misses than it saves.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Buckets returns the upper bounds and cumulative counts, ending with the
// +Inf bucket (bound math.Inf(1), count == Count()).
func (h *Histogram) Buckets() (bounds []float64, cumulative []uint64) {
	bounds = make([]float64, len(h.bounds)+1)
	copy(bounds, h.bounds)
	bounds[len(h.bounds)] = math.Inf(1)
	cumulative = make([]uint64, len(h.buckets))
	total := uint64(0)
	for i := range h.buckets {
		total += h.buckets[i].Load()
		cumulative[i] = total
	}
	return bounds, cumulative
}

// ExponentialBuckets returns n strictly increasing bounds starting at start
// and growing by factor — the standard latency-histogram shape. It panics on
// invalid shapes (start <= 0, factor <= 1, n < 1): bucket layouts are
// compile-time decisions, not runtime input.
func ExponentialBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic(fmt.Sprintf("metrics: invalid exponential buckets start=%g factor=%g n=%d", start, factor, n))
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// kind discriminates the metric types inside the registry.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// entry is one registered metric instance (one name + label set).
type entry struct {
	name   string
	labels []Label
	help   string
	kind   kind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// id returns the unique identity of the instance: name plus sorted labels.
func metricID(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// Registry holds metric instances. The zero value is not usable; use
// NewRegistry or the package-level Default registry.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

// defaultRegistry is the process-wide registry every package-level
// constructor registers into and the debug endpoints expose.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// validName enforces the Prometheus metric/label name charset.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// register returns the existing entry for (name, labels) or creates one.
// Re-registering the same identity with a different kind panics: that is a
// programming error, caught at init time.
func (r *Registry) register(name, help string, kd kind, labels []Label, bounds []float64) *entry {
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l.Key) {
			panic(fmt.Sprintf("metrics: invalid label name %q on %q", l.Key, name))
		}
	}
	sorted := make([]Label, len(labels))
	copy(sorted, labels)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	id := metricID(name, sorted)

	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[id]; ok {
		if e.kind != kd {
			panic(fmt.Sprintf("metrics: %q re-registered as %s, was %s", id, kd, e.kind))
		}
		return e
	}
	e := &entry{name: name, labels: sorted, help: help, kind: kd}
	switch kd {
	case kindCounter:
		e.counter = &Counter{}
	case kindGauge:
		e.gauge = &Gauge{}
	case kindHistogram:
		for i := 1; i < len(bounds); i++ {
			if !(bounds[i] > bounds[i-1]) {
				panic(fmt.Sprintf("metrics: histogram %q bounds not strictly increasing", name))
			}
		}
		h := &Histogram{bounds: append([]float64(nil), bounds...)}
		h.buckets = make([]atomic.Uint64, len(bounds)+1)
		e.hist = h
	}
	r.entries[id] = e
	return e
}

// NewCounter registers (or fetches) a counter. Registering the same name and
// label set twice returns the same counter.
func (r *Registry) NewCounter(name, help string, labels ...Label) *Counter {
	return r.register(name, help, kindCounter, labels, nil).counter
}

// NewGauge registers (or fetches) a gauge.
func (r *Registry) NewGauge(name, help string, labels ...Label) *Gauge {
	return r.register(name, help, kindGauge, labels, nil).gauge
}

// NewHistogram registers (or fetches) a histogram with the given strictly
// increasing upper bounds (a +Inf bucket is implicit). Bounds are ignored
// when the instance already exists.
func (r *Registry) NewHistogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	return r.register(name, help, kindHistogram, labels, bounds).hist
}

// NewCounter registers a counter in the Default registry.
func NewCounter(name, help string, labels ...Label) *Counter {
	return defaultRegistry.NewCounter(name, help, labels...)
}

// NewGauge registers a gauge in the Default registry.
func NewGauge(name, help string, labels ...Label) *Gauge {
	return defaultRegistry.NewGauge(name, help, labels...)
}

// NewHistogram registers a histogram in the Default registry.
func NewHistogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	return defaultRegistry.NewHistogram(name, help, bounds, labels...)
}

// snapshotEntries returns the entries sorted by name then label identity —
// the stable order both expositions use.
func (r *Registry) snapshotEntries() []*entry {
	r.mu.RLock()
	out := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return metricID("", out[i].labels) < metricID("", out[j].labels)
	})
	return out
}
