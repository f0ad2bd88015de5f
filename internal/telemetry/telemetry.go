// Package telemetry is a dependency-free metrics layer for the sweep
// and simulation hot paths: atomic counters, gauges, windowed
// histograms with quantile estimates, and labeled timer spans, all
// collected in a Registry that can render itself as Prometheus text
// exposition, as an expvar tree, or as a JSON snapshot.
//
// Design constraints, in priority order:
//
//  1. Zero hot-path cost. Counter.Add and Gauge.Set are single atomic
//     ops; instrumented packages resolve their metric handles once (at
//     package init or construction) so no map lookup or lock sits on a
//     simulation path. Recording allocates nothing.
//  2. No dependencies. Only the standard library, so the lowest layers
//     (internal/sim, internal/noise) can record metrics without a
//     dependency cycle or a vendored client library.
//  3. Bounded label cardinality by convention. Metric identity is
//     (name, sorted labels); every labeled call site must draw label
//     values from a small closed set (backend names, pipeline hashes,
//     "hit"/"miss"). Unbounded values — seeds, point indices, operand
//     values — must never become labels, or the registry grows without
//     limit and /metrics scrapes degrade.
//
// The package-level Default registry is what the instrumented internal
// packages record into; tests that need isolation construct their own
// Registry.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one metric dimension. Keys and values must come from small
// closed sets (see the package comment's cardinality rule).
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (queue depth, in-flight
// workers). It may go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds d (which may be negative).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Inc and Dec adjust the gauge by one.
func (g *Gauge) Inc() { g.v.Add(1) }
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// windowSize is how many recent observations a histogram retains for
// exact quantile estimates. Sweep latency distributions are summarized
// over at most this many most-recent points.
const windowSize = 512

// defBounds are the default histogram bucket upper bounds (seconds),
// exponential from 100µs to 500s: wide enough for fsync latencies at
// the bottom and full-budget panel points at the top.
var defBounds = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500,
}

// Histogram records a distribution of float64 observations (by
// convention, seconds). It keeps cumulative exponential buckets for
// Prometheus exposition plus a sliding window of the most recent
// observations for exact p50/p90/p99 estimates. Observe takes a mutex
// but never allocates after construction, so it is safe on warm paths;
// truly hot loops should aggregate locally and Observe once per batch.
type Histogram struct {
	mu      sync.Mutex
	bounds  []float64 // bucket upper bounds, ascending
	buckets []uint64  // len(bounds)+1; last bucket is +Inf
	count   uint64
	sum     float64
	min     float64
	max     float64
	window  []float64 // ring buffer of recent observations
	wpos    int
	sorted  []float64 // scratch for quantile computation
}

func newHistogram() *Histogram {
	return &Histogram{
		bounds:  defBounds,
		buckets: make([]uint64, len(defBounds)+1),
		window:  make([]float64, 0, windowSize),
		sorted:  make([]float64, 0, windowSize),
		min:     math.Inf(1),
		max:     math.Inf(-1),
	}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i]++
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	if len(h.window) < windowSize {
		h.window = append(h.window, v)
	} else {
		h.window[h.wpos] = v
		h.wpos = (h.wpos + 1) % windowSize
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Quantile returns the q-quantile (0 < q <= 1) over the sliding window
// of recent observations — exact over the window, not an interpolation
// from buckets. Returns 0 when nothing has been observed.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return nearestRank(h.sortedWindowLocked(), q)
}

// sortedWindowLocked returns the sample window sorted ascending, in
// the histogram's reusable scratch slice.
func (h *Histogram) sortedWindowLocked() []float64 {
	h.sorted = append(h.sorted[:0], h.window...)
	sort.Float64s(h.sorted)
	return h.sorted
}

// nearestRank returns the q-quantile of ascending samples by the
// nearest-rank rule, or 0 when there are none.
func nearestRank(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx]
}

// Span is a started timer that records its duration into a histogram
// when ended. It is a value type: starting and ending a span performs
// no allocation.
type Span struct {
	h     *Histogram
	start time.Time
}

// StartSpan begins a timer span recording into h.
func StartSpan(h *Histogram) Span { return Span{h: h, start: time.Now()} }

// End records the elapsed seconds into the span's histogram and returns
// the duration. A zero Span is a no-op.
func (s Span) End() time.Duration {
	if s.h == nil {
		return 0
	}
	d := time.Since(s.start)
	s.h.Observe(d.Seconds())
	return d
}

// metricKind discriminates the three metric families inside a registry.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// metric is one registered instrument: a name, its sorted labels, and
// exactly one of the three value types.
type metric struct {
	name   string
	labels []Label // sorted by key
	kind   metricKind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// Registry holds a process's metrics, keyed by (name, sorted labels).
// Lookup methods are get-or-create and safe for concurrent use; hold
// the returned handle rather than re-looking it up on a hot path.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric // key = identity string
	order   []string           // registration order, for stable output
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry the instrumented internal
// packages record into.
func Default() *Registry { return defaultRegistry }

// identity canonicalizes (name, labels) into a map key; labels are
// sorted by key so call-site order never splits a metric.
func identity(name string, labels []Label) (string, []Label) {
	if len(labels) == 0 {
		return name, nil
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var sb strings.Builder
	sb.WriteString(name)
	for _, l := range ls {
		sb.WriteByte('\x00')
		sb.WriteString(l.Key)
		sb.WriteByte('\x01')
		sb.WriteString(l.Value)
	}
	return sb.String(), ls
}

// validName enforces the Prometheus metric/label name charset; catching
// a bad name at registration beats emitting an unscrapable exposition.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
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

func (r *Registry) lookup(name string, kind metricKind, labels []Label) *metric {
	if !validName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l.Key) {
			panic(fmt.Sprintf("telemetry: invalid label key %q on %q", l.Key, name))
		}
	}
	id, sorted := identity(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[id]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("telemetry: metric %q registered as %s, requested as %s", name, m.kind, kind))
		}
		return m
	}
	m := &metric{name: name, labels: sorted, kind: kind}
	switch kind {
	case kindCounter:
		m.counter = &Counter{}
	case kindGauge:
		m.gauge = &Gauge{}
	case kindHistogram:
		m.hist = newHistogram()
	}
	r.metrics[id] = m
	r.order = append(r.order, id)
	return m
}

// Counter returns the counter registered under (name, labels), creating
// it on first use.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	return r.lookup(name, kindCounter, labels).counter
}

// Gauge returns the gauge registered under (name, labels).
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	return r.lookup(name, kindGauge, labels).gauge
}

// Histogram returns the histogram registered under (name, labels).
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	return r.lookup(name, kindHistogram, labels).hist
}

// Span starts a labeled timer span recording into the named histogram:
//
//	defer reg.Span("qfarith_point_seconds", telemetry.L("panel", name)).End()
func (r *Registry) Span(name string, labels ...Label) Span {
	return StartSpan(r.Histogram(name, labels...))
}

// CounterSum sums the named counter across every label set — the
// aggregate view a summary line wants when the counter is split by a
// label (e.g. cache hits per pipeline).
func (r *Registry) CounterSum(name string) uint64 {
	var sum uint64
	for _, m := range r.snapshotMetrics() {
		if m.kind == kindCounter && m.name == name {
			sum += m.counter.Value()
		}
	}
	return sum
}

// HistogramSum sums the named histogram's observed totals across every
// label set — e.g. total seconds spent in a stage regardless of how the
// stage's spans were labeled.
func (r *Registry) HistogramSum(name string) float64 {
	var sum float64
	for _, m := range r.snapshotMetrics() {
		if m.kind == kindHistogram && m.name == name {
			sum += m.hist.Sum()
		}
	}
	return sum
}

// snapshotMetrics returns the registered metrics in registration order.
func (r *Registry) snapshotMetrics() []*metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*metric, 0, len(r.order))
	for _, id := range r.order {
		out = append(out, r.metrics[id])
	}
	return out
}
