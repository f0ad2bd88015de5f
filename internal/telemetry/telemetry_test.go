package telemetry

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_events_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	g := r.Gauge("test_depth")
	g.Set(3)
	g.Inc()
	g.Add(-2)
	if got := g.Value(); got != 2 {
		t.Errorf("gauge = %d, want 2", got)
	}
}

func TestRegistryGetOrCreateIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("test_total", L("kind", "x"), L("op", "add"))
	b := r.Counter("test_total", L("op", "add"), L("kind", "x")) // label order must not matter
	if a != b {
		t.Error("same (name, labels) in different order produced distinct counters")
	}
	c := r.Counter("test_total", L("op", "mul"), L("kind", "x"))
	if a == c {
		t.Error("distinct label values aliased to one counter")
	}
}

func TestRegistryKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_metric")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("test_metric")
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "1abc", "has-dash", "has space", "quoted\"name"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q did not panic", bad)
				}
			}()
			r.Counter(bad)
		}()
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_seconds")
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 100) // 0.01 .. 1.00
	}
	if got := h.Count(); got != 100 {
		t.Fatalf("count = %d, want 100", got)
	}
	if got := h.Sum(); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("sum = %g, want 50.5", got)
	}
	for _, tc := range []struct{ q, want float64 }{{0.50, 0.50}, {0.90, 0.90}, {0.99, 0.99}} {
		if got := h.Quantile(tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("p%d = %g, want %g", int(tc.q*100), got, tc.want)
		}
	}
}

func TestHistogramWindowSlides(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_seconds")
	// Fill the window with large values, then overwrite with small ones:
	// quantiles must reflect only the recent window.
	for i := 0; i < windowSize; i++ {
		h.Observe(100)
	}
	for i := 0; i < windowSize; i++ {
		h.Observe(0.001)
	}
	if got := h.Quantile(0.99); got != 0.001 {
		t.Errorf("p99 after window slide = %g, want 0.001 (old observations retained)", got)
	}
	if got := h.Count(); got != 2*windowSize {
		t.Errorf("cumulative count = %d, want %d", got, 2*windowSize)
	}
}

func TestEmptyHistogramQuantileIsZero(t *testing.T) {
	r := NewRegistry()
	if got := r.Histogram("test_seconds").Quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %g, want 0", got)
	}
}

func TestSpanRecordsDuration(t *testing.T) {
	r := NewRegistry()
	sp := r.Span("test_span_seconds", L("stage", "unit"))
	time.Sleep(time.Millisecond)
	d := sp.End()
	if d < time.Millisecond {
		t.Errorf("span duration %v, want >= 1ms", d)
	}
	h := r.Histogram("test_span_seconds", L("stage", "unit"))
	if h.Count() != 1 {
		t.Errorf("histogram count = %d, want 1", h.Count())
	}
	if h.Sum() < 0.001 {
		t.Errorf("histogram sum = %g, want >= 0.001", h.Sum())
	}
	var zero Span
	if zero.End() != 0 {
		t.Error("zero span End() should be a no-op returning 0")
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_hits_total", L("cache", "transpile")).Add(7)
	r.Gauge("test_inflight").Set(2)
	r.Histogram("test_latency_seconds").Observe(0.003)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE test_hits_total counter",
		`test_hits_total{cache="transpile"} 7`,
		"# TYPE test_inflight gauge",
		"test_inflight 2",
		"# TYPE test_latency_seconds histogram",
		`test_latency_seconds_bucket{le="0.005"} 1`,
		`test_latency_seconds_bucket{le="+Inf"} 1`,
		"test_latency_seconds_sum 0.003",
		"test_latency_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Buckets are cumulative: a bound below the observation holds 0.
	if !strings.Contains(out, `test_latency_seconds_bucket{le="0.001"} 0`) {
		t.Errorf("bucket below observation should be 0:\n%s", out)
	}
}

func TestLabelValueEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_total", L("path", `a\b"c`+"\n")).Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if want := `test_total{path="a\\b\"c\n"} 1`; !strings.Contains(sb.String(), want) {
		t.Errorf("escaped label missing %q:\n%s", want, sb.String())
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_points_total", L("kind", "fresh")).Add(3)
	r.Gauge("test_workers").Set(4)
	h := r.Histogram("test_point_seconds")
	h.Observe(0.5)
	h.Observe(1.5)

	data, err := r.SnapshotJSON()
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if len(snap.Counters) != 1 || snap.Counters[0].Value != 3 || snap.Counters[0].Labels["kind"] != "fresh" {
		t.Errorf("counters = %+v", snap.Counters)
	}
	if len(snap.Gauges) != 1 || snap.Gauges[0].Value != 4 {
		t.Errorf("gauges = %+v", snap.Gauges)
	}
	if len(snap.Histograms) != 1 {
		t.Fatalf("histograms = %+v", snap.Histograms)
	}
	hs := snap.Histograms[0]
	if hs.Count != 2 || hs.Min != 0.5 || hs.Max != 1.5 || hs.P99 != 1.5 {
		t.Errorf("histogram snap = %+v", hs)
	}
	if snap.Timestamp.IsZero() {
		t.Error("snapshot timestamp is zero")
	}
}

// snapshotGolden is fixedSnapshotRegistry's snapshot (timestamp
// zeroed) as the one-quantile-per-sort implementation rendered it.
const snapshotGolden = `{"timestamp":"0001-01-01T00:00:00Z","counters":[{"name":"test_total","value":2}],"gauges":[],"histograms":[{"name":"test_empty_seconds","count":0,"sum":0,"min":0,"max":0,"p50":0,"p90":0,"p99":0},{"name":"test_stage_seconds","labels":{"stage":"a"},"count":602,"sum":293.6949215531349,"min":0.0009227395057678223,"max":0.9996580481529236,"p50":0.48442065715789795,"p90":0.9137182235717773,"p99":0.9889965653419495},{"name":"test_stage_seconds","labels":{"stage":"b"},"count":602,"sum":323.10840624570847,"min":0.0021437406539916992,"max":0.9987314343452454,"p50":0.558455228805542,"p90":0.9251477122306824,"p99":0.9958024024963379}]}`

// fixedSnapshotRegistry holds a counter, an empty histogram and two
// labelled histograms whose windows have slid past their first samples.
func fixedSnapshotRegistry() *Registry {
	r := NewRegistry()
	r.Counter("test_total").Add(2)
	r.Histogram("test_empty_seconds")
	x := uint64(12345)
	for _, stage := range []string{"a", "b"} {
		h := r.Histogram("test_stage_seconds", L("stage", stage))
		for i := 0; i < windowSize+90; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			h.Observe(float64(x>>40) / (1 << 24))
		}
	}
	return r
}

// TestSnapshotQuantilesFromOneSort: Snapshot sorts each window once for
// all three quantiles; the values must equal Quantile's and the JSON
// must stay byte-identical.
func TestSnapshotQuantilesFromOneSort(t *testing.T) {
	r := fixedSnapshotRegistry()
	snap := r.Snapshot()
	for _, hs := range snap.Histograms {
		var labels []Label
		for k, v := range hs.Labels {
			labels = append(labels, L(k, v))
		}
		h := r.Histogram(hs.Name, labels...)
		for _, tc := range []struct {
			q   float64
			got float64
		}{{0.50, hs.P50}, {0.90, hs.P90}, {0.99, hs.P99}} {
			if want := h.Quantile(tc.q); tc.got != want {
				t.Errorf("%s%v p%g = %g, want Quantile = %g", hs.Name, hs.Labels, tc.q*100, tc.got, want)
			}
		}
	}
	snap.Timestamp = time.Time{}
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != snapshotGolden {
		t.Errorf("snapshot JSON changed:\n got %s\nwant %s", data, snapshotGolden)
	}
}

func TestWriteSnapshotFile(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_total").Add(9)
	path := filepath.Join(t.TempDir(), "telemetry.json")
	if err := r.WriteSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("telemetry.json is not valid JSON: %v", err)
	}
	if len(snap.Counters) != 1 || snap.Counters[0].Value != 9 {
		t.Errorf("round-tripped counters = %+v", snap.Counters)
	}
}

func TestCounterSumAcrossLabels(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_cache_total", L("result", "hit")).Add(10)
	r.Counter("test_cache_total", L("result", "miss")).Add(5)
	r.Counter("test_other_total").Add(99)
	if got := r.CounterSum("test_cache_total"); got != 15 {
		t.Errorf("CounterSum = %d, want 15", got)
	}
	if got := r.CounterSum("test_absent_total"); got != 0 {
		t.Errorf("CounterSum of absent metric = %d, want 0", got)
	}
}

func TestHistogramSumAcrossLabels(t *testing.T) {
	r := NewRegistry()
	r.Histogram("test_stage_seconds", L("stage", "a")).Observe(1.5)
	r.Histogram("test_stage_seconds", L("stage", "a")).Observe(0.5)
	r.Histogram("test_stage_seconds", L("stage", "b")).Observe(3)
	r.Histogram("test_other_seconds").Observe(42)
	if got := r.HistogramSum("test_stage_seconds"); got != 5 {
		t.Errorf("HistogramSum = %g, want 5", got)
	}
	if got := r.HistogramSum("test_absent_seconds"); got != 0 {
		t.Errorf("HistogramSum of absent metric = %g, want 0", got)
	}
}
