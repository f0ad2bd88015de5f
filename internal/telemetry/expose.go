package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// This file renders a Registry outward: Prometheus text exposition for
// /metrics, and a JSON snapshot for telemetry.json / expvar.

// escapeLabelValue applies the Prometheus text-format escaping rules to
// a label value (backslash, double-quote, newline).
func escapeLabelValue(v string) string {
	var sb strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

// labelString renders {k="v",...} (empty string for no labels), with an
// optional extra label appended (used for histogram le buckets).
func labelString(labels []Label, extraKey, extraVal string) string {
	if len(labels) == 0 && extraKey == "" {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `%s="%s"`, l.Key, escapeLabelValue(l.Value))
	}
	if extraKey != "" {
		if len(labels) > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `%s="%s"`, extraKey, extraVal)
	}
	sb.WriteByte('}')
	return sb.String()
}

// formatLe renders a bucket bound for the le label, trimming trailing
// zeros so bounds read naturally ("0.005", not "0.005000").
func formatLe(bound float64) string {
	if math.IsInf(bound, 1) {
		return "+Inf"
	}
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.6f", bound), "0"), ".")
}

// WritePrometheus renders every registered metric in the Prometheus
// text exposition format (version 0.0.4), grouped by metric name with
// one TYPE line per family. Metrics appear in registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	typed := map[string]bool{}
	for _, m := range r.snapshotMetrics() {
		if !typed[m.name] {
			typed[m.name] = true
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.name, m.kind); err != nil {
				return err
			}
		}
		switch m.kind {
		case kindCounter:
			if _, err := fmt.Fprintf(w, "%s%s %d\n", m.name, labelString(m.labels, "", ""), m.counter.Value()); err != nil {
				return err
			}
		case kindGauge:
			if _, err := fmt.Fprintf(w, "%s%s %d\n", m.name, labelString(m.labels, "", ""), m.gauge.Value()); err != nil {
				return err
			}
		case kindHistogram:
			if err := writePromHistogram(w, m); err != nil {
				return err
			}
		}
	}
	return nil
}

func writePromHistogram(w io.Writer, m *metric) error {
	h := m.hist
	h.mu.Lock()
	bounds := h.bounds
	buckets := append([]uint64(nil), h.buckets...)
	count := h.count
	sum := h.sum
	h.mu.Unlock()
	cum := uint64(0)
	for i := range buckets {
		cum += buckets[i]
		bound := math.Inf(1)
		if i < len(bounds) {
			bound = bounds[i]
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			m.name, labelString(m.labels, "le", formatLe(bound)), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %g\n", m.name, labelString(m.labels, "", ""), sum); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", m.name, labelString(m.labels, "", ""), count)
	return err
}

// CounterSnap is one counter in a Snapshot.
type CounterSnap struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  uint64            `json:"value"`
}

// GaugeSnap is one gauge in a Snapshot.
type GaugeSnap struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  int64             `json:"value"`
}

// HistogramSnap summarizes one histogram in a Snapshot: cumulative
// count and sum, extrema, and windowed quantiles (seconds).
type HistogramSnap struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Count  uint64            `json:"count"`
	Sum    float64           `json:"sum"`
	Min    float64           `json:"min"`
	Max    float64           `json:"max"`
	P50    float64           `json:"p50"`
	P90    float64           `json:"p90"`
	P99    float64           `json:"p99"`
}

// Snapshot is a point-in-time JSON-serializable view of a registry —
// the schema of the telemetry.json a durable run writes at exit.
type Snapshot struct {
	Timestamp  time.Time       `json:"timestamp"`
	Counters   []CounterSnap   `json:"counters"`
	Gauges     []GaugeSnap     `json:"gauges"`
	Histograms []HistogramSnap `json:"histograms"`
}

func labelMap(labels []Label) map[string]string {
	if len(labels) == 0 {
		return nil
	}
	m := make(map[string]string, len(labels))
	for _, l := range labels {
		m[l.Key] = l.Value
	}
	return m
}

// Snapshot captures every registered metric. Entries are sorted by
// (name, labels) so snapshots of equal state are byte-identical.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Timestamp:  time.Now().UTC(),
		Counters:   []CounterSnap{},
		Gauges:     []GaugeSnap{},
		Histograms: []HistogramSnap{},
	}
	for _, m := range r.snapshotMetrics() {
		switch m.kind {
		case kindCounter:
			s.Counters = append(s.Counters, CounterSnap{Name: m.name, Labels: labelMap(m.labels), Value: m.counter.Value()})
		case kindGauge:
			s.Gauges = append(s.Gauges, GaugeSnap{Name: m.name, Labels: labelMap(m.labels), Value: m.gauge.Value()})
		case kindHistogram:
			h := m.hist
			h.mu.Lock()
			w := h.sortedWindowLocked()
			hs := HistogramSnap{
				Name: m.name, Labels: labelMap(m.labels),
				Count: h.count, Sum: h.sum,
				P50: nearestRank(w, 0.50), P90: nearestRank(w, 0.90), P99: nearestRank(w, 0.99),
			}
			if h.count > 0 {
				hs.Min, hs.Max = h.min, h.max
			}
			h.mu.Unlock()
			s.Histograms = append(s.Histograms, hs)
		}
	}
	sortSnaps(s.Counters, func(c CounterSnap) string { return c.Name + "\x00" + flatLabels(c.Labels) })
	sortSnaps(s.Gauges, func(g GaugeSnap) string { return g.Name + "\x00" + flatLabels(g.Labels) })
	sortSnaps(s.Histograms, func(h HistogramSnap) string { return h.Name + "\x00" + flatLabels(h.Labels) })
	return s
}

func flatLabels(m map[string]string) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		sb.WriteString(k)
		sb.WriteByte('=')
		sb.WriteString(m[k])
		sb.WriteByte(';')
	}
	return sb.String()
}

func sortSnaps[T any](s []T, key func(T) string) {
	sort.Slice(s, func(i, j int) bool { return key(s[i]) < key(s[j]) })
}

// SnapshotJSON renders the registry snapshot as indented JSON.
func (r *Registry) SnapshotJSON() ([]byte, error) {
	data, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return nil, fmt.Errorf("telemetry: marshal snapshot: %w", err)
	}
	return append(data, '\n'), nil
}

// WriteSnapshotFile writes the registry snapshot to path as JSON via a
// same-directory temp file and rename, so a reader never observes a
// partial snapshot.
func (r *Registry) WriteSnapshotFile(path string) error {
	data, err := r.SnapshotJSON()
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("telemetry: write snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("telemetry: close snapshot: %w", err)
	}
	if err := os.Chmod(tmpName, 0o644); err != nil {
		return fmt.Errorf("telemetry: chmod snapshot: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("telemetry: rename snapshot: %w", err)
	}
	return nil
}
