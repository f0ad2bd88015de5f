package main

import (
	"sort"

	"qfarith/internal/telemetry"
)

// telemSnap is a flattened telemetry.Registry snapshot: counter values
// and histogram sums/counts, each tagged with its labels. The program's
// own metrics are the only view this benchmark has inside a layer.
type telemSnap struct {
	entries []telemEntry
}

type telemEntry struct {
	hist   bool
	name   string
	labels map[string]string
	value  float64 // counter value or histogram sum
	count  uint64  // histogram observation count
}

func (e telemEntry) key() string {
	k := e.name
	if e.hist {
		k += "#h"
	}
	return k + "{" + flatLabels(e.labels) + "}"
}

func flatLabels(m map[string]string) string {
	s := ""
	for _, k := range sortedKeys(m) {
		s += k + "=" + m[k] + ";"
	}
	return s
}

func takeSnap(r *telemetry.Registry) telemSnap {
	s := r.Snapshot()
	var out telemSnap
	for _, c := range s.Counters {
		out.entries = append(out.entries, telemEntry{name: c.Name, labels: c.Labels, value: float64(c.Value)})
	}
	for _, h := range s.Histograms {
		out.entries = append(out.entries, telemEntry{hist: true, name: h.Name, labels: h.Labels, value: h.Sum, count: h.Count})
	}
	return out
}

// since returns the change from before to s: metrics registered after
// before count from zero.
func (s telemSnap) since(before telemSnap) telemSnap {
	prev := make(map[string]telemEntry, len(before.entries))
	for _, e := range before.entries {
		prev[e.key()] = e
	}
	var out telemSnap
	for _, e := range s.entries {
		p := prev[e.key()]
		e.value -= p.value
		e.count -= p.count
		out.entries = append(out.entries, e)
	}
	return out
}

func matches(e telemEntry, labels []string) bool {
	for i := 0; i+1 < len(labels); i += 2 {
		if e.labels[labels[i]] != labels[i+1] {
			return false
		}
	}
	return true
}

// counter sums the named counter over every label set that carries the
// given key/value pairs.
func (s telemSnap) counter(name string, labels ...string) float64 {
	t := 0.0
	for _, e := range s.entries {
		if !e.hist && e.name == name && matches(e, labels) {
			t += e.value
		}
	}
	return t
}

// histSum and histCount sum the named histogram over all label sets.
func (s telemSnap) histSum(name string) float64 {
	t := 0.0
	for _, e := range s.entries {
		if e.hist && e.name == name {
			t += e.value
		}
	}
	return t
}

func (s telemSnap) histCount(name string) uint64 {
	var t uint64
	for _, e := range s.entries {
		if e.hist && e.name == name {
			t += e.count
		}
	}
	return t
}

// ratio is a/(a+b), or 0 when both are 0.
func ratio(a, b float64) float64 {
	if a+b == 0 {
		return 0
	}
	return a / (a + b)
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
