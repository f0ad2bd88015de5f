package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded around the call from
// this package. Spans of one panel or one job share a Group.
type span struct {
	ID     int64
	Parent int64
	Group  int64
	Name   string
	Start  time.Time
	End    time.Time
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory until the benchmark ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	mu     sync.Mutex
	nextID atomic.Int64
	spans  []span
}

func newTracer() *tracer { return &tracer{} }

// active is a started span; close records it.
type active struct {
	t *tracer
	s span
}

// open starts a span named name under parent, in group.
func (t *tracer) open(name string, parent, group int64) active {
	if t == nil {
		return active{}
	}
	return active{t: t, s: span{ID: t.nextID.Add(1), Parent: parent, Group: group, Name: name, Start: time.Now()}}
}

// id is the span's identifier (0 when tracing is off), for children.
func (a active) id() int64 { return a.s.ID }

func (a active) close() {
	if a.t == nil {
		return
	}
	a.s.End = time.Now()
	a.t.add(a.s)
}

// record adds a span whose interval was measured elsewhere (the job
// timestamps the daemon reports).
func (t *tracer) record(name string, parent, group int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.add(span{ID: t.nextID.Add(1), Parent: parent, Group: group, Name: name, Start: start, End: end})
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// reset drops every span recorded so far.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

// snapshot returns a copy of every span recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// adopt gives every parentless span named child the parent span named
// parent whose interval contains the child's start, taking over its
// group. Calls made inside the program (Backend.Run from a runner
// worker) cannot see which panel or job caused them; panels and jobs
// run one at a time, so interval containment identifies it exactly.
func adopt(spans []span, parent, child string) {
	var parents []span
	for _, s := range spans {
		if s.Name == parent {
			parents = append(parents, s)
		}
	}
	sort.Slice(parents, func(i, j int) bool { return parents[i].Start.Before(parents[j].Start) })
	for i := range spans {
		c := &spans[i]
		if c.Name != child || c.Parent != 0 {
			continue
		}
		k := sort.Search(len(parents), func(k int) bool { return parents[k].Start.After(c.Start) }) - 1
		if k >= 0 && !c.Start.After(parents[k].End) {
			c.Parent, c.Group = parents[k].ID, parents[k].Group
		}
	}
}

// selfTime is p's duration minus the part of its interval that the
// union of its children's intervals covers.
func selfTime(p span, children []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, c := range children {
		a, b := c.Start, c.End
		if a.Before(p.Start) {
			a = p.Start
		}
		if b.After(p.End) {
			b = p.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var covered time.Duration
	var cur iv
	for i, x := range ivs {
		switch {
		case i == 0:
			cur = x
		case !x.a.After(cur.b):
			if x.b.After(cur.b) {
				cur.b = x.b
			}
		default:
			covered += cur.b.Sub(cur.a)
			cur = x
		}
	}
	if len(ivs) > 0 {
		covered += cur.b.Sub(cur.a)
	}
	return p.dur() - covered
}

// childrenOf indexes spans by parent identifier.
func childrenOf(spans []span) map[int64][]span {
	m := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			m[s.Parent] = append(m[s.Parent], s)
		}
	}
	return m
}

// byName returns the spans named name.
func byName(spans []span, name string) []span {
	var out []span
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// durations returns each span's duration in seconds.
func durations(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = s.dur().Seconds()
	}
	return out
}

// writeTrace writes spans as JSON lines, times in nanoseconds since
// origin, with each span's self time.
func writeTrace(path string, origin time.Time, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	kids := childrenOf(spans)
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		rec := struct {
			ID      int64  `json:"id"`
			Parent  int64  `json:"parent"`
			Group   int64  `json:"group"`
			Name    string `json:"name"`
			StartNS int64  `json:"start_ns"`
			EndNS   int64  `json:"end_ns"`
			SelfNS  int64  `json:"self_ns"`
		}{s.ID, s.Parent, s.Group, s.Name, s.Start.Sub(origin).Nanoseconds(), s.End.Sub(origin).Nanoseconds(), selfTime(s, kids[s.ID]).Nanoseconds()}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return fmt.Errorf("write trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}
