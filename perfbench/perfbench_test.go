package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qfarith/internal/backend"
	"qfarith/internal/experiment"
	"qfarith/internal/server"
	"qfarith/internal/telemetry"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // reversed: percentile must sort
		}
		return xs
	}
	cases := []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{100, 0.9, 90, true},
		{99, 0.9, 90, false}, // rank 90 of 99 leaves 9 beyond
		{20, 0.5, 10, true},
		{19, 0.5, 10, false},
		{1000, 0.9, 900, true},
	}
	for _, c := range cases {
		v, ok := percentile(seq(c.n), c.p)
		if v != c.want || ok != c.ok {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", c.n, c.p, v, ok, c.want, c.ok)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported ok")
	}
}

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.median and
	// statistics.quantiles(xs, n=4).
	cases := []struct {
		xs         []float64
		q1, m, q3  float64
		wantRelIQR float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25, 1},
		{[]float64{3.1, 0.5, 2.2}, 0.5, 2.2, 3.1, 2.6 / 2.2},
		{[]float64{5, 1}, 0, 3, 6, 2},
		{[]float64{10, 20, 30, 40, 50, 60, 70}, 20, 40, 60, 1},
	}
	for _, c := range cases {
		q1, q3, ok := quartiles(c.xs)
		m := median(c.xs)
		if !ok || math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 || math.Abs(m-c.m) > 1e-12 {
			t.Errorf("%v: q1 %v median %v q3 %v; want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
		if r := relIQR(c.xs); math.Abs(r-c.wantRelIQR) > 1e-12 {
			t.Errorf("%v: relIQR %v, want %v", c.xs, r, c.wantRelIQR)
		}
	}
	if _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value reported ok")
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}

func at(s float64) time.Time { return time.Unix(1000, 0).Add(time.Duration(s * float64(time.Second))) }

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	p := span{ID: 1, Start: at(0), End: at(10)}
	kids := []span{
		{Start: at(1), End: at(3)},
		{Start: at(2), End: at(4)},   // overlaps the first: union [1,4]
		{Start: at(6), End: at(7)},   // disjoint
		{Start: at(9), End: at(12)},  // clipped to [9,10]
		{Start: at(11), End: at(13)}, // entirely outside
	}
	if got, want := selfTime(p, kids), 5*time.Second; got != want {
		t.Errorf("selfTime = %v, want %v", got, want)
	}
	if got := selfTime(p, nil); got != 10*time.Second {
		t.Errorf("selfTime without children = %v, want 10s", got)
	}
	if got := selfTime(p, []span{{Start: at(-1), End: at(11)}}); got != 0 {
		t.Errorf("selfTime under a covering child = %v, want 0", got)
	}
}

func TestAdoptAttributesByContainment(t *testing.T) {
	spans := []span{
		{ID: 1, Group: 7, Name: "server.job_run", Start: at(0), End: at(5)},
		{ID: 2, Group: 8, Name: "server.job_run", Start: at(6), End: at(9)},
		{ID: 3, Name: "backend.run", Start: at(1), End: at(2)},
		{ID: 4, Name: "backend.run", Start: at(7), End: at(8)},
		{ID: 5, Name: "backend.run", Start: at(5.5), End: at(5.8)}, // between jobs
	}
	adopt(spans, "server.job_run", "backend.run")
	for _, c := range []struct {
		i             int
		parent, group int64
	}{{2, 1, 7}, {3, 2, 8}, {4, 0, 0}} {
		if s := spans[c.i]; s.Parent != c.parent || s.Group != c.group {
			t.Errorf("span %d: parent %d group %d, want %d %d", s.ID, s.Parent, s.Group, c.parent, c.group)
		}
	}
	if got := selfTime(spans[0], childrenOf(spans)[1]); got != 4*time.Second {
		t.Errorf("job self time = %v, want 4s", got)
	}
}

func TestTelemetryDeltas(t *testing.T) {
	r := telemetry.NewRegistry()
	hit := r.Counter("cache_events_total", telemetry.L("cache", "engine"), telemetry.L("result", "hit"))
	miss := r.Counter("cache_events_total", telemetry.L("cache", "engine"), telemetry.L("result", "miss"))
	other := r.Counter("cache_events_total", telemetry.L("cache", "transpile"), telemetry.L("result", "hit"))
	h := r.Histogram("task_seconds")
	hit.Add(5)
	other.Add(100)
	h.Observe(1)

	before := takeSnap(r)
	hit.Add(3)
	miss.Inc()
	h.Observe(0.25)
	h.Observe(0.5)
	r.Counter("late_total").Add(4) // registered after the first snapshot
	d := takeSnap(r).since(before)

	if got := d.counter("cache_events_total", "cache", "engine", "result", "hit"); got != 3 {
		t.Errorf("engine hits delta = %v, want 3", got)
	}
	if got := d.counter("cache_events_total", "cache", "engine"); got != 4 {
		t.Errorf("engine events delta = %v, want 4", got)
	}
	if got := d.counter("cache_events_total", "cache", "transpile"); got != 0 {
		t.Errorf("unchanged counter delta = %v, want 0", got)
	}
	if got := d.counter("late_total"); got != 4 {
		t.Errorf("late counter delta = %v, want 4", got)
	}
	if got, n := d.histSum("task_seconds"), d.histCount("task_seconds"); got != 0.75 || n != 2 {
		t.Errorf("histogram delta = %v over %d, want 0.75 over 2", got, n)
	}
	if got := ratio(3, 1); got != 0.75 {
		t.Errorf("ratio(3,1) = %v", got)
	}
}

// fakeDaemon serves the three job endpoints a closed-loop client uses.
// Seed 2 is refused with 429, seed 3 ends failed, seed 4 serves a CSV
// that differs from the expected one, and every other seed succeeds.
func fakeDaemon(t *testing.T, expect map[uint64][]byte) *httptest.Server {
	var (
		mu    sync.Mutex
		seeds = map[string]uint64{}
		next  atomic.Int64
	)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var req server.JobRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("decode submit: %v", err)
		}
		if req.Seed == 2 {
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		id := fmt.Sprintf("job-%06d", next.Add(1))
		mu.Lock()
		seeds[id] = req.Seed
		mu.Unlock()
		w.WriteHeader(http.StatusCreated)
		_ = json.NewEncoder(w).Encode(server.JobStatus{ID: id, State: server.StateQueued})
	})
	mux.HandleFunc("GET /api/v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seed := seeds[r.PathValue("id")]
		mu.Unlock()
		final := server.StateDone
		if seed == 3 {
			final = server.StateFailed
		}
		for _, ev := range []struct {
			typ string
			v   any
		}{
			{server.EventState, server.JobStatus{State: server.StateRunning}},
			{server.EventProgress, map[string]int{"done": 1}},
			{server.EventState, server.JobStatus{State: final, Started: at(1), Finished: at(2)}},
		} {
			data, _ := json.Marshal(ev.v)
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.typ, data)
		}
	})
	mux.HandleFunc("GET /api/v1/jobs/{id}/artifacts/{name}", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seed := seeds[r.PathValue("id")]
		mu.Unlock()
		if seed == 4 {
			_, _ = w.Write([]byte("tampered\n"))
			return
		}
		_, _ = w.Write(expect[seed])
	})
	return httptest.NewServer(mux)
}

func TestClosedLoopCountsRefusedAndFailedJobs(t *testing.T) {
	expect := map[uint64][]byte{1: []byte("a\n"), 2: []byte("b\n"), 3: []byte("c\n"), 4: []byte("d\n")}
	ts := fakeDaemon(t, expect)
	defer ts.Close()
	groups := new(atomic.Int64)
	var clients []*jobClient
	for i := 0; i < 2; i++ {
		clients = append(clients, &jobClient{base: ts.URL, hc: ts.Client(), name: fmt.Sprint(i), expect: expect, tr: newTracer(), groups: groups})
	}
	// Client 0 walks seeds 1,3,1,3 and client 1 walks 2,4,2,4.
	st := runLoad(context.Background(), clients, []uint64{1, 2, 3, 4}, func(_, done int, _ *loadStats) bool { return done < 4 })
	if st.attempted != 8 || st.ok != 2 {
		t.Fatalf("attempted %d ok %d; want 8 attempted, 2 ok", st.attempted, st.ok)
	}
	inf := 0
	for _, l := range st.latencies {
		if math.IsInf(l, 1) {
			inf++
		}
	}
	if len(st.latencies) != 8 || inf != 6 {
		t.Errorf("%d latencies with %d misses; want 8 with 6", len(st.latencies), inf)
	}
	if st.firstErr == nil || strings.Contains(st.firstErr.Error(), "429") {
		t.Errorf("first error %v; want the failed or mismatched job, not the refusal", st.firstErr)
	}
	if got := okFrac(st.attempted, st.attempted-st.ok); got != 0.25 {
		t.Errorf("ok_frac = %v, want 0.25", got)
	}
	var res result
	res.addLatency(st.latencies, 7*time.Second)
	if res.values["job_p50_s"].Value != 7 {
		t.Errorf("a median over mostly failed jobs reports %v, want the phase length", res.values["job_p50_s"].Value)
	}
	if res.fatal == nil {
		t.Error("eight samples satisfied the ten-beyond rule")
	}
}

func TestCheckPanelCSV(t *testing.T) {
	pc := experiment.PanelConfig{
		Geometry: experiment.PaperAddGeometry(), Axis: experiment.Axis2Q, OrderX: 1, OrderY: 1,
		Rates: []float64{0, 0.01}, Depths: experiment.AddDepths,
		Budget: experiment.Budget{Instances: 1, Shots: 256, Trajectories: 1, Workers: 2}, Seed: 5,
	}
	b, err := backend.New(backend.DefaultName)
	if err != nil {
		t.Fatal(err)
	}
	res, err := experiment.RunPanelCtx(context.Background(), backend.NewRunner(b, 2), pc, nil)
	if err != nil {
		t.Fatal(err)
	}
	csv := res.CSV()
	sum := sha256.Sum256([]byte(csv))
	if err := checkPanelCSV(csv, pc, hex.EncodeToString(sum[:])); err != nil {
		t.Fatalf("valid CSV refused: %v", err)
	}
	lines := strings.Split(csv, "\n")
	full := -1
	for i, l := range lines {
		if strings.HasPrefix(l, "qfa,2q,0.000,full,") {
			full = i
		}
	}
	if full < 0 {
		t.Fatal("no noiseless full-depth row")
	}
	bad := map[string]string{
		"digest":       csv,
		"missing cell": strings.Join(append(append([]string{}, lines[:2]...), lines[3:]...), "\n"),
		"full depth":   strings.Replace(csv, lines[full], strings.Replace(lines[full], ",100.00,", ",99.00,", 1), 1),
		"extra row":    csv + lines[full] + "\n",
	}
	for name, c := range bad {
		digest := ""
		if name == "digest" {
			digest = strings.Repeat("0", 64)
		}
		if err := checkPanelCSV(c, pc, digest); err == nil {
			t.Errorf("%s: bad CSV accepted", name)
		}
	}
}

func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, ours []metricDef) {
		if len(declared) != len(ours) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark prints %d", kind, len(declared), len(ours))
			return
		}
		for i, m := range ours {
			if declared[i].Name != m.name || declared[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark prints %s (%s)", kind, i, declared[i].Name, declared[i].Unit, m.name, m.unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
	for _, w := range bj.Workloads {
		if _, ok := panelWorkloads[w.Name]; !ok && w.Name != daemonWorkload {
			t.Errorf("BENCHMARK.json names unknown workload %s", w.Name)
		}
	}
}

func TestSegmentsSampleThroughputAndCost(t *testing.T) {
	seg := func(ok, failed int, wall, cpu time.Duration) segment {
		st := &loadStats{attempted: ok + failed, ok: ok}
		for i := 0; i < ok; i++ {
			st.latencies = append(st.latencies, 0.01)
		}
		for i := 0; i < failed; i++ {
			st.latencies = append(st.latencies, math.Inf(1))
		}
		if failed > 0 {
			st.firstErr = fmt.Errorf("segment failure")
		}
		return segment{st: st, wall: wall, cpu: cpu}
	}
	// Five instances per job: 98 ok jobs are 490 instances over 2.46 s
	// of summed segment wall time and 2.96 s of CPU; the segment without
	// an ok job still counts its time.
	tl := tallySegments([]segment{
		seg(50, 0, 500*time.Millisecond, time.Second),
		seg(48, 2, 960*time.Millisecond, 960*time.Millisecond),
		seg(0, 3, time.Second, time.Second),
	}, 5)
	if tl.attempted != 103 || tl.ok != 98 || len(tl.latencies) != 103 {
		t.Fatalf("attempted %d ok %d latencies %d; want 103, 98, 103", tl.attempted, tl.ok, len(tl.latencies))
	}
	if tl.firstErr == nil {
		t.Error("a failed segment's error was dropped")
	}
	if want := 490 / 2.46; math.Abs(tl.ips-want) > 1e-9 {
		t.Errorf("throughput %v instances/s, want %v", tl.ips, want)
	}
	if want := 2.96 / 490; math.Abs(tl.cpuPer-want) > 1e-12 {
		t.Errorf("CPU cost %v s per instance, want %v", tl.cpuPer, want)
	}
	if got := lowerQuartile([]float64{7}); got != 7 {
		t.Errorf("lowerQuartile of one value = %v, want the value", got)
	}
}
