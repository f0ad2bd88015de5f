package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qfarith/internal/backend"
	"qfarith/internal/compile"
	"qfarith/internal/experiment"
	"qfarith/internal/runstore"
	"qfarith/internal/server"
	"qfarith/internal/telemetry"
)

// The daemon workload: qfarithd's server in process on a loopback
// listener, one job at a time on a two-worker pool, driven by two
// closed-loop clients that each submit a tiny noiseless fig3 job,
// follow its event stream to the end and fetch its CSV.
const (
	daemonClients = 2
	// daemonSeeds is the size of the fixed seed cycle the clients walk.
	daemonSeeds = 8
	// minJobs is the fewest jobs an untraced run times: at least ten
	// latencies must lie beyond p90. tracedJobs is the traced phase's
	// fixed job count.
	minJobs    = 110
	tracedJobs = 120
	// artifactName is the CSV the job request below produces.
	artifactName = "fig3_2q_11.csv"
	// refusedBackoff is how long a client waits after a 429 before its
	// next cycle, so a full queue is not hammered.
	refusedBackoff = 10 * time.Millisecond
	// segmentJobs is how many jobs one segment of the timed loop runs:
	// a segment is one throughput sample, the daemon's counterpart of a
	// panel.
	segmentJobs = 50
)

// jobRequest is one small job: five noiseless 15-qubit instances at
// 2048 shots, scored by margin, xeb and roundtrip.
func jobRequest(seed uint64, client string) server.JobRequest {
	return server.JobRequest{
		Command: "fig3", Axis: "2q", Orders: "1:1", RatesPct: []float64{0},
		Instances: 1, Shots: 2048, Scorers: []string{"xeb", "roundtrip"},
		Seed: seed, Client: client,
	}
}

// instancesPerJob is the operand-instance count of one job.
func instancesPerJob() int {
	_, depths, _ := experiment.FigureSweep("fig3")
	return len(depths)
}

// daemonSeedCycle derives the clients' fixed seed set.
func daemonSeedCycle(seed uint64) []uint64 {
	out := make([]uint64, daemonSeeds)
	for i := range out {
		out[i] = splitmix(seed, uint64(i))
	}
	return out
}

// referenceArtifacts computes, through the direct SweepSpec path, the
// exact artifact bytes the daemon must serve for each seed.
func referenceArtifacts(ctx context.Context, dir string, seeds []uint64) (map[uint64][]byte, error) {
	b, err := backend.New(backend.DefaultName)
	if err != nil {
		return nil, err
	}
	runner := backend.NewRunner(b, workers)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	out := map[uint64][]byte{}
	for _, seed := range seeds {
		spec, err := jobRequest(seed, "").Spec(backend.DefaultName)
		if err != nil {
			return nil, err
		}
		panels, _ := spec.Panels(compile.Config{}, workers)
		if len(panels) != 1 || panels[0].Label+".csv" != artifactName {
			return nil, fmt.Errorf("job request enumerates %d panels, want one named %s", len(panels), artifactName)
		}
		res, err := experiment.RunPanelCtx(ctx, runner, panels[0].Config, nil)
		if err != nil {
			return nil, err
		}
		csv := res.CSV()
		if err := checkPanelCSV(csv, panels[0].Config, ""); err != nil {
			return nil, fmt.Errorf("reference seed %d: %w", seed, err)
		}
		path := filepath.Join(dir, fmt.Sprintf("ref-%d.csv", seed))
		if err := runstore.WriteArtifact(path, []byte(csv)); err != nil {
			return nil, err
		}
		if out[seed], err = os.ReadFile(path); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// daemon is one running server with its listener.
type daemon struct {
	srv    *server.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
}

// startDaemon builds the server over dataDir and serves it on a fresh
// loopback port.
func startDaemon(dataDir string) (*daemon, error) {
	srv, err := server.New(server.Config{DataDir: dataDir, Backend: backend.DefaultName, Workers: workers, Jobs: 1})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Drain(context.Background())
		return nil, err
	}
	d := &daemon{
		srv: srv, hs: &http.Server{Handler: srv}, served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * daemonClients}},
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop drains the scheduler, shuts the listener and waits for Serve to
// return.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.srv.Drain(ctx)
	if serr := d.hs.Shutdown(ctx); err == nil {
		err = serr
	}
	if serr := <-d.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	d.client.CloseIdleConnections()
	return err
}

// jobClient is one closed-loop client of the daemon.
type jobClient struct {
	base   string
	hc     *http.Client
	name   string
	expect map[uint64][]byte
	tr     *tracer
	groups *atomic.Int64
}

// jobOutcome is one cycle: submit, follow, fetch, compare.
type jobOutcome struct {
	ok      bool
	refused bool
	latency time.Duration
	err     error
}

// cycle runs one job from submission to the verified CSV.
func (c *jobClient) cycle(ctx context.Context, seed uint64) jobOutcome {
	var group int64
	if c.tr != nil {
		group = c.groups.Add(1)
	}
	t0 := time.Now()
	root := c.tr.open("server.job", 0, group)
	defer root.close()

	body, err := json.Marshal(jobRequest(seed, c.name))
	if err != nil {
		return jobOutcome{err: err}
	}
	sp := c.tr.open("server.submit", root.id(), group)
	var st server.JobStatus
	code, err := c.do(ctx, http.MethodPost, "/api/v1/jobs", bytes.NewReader(body), &st)
	sp.close()
	if err != nil {
		return jobOutcome{err: err}
	}
	switch code {
	case http.StatusCreated:
	case http.StatusTooManyRequests:
		return jobOutcome{refused: true, err: fmt.Errorf("job refused (429)")}
	default:
		return jobOutcome{err: fmt.Errorf("submit: HTTP %d", code)}
	}

	final, err := c.follow(ctx, st.ID)
	received := time.Now()
	if err != nil {
		return jobOutcome{err: err}
	}
	if c.tr != nil {
		c.tr.record("server.queue_wait", root.id(), group, final.Submitted, final.Started)
		c.tr.record("server.job_run", root.id(), group, final.Started, final.Finished)
		c.tr.record("server.notify", root.id(), group, final.Finished, received)
	}
	if final.State != server.StateDone {
		return jobOutcome{err: fmt.Errorf("job %s ended %s: %s", st.ID, final.State, final.Error)}
	}

	sp = c.tr.open("server.fetch", root.id(), group)
	var csv bytes.Buffer
	code, err = c.do(ctx, http.MethodGet, "/api/v1/jobs/"+st.ID+"/artifacts/"+artifactName, nil, &csv)
	sp.close()
	if err != nil {
		return jobOutcome{err: err}
	}
	if code != http.StatusOK {
		return jobOutcome{err: fmt.Errorf("fetch %s: HTTP %d", artifactName, code)}
	}
	if !bytes.Equal(csv.Bytes(), c.expect[seed]) {
		return jobOutcome{err: fmt.Errorf("job %s (seed %d) served a CSV that differs from the direct SweepSpec result", st.ID, seed)}
	}
	return jobOutcome{ok: true, latency: time.Since(t0)}
}

// do issues one request and decodes a JSON reply into out, or copies
// the body when out is a *bytes.Buffer.
func (c *jobClient) do(ctx context.Context, method, path string, body io.Reader, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if buf, ok := out.(*bytes.Buffer); ok {
		_, err = io.Copy(buf, resp.Body)
	} else if resp.StatusCode < 300 {
		err = json.NewDecoder(resp.Body).Decode(out)
	}
	// Drain so the connection returns to the pool.
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, err
}

// follow reads the job's event stream until a terminal state event.
func (c *jobClient) follow(ctx context.Context, id string) (server.JobStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/api/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return server.JobStatus{}, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return server.JobStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return server.JobStatus{}, fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "event: "); ok {
			event = v
			continue
		}
		v, ok := strings.CutPrefix(line, "data: ")
		if !ok || event != server.EventState {
			continue
		}
		var st server.JobStatus
		if err := json.Unmarshal([]byte(v), &st); err != nil {
			return server.JobStatus{}, fmt.Errorf("events: %w", err)
		}
		switch st.State {
		case server.StateDone, server.StateFailed, server.StateCancelled, server.StateInterrupted:
			_, _ = io.Copy(io.Discard, resp.Body)
			return st, nil
		}
	}
	if err := sc.Err(); err != nil {
		return server.JobStatus{}, fmt.Errorf("events: %w", err)
	}
	return server.JobStatus{}, fmt.Errorf("events: stream for %s ended before a terminal state", id)
}

// loadStats counts the closed loop's outcomes. Every cycle is
// attempted; only a verified CSV is ok. A refused or failed job enters
// the latency sample as +Inf, so it misses any latency limit.
type loadStats struct {
	mu        sync.Mutex
	attempted int
	ok        int
	latencies []float64
	firstErr  error
}

func (s *loadStats) add(o jobOutcome) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.attempted++
	if !o.ok {
		s.latencies = append(s.latencies, math.Inf(1))
		if s.firstErr == nil && !o.refused {
			s.firstErr = o.err
		}
		return
	}
	s.ok++
	s.latencies = append(s.latencies, o.latency.Seconds())
}

func (s *loadStats) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.attempted
}

// runLoad drives the clients in closed loops. Client i walks the seed
// cycle from offset i. Each client stops when more(jobs so far) is
// false or ctx ends, and runLoad returns when all have stopped.
func runLoad(ctx context.Context, clients []*jobClient, seeds []uint64, more func(client, done int, st *loadStats) bool) *loadStats {
	st := &loadStats{}
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *jobClient) {
			defer wg.Done()
			for k := 0; more(i, k, st) && ctx.Err() == nil; k++ {
				o := c.cycle(ctx, seeds[(i+k*len(clients))%len(seeds)])
				st.add(o)
				if o.refused {
					select {
					case <-time.After(refusedBackoff):
					case <-ctx.Done():
					}
				}
			}
		}(i, c)
	}
	wg.Wait()
	return st
}

// daemonEnv is a set-up daemon with its clients.
type daemonEnv struct {
	d       *daemon
	clients []*jobClient
	seeds   []uint64
	probe   compileProbe
}

// setupDaemon compiles the job's circuits, computes the reference
// artifacts, starts the server on a loopback listener and runs one
// warm-up job, which fills the shared runner's transpile and engine
// caches as a long-lived daemon's would be.
func setupDaemon(ctx context.Context, dir string, seed uint64, tr *tracer) (*daemonEnv, error) {
	probe, err := compileAll(jobRequest(0, "").Command)
	if err != nil {
		return nil, err
	}
	seeds := daemonSeedCycle(seed)
	expect, err := referenceArtifacts(ctx, filepath.Join(dir, "ref"), seeds)
	if err != nil {
		return nil, fmt.Errorf("reference artifacts: %w", err)
	}
	d, err := startDaemon(filepath.Join(dir, "data"))
	if err != nil {
		return nil, err
	}
	env := &daemonEnv{d: d, seeds: seeds, probe: probe}
	groups := new(atomic.Int64)
	for i := 0; i < daemonClients; i++ {
		env.clients = append(env.clients, &jobClient{base: d.base, hc: d.client, name: fmt.Sprintf("client-%d", i),
			expect: expect, tr: tr, groups: groups})
	}
	if o := env.clients[0].cycle(ctx, seeds[0]); !o.ok {
		_ = d.stop()
		return nil, fmt.Errorf("warm-up job: %v", o.err)
	}
	return env, nil
}

// timedJobs runs the closed loop and reports its stats and wall time.
func (env *daemonEnv) timedJobs(ctx context.Context, more func(client, done int, st *loadStats) bool) (*loadStats, time.Duration) {
	t0 := time.Now()
	st := runLoad(ctx, env.clients, env.seeds, more)
	return st, time.Since(t0)
}

// segment is one timed stretch of the closed loop.
type segment struct {
	st        *loadStats
	wall, cpu time.Duration
}

// segmentTally folds segments into attempted/ok job counts, every job
// latency, the first error, and the timed phase's throughput and CPU
// cost: ok instances per wall second and CPU seconds per ok instance,
// both over the segments' summed wall and CPU time, so the set-ups
// between segments are left out. Whole-phase totals average the host's
// busy and quiet spells over the run; a quantile of short-segment rates
// follows whichever spell covers that share of the run, and on a
// shared host that share differs from run to run.
type segmentTally struct {
	attempted, ok int
	latencies     []float64
	firstErr      error
	ips, cpuPer   float64
}

func tallySegments(segs []segment, perJob int) segmentTally {
	var t segmentTally
	var wall, cpu time.Duration
	for _, s := range segs {
		t.attempted += s.st.attempted
		t.ok += s.st.ok
		t.latencies = append(t.latencies, s.st.latencies...)
		if t.firstErr == nil {
			t.firstErr = s.st.firstErr
		}
		wall += s.wall
		cpu += s.cpu
	}
	n := float64(t.ok * perJob)
	t.ips = n / wall.Seconds()
	t.cpuPer = cpu.Seconds() / n
	return t
}

// runDaemon measures the daemon workload; see runPanel for the shape of
// untraced and traced runs. Untraced, the loop runs in segments of
// segmentJobs jobs, with the clients idle between segments while one
// more full daemon set-up is timed and torn down.
func runDaemon(ctx context.Context, o options) (result, error) {
	perJob := instancesPerJob()
	if !o.trace {
		var setups []float64
		setUp := func(k int) (*daemonEnv, error) {
			t0 := time.Now()
			e, err := setupDaemon(ctx, filepath.Join(o.workdir, fmt.Sprintf("setup-%03d", k)), o.seed, nil)
			if err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
			setups = append(setups, time.Since(t0).Seconds())
			return e, nil
		}
		env, err := setUp(0)
		if err != nil {
			return result{}, err
		}
		var segs []segment
		attempted := 0
		start := time.Now()
		for k := 0; ctx.Err() == nil && (time.Since(start) < o.seconds || attempted < minJobs); k++ {
			c0 := cpuTime()
			st, wall := env.timedJobs(ctx, func(_, _ int, st *loadStats) bool { return st.count() < segmentJobs })
			segs = append(segs, segment{st: st, wall: wall, cpu: cpuTime() - c0})
			attempted += st.attempted
			extra, err := setUp(k + 1)
			if err == nil {
				err = extra.d.stop()
			}
			if err != nil {
				_ = env.d.stop()
				return result{}, err
			}
		}
		if err := env.d.stop(); err != nil {
			return result{}, err
		}
		t := tallySegments(segs, perJob)
		logSetups(setups)
		res := result{attempted: t.attempted, failed: t.attempted - t.ok, err: t.firstErr}
		res.add("setup_s", median(setups), "s")
		res.add("instances_per_s", t.ips, "1/s")
		res.add("cpu_s_per_instance", t.cpuPer, "s")
		res.add("peak_rss_mb", peakRSSMB(), "MB")
		res.add("ok_frac", okFrac(t.attempted, t.attempted-t.ok), "ratio")
		res.addLatency(t.latencies, time.Since(start))
		return res, nil
	}

	env, err := setupDaemon(ctx, filepath.Join(o.workdir, "setup-base"), o.seed, nil)
	if err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	start := time.Now()
	base, baseWall := env.timedJobs(ctx, func(_, _ int, st *loadStats) bool {
		return time.Since(start) < o.seconds/2 || st.count() < minJobs
	})
	if err := env.d.stop(); err != nil {
		return result{}, err
	}

	// Time Backend.Run inside the daemon: its server builds the backend
	// by name, so the timing wrapper replaces the default registration.
	// Nothing after this phase builds a backend.
	tr := newTracer()
	inner, err := backend.New(backend.DefaultName)
	if err != nil {
		return result{}, err
	}
	backend.Register(backend.DefaultName, func() backend.Backend { return &timedBackend{Backend: inner, tr: tr} })
	env, err = setupDaemon(ctx, filepath.Join(o.workdir, "setup-traced"), o.seed, tr)
	if err != nil {
		return result{}, fmt.Errorf("traced setup: %w", err)
	}
	tr.reset()
	before := takeSnap(telemetry.Default())
	t0 := time.Now()
	traced, wall := env.timedJobs(ctx, func(_, done int, _ *loadStats) bool {
		return done < tracedJobs/daemonClients
	})
	delta := takeSnap(telemetry.Default()).since(before)
	if err := env.d.stop(); err != nil {
		return result{}, err
	}

	spans := tr.snapshot()
	adopt(spans, "server.job_run", "backend.run")
	res := result{attempted: base.attempted + traced.attempted, failed: base.attempted - base.ok + traced.attempted - traced.ok, err: base.firstErr}
	if res.err == nil {
		res.err = traced.firstErr
	}
	layerMetrics{probe: env.probe, spans: spans, delta: delta, wall: wall}.addCommon(&res)
	// The run directory, checkpoint and artifact writes happen inside
	// the daemon, out of reach of spans from here; their cost shows in
	// server.job_self_s and runstore.fsync_s.
	res.add("experiment.panel_s", 0, "s")
	res.add("runstore.append_s", 0, "s")
	res.add("runstore.create_s", 0, "s")
	res.add("runstore.artifact_s", 0, "s")

	kids := childrenOf(spans)
	var selfs []float64
	for _, s := range byName(spans, "server.job_run") {
		selfs = append(selfs, selfTime(s, kids[s.ID]).Seconds())
	}
	res.add("server.jobs", float64(traced.ok), "count")
	res.add("server.submit_s", median(durations(byName(spans, "server.submit"))), "s")
	res.add("server.queue_wait_s", median(durations(byName(spans, "server.queue_wait"))), "s")
	res.add("server.job_run_s", median(durations(byName(spans, "server.job_run"))), "s")
	res.add("server.job_self_s", median(selfs), "s")
	res.add("server.notify_s", median(durations(byName(spans, "server.notify"))), "s")
	res.add("server.fetch_s", median(durations(byName(spans, "server.fetch"))), "s")
	res.add("server.http_requests", delta.counter("qfarithd_http_requests_total"), "count")
	baseIPS := float64(base.ok*perJob) / baseWall.Seconds()
	res.add("trace.overhead_frac", 1-float64(traced.ok*perJob)/wall.Seconds()/baseIPS, "ratio")
	if err := o.writeSpans(t0, spans); err != nil {
		return result{}, err
	}
	return res, nil
}
