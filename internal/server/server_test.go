package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"qfarith/internal/compile"
	"qfarith/internal/experiment"
	"qfarith/internal/runstore"
	"qfarith/internal/telemetry"
)

// newTestServer builds a Server on a temp data dir wrapped in an
// httptest listener.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	return s, ts
}

// submitJob POSTs a request and decodes the created job status.
func submitJob(t *testing.T, ts *httptest.Server, req JobRequest) JobStatus {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: status %d: %s", resp.StatusCode, msg)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// getStatus fetches one job's status.
func getStatus(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitTerminal polls until the job reaches a terminal state.
func waitTerminal(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, ts, id)
		if st.State.terminal() {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return JobStatus{}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	Type string
	Data string
}

// readSSE consumes a job's event stream until the server closes it.
// subscribed, when non-nil, is closed once the handler has registered
// the subscription (signalled by the guaranteed opening state event).
func readSSE(t *testing.T, ts *httptest.Server, id string, subscribed chan<- struct{}) []sseEvent {
	t.Helper()
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + id + "/events")
	if err != nil {
		t.Errorf("events: %v", err)
		return nil
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("events content type %q", ct)
		return nil
	}
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.Type = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.Data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.Type != "" {
				events = append(events, cur)
				if subscribed != nil {
					close(subscribed)
					subscribed = nil
				}
			}
			cur = sseEvent{}
		}
	}
	return events
}

// quickAddRequest is a small but real fig3 job: one panel, one rate,
// all five depth columns.
func quickAddRequest(seed uint64) JobRequest {
	return JobRequest{
		Command: "fig3", Budget: "quick",
		Instances: 1, Shots: 32, Trajectories: 1,
		Seed: seed, Axis: "2q", Orders: "1:1",
		RatesPct: []float64{0.5},
	}
}

// TestServerJobByteIdentity is the core daemon invariant at the Go
// level: a job submitted over HTTP must produce a CSV artifact
// byte-identical to the same sweep computed directly through the
// experiment layer and written with runstore.WriteArtifact — i.e. the
// daemon adds scheduling, not physics. The CI daemon-e2e job checks the
// same property against the real CLI binary.
func TestServerJobByteIdentity(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := quickAddRequest(777)

	// Gate execution behind the SSE subscription so the stream
	// observes the complete lifecycle deterministically: drain the
	// stock scheduler and wire one whose executor waits for the test.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.sched.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	s.sched = NewScheduler(1, 64, 0, func(ctx context.Context, j *Job) error {
		<-gate
		return s.exec.Execute(ctx, j)
	})
	defer s.sched.Drain(context.Background())

	st := submitJob(t, ts, req)
	if st.State != StateQueued && st.State != StateRunning {
		t.Fatalf("fresh job state %s", st.State)
	}
	streamed := make(chan []sseEvent, 1)
	subscribed := make(chan struct{})
	go func() {
		streamed <- readSSE(t, ts, st.ID, subscribed) // runs until the server closes the stream
	}()
	<-subscribed
	close(gate)
	events := <-streamed
	final := waitTerminal(t, ts, st.ID)
	if final.State != StateDone {
		t.Fatalf("job finished %s (%s), want done", final.State, final.Error)
	}
	if final.Done != final.Total || final.Total != 5 {
		t.Errorf("progress counters done=%d total=%d, want 5/5", final.Done, final.Total)
	}

	// The SSE stream saw the full lifecycle: states in order, progress
	// for every cell, and a terminal state event last.
	var states []string
	progress := 0
	for _, ev := range events {
		switch ev.Type {
		case EventState:
			var js JobStatus
			if err := json.Unmarshal([]byte(ev.Data), &js); err != nil {
				t.Fatalf("bad state event %q: %v", ev.Data, err)
			}
			states = append(states, string(js.State))
		case EventProgress:
			var pe ProgressEvent
			if err := json.Unmarshal([]byte(ev.Data), &pe); err != nil {
				t.Fatalf("bad progress event %q: %v", ev.Data, err)
			}
			if pe.Total != 5 || pe.Panel != "fig3_2q_11" {
				t.Errorf("progress event %+v", pe)
			}
			progress++
		}
	}
	if len(states) < 2 || states[len(states)-1] != string(StateDone) {
		t.Errorf("state sequence %v, want ...done last", states)
	}
	if progress != 5 {
		t.Errorf("saw %d progress events, want 5", progress)
	}

	// Fetch the artifact over HTTP.
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + st.ID + "/artifacts/fig3_2q_11.csv")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("artifact fetch: %d %s", resp.StatusCode, got)
	}

	// Compute the same panel directly and write it the way the CLI
	// does.
	spec, err := req.Spec(s.cfg.Backend)
	if err != nil {
		t.Fatal(err)
	}
	panels, _ := spec.Panels(compile.Config{}, 0)
	if len(panels) != 1 {
		t.Fatalf("expected 1 panel, got %d", len(panels))
	}
	res, err := experiment.RunPanel(context.Background(), s.exec.Runner, panels[0].Config, experiment.PanelOptions{Label: panels[0].Label})
	if err != nil {
		t.Fatal(err)
	}
	ref := filepath.Join(t.TempDir(), "ref.csv")
	if err := runstore.WriteArtifact(ref, []byte(res.CSV())); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("daemon artifact differs from direct computation:\n got %d bytes\nwant %d bytes", len(got), len(want))
	}

	// The artifact listing shows the CSV as checksum-verified.
	resp, err = http.Get(ts.URL + "/api/v1/jobs/" + st.ID + "/artifacts")
	if err != nil {
		t.Fatal(err)
	}
	var infos []runstore.ArtifactInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	found := false
	var names []string
	for _, ai := range infos {
		names = append(names, ai.Name)
		if ai.Name == "fig3_2q_11.csv" {
			found = ai.Verified
		}
	}
	if !found {
		t.Errorf("artifact listing missing verified fig3_2q_11.csv: %+v", infos)
	}
	// The job directory is the run and nothing else: no leftover temp
	// files, and no telemetry.json, since the registry is the daemon's.
	if want := []string{"fig3_2q_11.csv", "keys.json", "manifest.json", "points.jsonl", "spec.json"}; !slices.Equal(names, want) {
		t.Errorf("job directory holds %v, want %v", names, want)
	}

	// The manifest still records the tree the daemon started from,
	// resolved once by New rather than per job.
	raw, err := os.ReadFile(filepath.Join(s.cfg.DataDir, st.ID, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var man runstore.Manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	if want := runstore.GitDescribe("."); s.exec.GitDescribe != want || man.GitDescribe != want {
		t.Errorf("manifest git_describe %q, executor %q, want %q", man.GitDescribe, s.exec.GitDescribe, want)
	}

	// A finished job keeps its status but not its sweep grid.
	if j, ok := s.job(st.ID); !ok || j.sweep() != nil {
		t.Errorf("finished job still holds its sweep spec")
	} else if js := j.Status(); js.Command != "fig3" || js.Seed != 777 {
		t.Errorf("finished job status %+v lost its command or seed", js)
	}
}

// TestServerClaim2QJobMatchesRunSweep: the daemon admits claim-2q, a
// fixed-grid sweep, and its job writes both panel CSVs byte-identical
// to the ones experiment.RunSweep writes for the same spec.
func TestServerClaim2QJobMatchesRunSweep(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := JobRequest{Command: "claim-2q", Budget: "quick", Instances: 2, Shots: 64, Trajectories: 2, Seed: 777}
	st := submitJob(t, ts, req)
	if final := waitTerminal(t, ts, st.ID); final.State != StateDone {
		t.Fatalf("claim-2q job finished %s (%s), want done", final.State, final.Error)
	}
	spec, err := req.Spec(s.cfg.Backend)
	if err != nil {
		t.Fatal(err)
	}
	ref := t.TempDir()
	if _, err := experiment.RunSweep(context.Background(), s.exec.Runner, spec, experiment.SweepOptions{OutDir: ref}); err != nil {
		t.Fatal(err)
	}
	panels, _ := spec.Panels(compile.Config{}, 0)
	if len(panels) != 2 {
		t.Fatalf("claim-2q enumerates %d panels, want 2", len(panels))
	}
	for _, pj := range panels {
		name := pj.Label + ".csv"
		got, err := os.ReadFile(filepath.Join(s.cfg.DataDir, st.ID, name))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(ref, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("job %s differs from RunSweep's:\n got %s\nwant %s", name, got, want)
		}
	}
}

// TestServerCancelMidJob cancels a running job and checks it finalizes
// as cancelled with a resumable run directory: the checkpoint log holds
// every point completed before the cancel, and the config hash still
// matches (the CLI could pick it up with -resume).
func TestServerCancelMidJob(t *testing.T) {
	// A single runner slot serializes the 30 grid points, so a cancel
	// issued after the first progress event reliably lands mid-job.
	s, ts := newTestServer(t, Config{Workers: 1})
	req := JobRequest{
		Command: "fig3", Budget: "quick",
		Instances: 4, Shots: 128, Trajectories: 2,
		Seed: 778, Axis: "2q", Orders: "1:1",
		RatesPct: []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5}, // 30 cells
	}
	st := submitJob(t, ts, req)

	// Follow SSE until the first fresh progress event, then cancel.
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	sawProgress := false
	for sc.Scan() && !sawProgress {
		sawProgress = strings.HasPrefix(sc.Text(), "event: progress")
	}
	resp.Body.Close()
	if !sawProgress {
		t.Fatal("stream ended before any progress")
	}

	delReq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/jobs/"+st.ID, nil)
	delResp, err := http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close()
	if delResp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel status %d", delResp.StatusCode)
	}

	final := waitTerminal(t, ts, st.ID)
	if final.State != StateCancelled {
		t.Fatalf("state after cancel = %s, want cancelled", final.State)
	}
	if final.Dir == "" {
		t.Fatal("cancelled job has no run directory")
	}

	// The run directory must be resumable at the same config hash, with
	// the pre-cancel points in its checkpoint log.
	spec, err := req.Spec(s.cfg.Backend)
	if err != nil {
		t.Fatal(err)
	}
	hash, err := runstore.HashConfig(spec)
	if err != nil {
		t.Fatal(err)
	}
	run, err := runstore.Resume(final.Dir, hash)
	if err != nil {
		t.Fatalf("cancelled run dir not resumable: %v", err)
	}
	restored := run.Restored()
	run.Close()
	if restored < 1 {
		t.Fatal("no checkpointed points survived the cancel")
	}
	if restored >= 30 {
		t.Fatalf("restored %d of 30 points; cancel did not land mid-job", restored)
	}
	t.Logf("cancel landed after %d/30 points", restored)
}

// TestServerValidation covers the API's client-error paths.
func TestServerValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post := func(body string) int {
		resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, c := range []struct {
		body string
		want int
	}{
		{`{"command":"fig9"}`, http.StatusBadRequest},
		{`{"command":"fig3","budget":"epic"}`, http.StatusBadRequest},
		{`{"command":"fig3","axis":"3q"}`, http.StatusBadRequest},
		{`{"command":"fig3","orders":"1-2"}`, http.StatusBadRequest},
		{`{"command":"fig3","rates_pct":[120]}`, http.StatusBadRequest},
		{`{"command":"fig3","scorers":["nope"]}`, http.StatusBadRequest},
		{`{"command":"fig3","priority":12}`, http.StatusBadRequest},
		{`{"command":"fig3","unknown_field":1}`, http.StatusBadRequest},
		{`not json`, http.StatusBadRequest},
	} {
		if got := post(c.body); got != c.want {
			t.Errorf("POST %s = %d, want %d", c.body, got, c.want)
		}
	}

	for _, url := range []string{
		"/api/v1/jobs/job-999999",
		"/api/v1/jobs/job-999999/events",
		"/api/v1/jobs/job-999999/artifacts",
		"/api/v1/jobs/job-999999/artifacts/x.csv",
	} {
		resp, err := http.Get(ts.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", url, resp.StatusCode)
		}
	}
}

// TestServerArtifactTraversal checks path-escape attempts are client
// errors, not file reads.
func TestServerArtifactTraversal(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	st := submitJob(t, ts, quickAddRequest(779))
	waitTerminal(t, ts, st.ID)

	for _, name := range []string{"..%2F..%2Fetc%2Fpasswd", "..%5Cmanifest.json", "%2e%2e"} {
		resp, err := http.Get(ts.URL + "/api/v1/jobs/" + st.ID + "/artifacts/" + name)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("artifact %q = %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestServerAdmissionHTTP checks queue capacity surfaces as 429 and
// draining as 503.
func TestServerAdmissionHTTP(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxQueue: 1})
	// Swap in a scheduler whose executor blocks, so admission state is
	// fully controlled by the test.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.sched.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	s.sched = NewScheduler(1, 1, 0, func(ctx context.Context, j *Job) error {
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
	defer s.sched.Drain(context.Background())
	defer close(release)

	st1 := submitJob(t, ts, quickAddRequest(1)) // occupies the worker
	deadline := time.Now().Add(5 * time.Second)
	for getStatus(t, ts, st1.ID).State != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	submitJob(t, ts, quickAddRequest(2)) // fills the queue

	body, _ := json.Marshal(quickAddRequest(3))
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit at capacity = %d, want 429", resp.StatusCode)
	}

	// Drain: health flips to 503 and submissions are refused with 503.
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	hResp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hResp.Body.Close()
	if hResp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining = %d, want 503", hResp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining = %d, want 503", resp.StatusCode)
	}
}

// TestServerConcurrentRefusals: when concurrent submissions overflow
// the queue, the job list holds exactly the admitted jobs — a refusal
// never removes another submission's entry.
func TestServerConcurrentRefusals(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.sched.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	s.sched = NewScheduler(1, 2, 0, func(ctx context.Context, j *Job) error {
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
	defer s.sched.Drain(context.Background())
	defer close(release)

	const n = 16
	ids := make(chan string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			body, _ := json.Marshal(quickAddRequest(seed))
			resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusCreated:
				var st JobStatus
				if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
					t.Error(err)
					return
				}
				ids <- st.ID
			case http.StatusTooManyRequests:
			default:
				t.Errorf("submit = %d, want 201 or 429", resp.StatusCode)
			}
		}(uint64(i + 1))
	}
	wg.Wait()
	close(ids)
	var admitted []string
	for id := range ids {
		admitted = append(admitted, id)
	}
	if len(admitted) == 0 || len(admitted) == n {
		t.Fatalf("%d of %d submissions admitted, want some refused", len(admitted), n)
	}

	resp, err := http.Get(ts.URL + "/api/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []JobStatus
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, st := range list {
		listed = append(listed, st.ID)
	}
	slices.Sort(admitted)
	if !slices.Equal(listed, admitted) {
		t.Errorf("job list %v, want the admitted jobs %v", listed, admitted)
	}
}

// TestServerSharedTelemetryMux is the port-conflict regression test:
// with TelemetryMux set, one listener serves the job API, /metrics and
// /debug/vars together — no second port to collide with.
func TestServerSharedTelemetryMux(t *testing.T) {
	_, ts := newTestServer(t, Config{TelemetryMux: telemetry.NewMux(nil)})

	for path, wantBody := range map[string]string{
		"/metrics":     "qfarithd_sched_running",
		"/debug/vars":  "{",
		"/api/v1/jobs": "[",
		"/healthz":     "ok",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d", path, resp.StatusCode)
		}
		if !strings.Contains(string(body), wantBody) {
			t.Errorf("GET %s missing %q in body", path, wantBody)
		}
	}
}

// TestServerSeparateTelemetry checks the documented two-port mode: the
// API omits the debug surface while a standalone telemetry server
// carries it, and both listeners coexist.
func TestServerSeparateTelemetry(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	debug, err := telemetry.Serve("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer debug.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("API /metrics without shared mux = %d, want 404", resp.StatusCode)
	}
	resp, err = http.Get(fmt.Sprintf("http://%s/metrics", debug.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("standalone /metrics = %d, want 200", resp.StatusCode)
	}
}

// TestServerRestartNumbering checks a restarted daemon continues job
// numbering past directories left by its predecessor instead of
// colliding with them.
func TestServerRestartNumbering(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "job-000007"), 0o755); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{DataDir: dir})
	st := submitJob(t, ts, quickAddRequest(780))
	if st.ID != "job-000008" {
		t.Fatalf("job ID after restart = %s, want job-000008", st.ID)
	}
}

// TestServerPermanentIOErrorNotRetried checks that a storage error no
// retry can clear fails the job on its first attempt: a regular file at
// the job's run-directory path makes every attempt fail with ENOTDIR.
func TestServerPermanentIOErrorNotRetried(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{DataDir: dir, MaxRetries: 2})
	if err := os.WriteFile(filepath.Join(dir, "job-000001"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	st := submitJob(t, ts, quickAddRequest(781))
	if st.ID != "job-000001" {
		t.Fatalf("job ID = %s, want job-000001", st.ID)
	}
	st = waitTerminal(t, ts, st.ID)
	if st.State != StateFailed || st.Retries != 0 {
		t.Fatalf("job ended %s after %d retries (%s), want failed after 0", st.State, st.Retries, st.Error)
	}
	if !strings.Contains(st.Error, "not a directory") {
		t.Errorf("error %q does not name ENOTDIR", st.Error)
	}
}

// TestRetryableClassifiesStorageErrors pins which storage failures the
// executor re-queues.
func TestRetryableClassifiesStorageErrors(t *testing.T) {
	wrap := func(errno syscall.Errno) error {
		return fmt.Errorf("panel x: %w", &fs.PathError{Op: "write", Path: "p", Err: errno})
	}
	for _, c := range []struct {
		err       error
		transient bool
	}{
		{wrap(syscall.ENOSPC), false},
		{wrap(syscall.EDQUOT), false},
		{wrap(syscall.EROFS), false},
		{wrap(syscall.EIO), false},
		{wrap(syscall.ENOTDIR), false},
		{wrap(syscall.EACCES), false},
		{wrap(syscall.EPERM), false},
		{wrap(syscall.EAGAIN), true},
		{errors.New("runstore: corrupt checkpoint log"), true},
	} {
		if got := IsTransient(retryable(c.err)); got != c.transient {
			t.Errorf("%v: transient = %v, want %v", c.err, got, c.transient)
		}
	}
}
