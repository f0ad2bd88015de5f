package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"qfarith/internal/backend"
	"qfarith/internal/runstore"
)

// Config configures a daemon Server.
type Config struct {
	// DataDir holds one runstore run directory per job. Created if
	// absent.
	DataDir string
	// Backend names the execution backend (default backend.DefaultName).
	Backend string
	// Workers bounds the shared simulation worker pool, like the CLI's
	// -workers; 0 = GOMAXPROCS.
	Workers int
	// Jobs is the number of jobs executing concurrently (default 1:
	// panels already parallelize across the worker pool, so concurrent
	// jobs trade per-job latency for queue throughput).
	Jobs int
	// MaxQueue caps queued jobs; submissions beyond it get HTTP 429
	// (default 64).
	MaxQueue int
	// MaxRetries bounds per-job re-queues on transient failures
	// (default 2).
	MaxRetries int
	// TelemetryMux, when set, is mounted on the API listener at /metrics
	// and /debug/ — one port serves both the job API and the debug
	// surface, which is how qfarithd avoids the API-vs-telemetry port
	// conflict. Leave nil when the debug server binds its own address.
	TelemetryMux http.Handler
}

// Server is the qfarithd HTTP API: job submission, status, SSE progress
// streams, artifact serving, and cancellation, backed by the fair-share
// Scheduler and the CLI-identical SweepExecutor.
type Server struct {
	cfg   Config
	sched *Scheduler
	exec  *SweepExecutor
	mux   *http.ServeMux

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string // submission order, for listing
	nextID int
}

// New builds a Server and starts its scheduler workers.
func New(cfg Config) (*Server, error) {
	if cfg.DataDir == "" {
		return nil, errors.New("server: Config.DataDir is required")
	}
	if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	if cfg.Backend == "" {
		cfg.Backend = backend.DefaultName
	}
	if cfg.Jobs < 1 {
		cfg.Jobs = 1
	}
	if cfg.MaxQueue < 1 {
		cfg.MaxQueue = 64
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 2
	}
	if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	}
	b, err := backend.New(cfg.Backend)
	if err != nil {
		return nil, err
	}
	runner := backend.NewRunner(b, cfg.Workers)
	s := &Server{
		cfg:  cfg,
		jobs: make(map[string]*Job),
		exec: &SweepExecutor{
			Runner: runner, DataDir: cfg.DataDir,
			Backend: cfg.Backend, Workers: cfg.Workers,
			GitDescribe: runstore.GitDescribe("."),
		},
	}
	s.nextID = nextJobNumber(cfg.DataDir)
	s.sched = NewScheduler(cfg.Jobs, cfg.MaxQueue, cfg.MaxRetries, s.exec.Execute)
	s.routes()
	return s, nil
}

// nextJobNumber scans the data directory for job-NNNNNN run dirs left
// by earlier daemon processes and continues the numbering after the
// highest, so a restarted daemon never collides with (or silently
// resumes) an old job's directory.
func nextJobNumber(dataDir string) int {
	entries, err := os.ReadDir(dataDir)
	if err != nil {
		return 1
	}
	next := 1
	for _, e := range entries {
		var n int
		if _, err := fmt.Sscanf(e.Name(), "job-%06d", &n); err == nil && n >= next {
			next = n + 1
		}
	}
	return next
}

// routes registers the API on a fresh mux using Go 1.22 method+wildcard
// patterns.
func (s *Server) routes() {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /api/v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /api/v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /api/v1/jobs/{id}/artifacts", s.handleArtifacts)
	mux.HandleFunc("GET /api/v1/jobs/{id}/artifacts/{name}", s.handleArtifact)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	if s.cfg.TelemetryMux != nil {
		mux.Handle("/metrics", s.cfg.TelemetryMux)
		mux.Handle("/debug/", s.cfg.TelemetryMux)
	}
	s.mux = mux
}

// ServeHTTP implements http.Handler, counting requests by registered
// route pattern (a closed label set) before dispatch.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// Handler only resolves the pattern for the metric label; dispatch
	// must go through the mux's own ServeHTTP, which is what binds the
	// {id}/{name} wildcards to r.PathValue.
	_, pattern := s.mux.Handler(r)
	if pattern == "" {
		pattern = "unmatched"
	}
	httpRequests(pattern).Inc()
	s.mux.ServeHTTP(w, r)
}

// Drain gracefully stops the scheduler: queued jobs are cancelled,
// running jobs interrupted with their checkpoints flushed. The HTTP
// listener stays usable throughout (status, events, artifacts), so
// clients can observe the drain; submissions get 503.
func (s *Server) Drain(ctx context.Context) error {
	return s.sched.Drain(ctx)
}

// job looks up a submitted job by ID.
func (s *Server) job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// writeJSON writes v as the response body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

// handleSubmit admits a new job: validate the request into a hashed
// SweepSpec, assign an ID, enqueue. 201 with the job status on success;
// 400 on a bad request, 429 at queue capacity, 503 while draining.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	spec, err := req.Spec(s.cfg.Backend)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	priority, err := req.priority()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	s.mu.Lock()
	id := fmt.Sprintf("job-%06d", s.nextID)
	s.nextID++
	j := newJob(id, req, spec, priority, time.Now())
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.mu.Unlock()

	if err := s.sched.Submit(j); err != nil {
		s.mu.Lock()
		delete(s.jobs, id)
		s.order = s.order[:len(s.order)-1]
		s.mu.Unlock()
		status := http.StatusServiceUnavailable
		if errors.Is(err, ErrQueueFull) {
			status = http.StatusTooManyRequests
		}
		writeError(w, status, "%v", err)
		return
	}
	w.Header().Set("Location", "/api/v1/jobs/"+id)
	writeJSON(w, http.StatusCreated, j.Status())
}

// handleList returns every known job in submission order, optionally
// filtered with ?state= and ?client=.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	stateFilter := r.URL.Query().Get("state")
	clientFilter := r.URL.Query().Get("client")
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	out := make([]JobStatus, 0, len(ids))
	for _, id := range ids {
		j, ok := s.job(id)
		if !ok {
			continue
		}
		st := j.Status()
		if stateFilter != "" && string(st.State) != stateFilter {
			continue
		}
		if clientFilter != "" && st.Client != clientFilter {
			continue
		}
		out = append(out, st)
	}
	writeJSON(w, http.StatusOK, out)
}

// handleStatus returns one job's status.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

// handleCancel cancels a queued or running job. 202 when the cancel was
// delivered, 409 when the job is already terminal.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	if j.State().terminal() {
		writeError(w, http.StatusConflict, "job already %s", j.State())
		return
	}
	if !s.sched.Cancel(j.ID) && !j.State().terminal() {
		// Not queued, not running, not terminal: the scheduler is
		// between states; report conflict and let the client retry.
		writeError(w, http.StatusConflict, "job is transitioning; retry")
		return
	}
	writeJSON(w, http.StatusAccepted, j.Status())
}

// handleEvents streams the job's lifecycle over SSE: an initial state
// event, progress per completed grid cell, and a final state event
// after which the server closes the stream.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	ch, closed := j.bc.subscribe()
	defer j.bc.unsubscribe(ch)
	// Always open with the current state so late subscribers need no
	// separate status poll.
	if err := writeEvent(w, fl, Event{Type: EventState, Data: j.Status()}); err != nil {
		return
	}
	if closed {
		return
	}
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				// Terminal: the broadcaster closed. Emit the final
				// status directly from the job — guaranteed delivery
				// regardless of buffer pressure — then end the stream.
				_ = writeEvent(w, fl, Event{Type: EventState, Data: j.Status()})
				return
			}
			if err := writeEvent(w, fl, ev); err != nil {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

// handleArtifacts lists the job's run directory.
func (s *Server) handleArtifacts(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	st := j.Status()
	if st.Dir == "" {
		writeJSON(w, http.StatusOK, []runstore.ArtifactInfo{})
		return
	}
	infos, err := runstore.ListArtifacts(st.Dir)
	if err != nil {
		if os.IsNotExist(err) {
			writeJSON(w, http.StatusOK, []runstore.ArtifactInfo{})
			return
		}
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	sort.Slice(infos, func(i, k int) bool { return infos[i].Name < infos[k].Name })
	writeJSON(w, http.StatusOK, infos)
}

// handleArtifact serves one file out of the job's run directory.
// Artifact names are validated by runstore.OpenArtifact, so traversal
// attempts get 400, not filesystem access.
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	st := j.Status()
	if st.Dir == "" {
		writeError(w, http.StatusNotFound, "job has no run directory yet")
		return
	}
	f, err := runstore.OpenArtifact(st.Dir, r.PathValue("name"))
	if err != nil {
		switch {
		case errors.Is(err, runstore.ErrBadArtifactName):
			writeError(w, http.StatusBadRequest, "%v", err)
		case os.IsNotExist(err):
			writeError(w, http.StatusNotFound, "no such artifact")
		default:
			writeError(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	http.ServeContent(w, r, fi.Name(), fi.ModTime(), f)
}

// handleHealth reports readiness: 200 while accepting jobs, 503 once
// draining (load balancers and the e2e harness key off this).
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	if s.sched.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
