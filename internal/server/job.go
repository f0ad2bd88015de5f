// Package server is the qfarithd daemon's service layer: an HTTP/JSON
// API for submitting sweeps as jobs, a priority scheduler with
// per-client fairness, admission control and bounded retry, SSE
// progress streaming, and run-directory artifact serving.
//
// Jobs execute through the unchanged backend/experiment/runstore
// machinery into ordinary run directories: a job's manifest hashes the
// same experiment.SweepSpec the CLI hashes, so a daemon-created run can
// be resumed by `qfarith <command> ... -rundir DIR -resume`, and a job
// submitted at a fixed seed produces CSVs byte-identical to the same
// sweep run from the command line (the daemon-e2e CI job enforces
// this).
package server

import (
	"fmt"
	"sync"
	"time"

	"qfarith/internal/experiment"
)

// JobState is a job's lifecycle phase.
type JobState string

const (
	// StateQueued: admitted, waiting for a scheduler worker.
	StateQueued JobState = "queued"
	// StateRunning: executing on a worker.
	StateRunning JobState = "running"
	// StateDone: completed; artifacts are final.
	StateDone JobState = "done"
	// StateFailed: returned a non-retryable error (or exhausted retries).
	StateFailed JobState = "failed"
	// StateCancelled: cancelled by the client, queued or mid-run.
	StateCancelled JobState = "cancelled"
	// StateInterrupted: cut short by daemon drain (SIGTERM); the run
	// directory holds flushed checkpoints and resumes via the CLI or by
	// resubmitting the identical request.
	StateInterrupted JobState = "interrupted"
)

// terminal reports whether a state is final.
func (s JobState) terminal() bool {
	switch s {
	case StateDone, StateFailed, StateCancelled, StateInterrupted:
		return true
	}
	return false
}

// Priority bounds. Higher runs sooner; 0 in a request selects
// DefaultPriority (so an omitted JSON field gets the default).
const (
	MinPriority     = 1
	MaxPriority     = 9
	DefaultPriority = 5
)

// JobRequest is the submit payload of POST /api/v1/jobs. Zero-valued
// fields take the CLI's defaults, so a request carrying only {"command":
// "fig3"} is the daemon rendition of `qfarith fig3`. There is no field
// for scaling's widths or ablate-routing's p2: such jobs run the CLI
// defaults.
type JobRequest struct {
	// Command is any sweep command the CLI runs through
	// experiment.RunSweep (experiment.SweepCommands): the figures,
	// claim-2q, scaling, ablate-routing or ablate-addcut. Fields a
	// command does not take are refused, and the ones it fixes keep the
	// CLI defaults.
	Command string `json:"command"`
	// Budget is quick|standard|full (default standard), overridable
	// field by field below, exactly like the CLI flags.
	Budget       string `json:"budget,omitempty"`
	Instances    int    `json:"instances,omitempty"`
	Shots        int    `json:"shots,omitempty"`
	Trajectories int    `json:"trajectories,omitempty"`
	// Seed is the base RNG seed; 0 selects the CLI's default seed so
	// unadorned requests and unadorned CLI runs agree. scaling and
	// ablate-routing seed their points with fixed constants.
	Seed uint64 `json:"seed,omitempty"`
	// Axis is 1q|2q|both (default both).
	Axis string `json:"axis,omitempty"`
	// Orders is the comma-separated operand-order list (default
	// "1:1,1:2,2:2").
	Orders string `json:"orders,omitempty"`
	// RatesPct overrides both error-rate grids, in percent (the CLI's
	// -rates). Empty keeps the paper grids.
	RatesPct []float64 `json:"rates_pct,omitempty"`
	// Scorers names additional success metrics (the CLI's -scorers).
	Scorers []string `json:"scorers,omitempty"`
	// Priority is 1 (lowest) to 9; 0 selects DefaultPriority.
	Priority int `json:"priority,omitempty"`
	// Client is the fairness identity the scheduler balances across;
	// empty selects "anonymous".
	Client string `json:"client,omitempty"`
}

// defaultSeed mirrors the CLI's -seed default so an unseeded job and an
// unseeded CLI run of the same command hash identically.
const defaultSeed = 20260704

// Spec validates the request into the sweep's hashed identity — the
// exact struct the CLI hashes, through the same validator
// (experiment.SweepRequest.Spec), with the daemon's backend name filled
// in. Every validation failure is a client error (HTTP 400).
func (r JobRequest) Spec(backendName string) (experiment.SweepSpec, error) {
	seed := r.Seed
	if seed == 0 {
		seed = defaultSeed
	}
	return experiment.SweepRequest{
		Command: r.Command, Budget: r.Budget,
		Instances: r.Instances, Shots: r.Shots, Trajectories: r.Trajectories,
		Seed: seed, Axis: r.Axis, Orders: r.Orders,
		RatesPct: r.RatesPct, Scorers: r.Scorers,
		Backend: backendName,
	}.Spec()
}

// priority resolves the request's effective priority.
func (r JobRequest) priority() (int, error) {
	if r.Priority == 0 {
		return DefaultPriority, nil
	}
	if r.Priority < MinPriority || r.Priority > MaxPriority {
		return 0, fmt.Errorf("priority %d out of range [%d, %d]", r.Priority, MinPriority, MaxPriority)
	}
	return r.Priority, nil
}

// Job is one submitted sweep moving through the scheduler. All mutable
// fields are guarded by mu; the immutable identity fields are set at
// admission and read freely.
type Job struct {
	ID       string
	Client   string
	Priority int
	// Command and Seed identify the sweep in status reports.
	Command string
	Seed    uint64

	mu sync.Mutex
	// spec is the sweep the job runs. It is dropped once the job is
	// terminal, so a long-lived daemon keeps a finished job's status,
	// not its sweep grid.
	spec      *experiment.SweepSpec
	state     JobState
	errMsg    string
	dir       string
	retries   int
	done      int
	fresh     int
	restored  int
	total     int
	submitted time.Time
	started   time.Time
	finished  time.Time

	// Scheduler bookkeeping: FIFO tiebreak, retry attempt count, the
	// running job's context cancel, and whether the client (rather than
	// a drain) asked for cancellation.
	seq           uint64
	attempts      int
	cancelRunning func()
	userCancelled bool

	bc *broadcaster
}

// newJob builds an admitted job in the queued state.
func newJob(id string, req JobRequest, spec experiment.SweepSpec, priority int, now time.Time) *Job {
	client := req.Client
	if client == "" {
		client = "anonymous"
	}
	return &Job{
		ID: id, Client: client, Priority: priority,
		Command: spec.Command, Seed: spec.Seed, spec: &spec,
		state: StateQueued, submitted: now,
		bc: newBroadcaster(),
	}
}

// JobStatus is the API's serialized view of a job.
type JobStatus struct {
	ID       string   `json:"id"`
	Client   string   `json:"client"`
	Priority int      `json:"priority"`
	Command  string   `json:"command"`
	Seed     uint64   `json:"seed"`
	State    JobState `json:"state"`
	Error    string   `json:"error,omitempty"`
	// Dir is the job's run directory — an ordinary runstore run dir,
	// resumable with the CLI's -rundir/-resume.
	Dir     string `json:"dir,omitempty"`
	Retries int    `json:"retries"`
	// Done = Fresh + Restored of Total grid points.
	Done      int       `json:"done"`
	Fresh     int       `json:"fresh"`
	Restored  int       `json:"restored"`
	Total     int       `json:"total"`
	Submitted time.Time `json:"submitted_at"`
	Started   time.Time `json:"started_at"`
	Finished  time.Time `json:"finished_at"`
}

// Status snapshots the job.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID: j.ID, Client: j.Client, Priority: j.Priority,
		Command: j.Command, Seed: j.Seed,
		State: j.state, Error: j.errMsg, Dir: j.dir, Retries: j.retries,
		Done: j.done, Fresh: j.fresh, Restored: j.restored, Total: j.total,
		Submitted: j.submitted, Started: j.started, Finished: j.finished,
	}
}

// State returns the job's current state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// setState transitions the job and broadcasts the new status to SSE
// subscribers; terminal states close the event stream.
func (j *Job) setState(state JobState, errMsg string) {
	j.mu.Lock()
	j.state = state
	j.errMsg = errMsg
	switch state {
	case StateRunning:
		if j.started.IsZero() {
			j.started = time.Now()
		}
	case StateDone, StateFailed, StateCancelled, StateInterrupted:
		j.finished = time.Now()
		j.spec = nil
	}
	j.mu.Unlock()
	j.bc.send(Event{Type: EventState, Data: j.Status()})
	if state.terminal() {
		j.bc.close()
	}
}

// sweep returns the job's sweep spec, or nil once the job is terminal.
func (j *Job) sweep() *experiment.SweepSpec {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.spec
}

// setDir records the job's run directory once the executor created it.
func (j *Job) setDir(dir string) {
	j.mu.Lock()
	j.dir = dir
	j.mu.Unlock()
}

// resetProgress arms the job-level progress counters for one execution
// attempt (a retry re-counts checkpoint-restored cells).
func (j *Job) resetProgress(total int) {
	j.mu.Lock()
	j.total = total
	j.done, j.fresh, j.restored = 0, 0, 0
	j.mu.Unlock()
}

// observe records one sweep progress report in the job-level counters
// and streams it to SSE subscribers. It must not block: progress
// callbacks run under the panel's bookkeeping lock.
func (j *Job) observe(sp experiment.SweepProgress) {
	p := sp.Cell
	ev := ProgressEvent{
		Panel: sp.Panel,
		Done:  sp.Done, Fresh: sp.Fresh, Restored: sp.Restored, Total: sp.Total,
		PanelDone: p.Done, PanelTotal: p.Total,
		RatePct:        p.Point.Config.SweptRate() * 100,
		Depth:          experiment.DepthLabel(p.Point.Config.Depth, 8),
		SuccessPct:     p.Point.Stats.SuccessRate,
		FromCheckpoint: p.FromCheckpoint,
	}
	j.mu.Lock()
	j.done, j.fresh, j.restored, j.total = sp.Done, sp.Fresh, sp.Restored, sp.Total
	j.mu.Unlock()
	j.bc.send(Event{Type: EventProgress, Data: ev})
}

// ProgressEvent is one completed grid cell as streamed over SSE: the
// job-level counters plus the panel-local coordinates of the cell.
type ProgressEvent struct {
	Panel          string  `json:"panel"`
	Done           int     `json:"done"`
	Fresh          int     `json:"fresh"`
	Restored       int     `json:"restored"`
	Total          int     `json:"total"`
	PanelDone      int     `json:"panel_done"`
	PanelTotal     int     `json:"panel_total"`
	RatePct        float64 `json:"rate_pct"`
	Depth          string  `json:"depth"`
	SuccessPct     float64 `json:"success_pct"`
	FromCheckpoint bool    `json:"from_checkpoint,omitempty"`
}
