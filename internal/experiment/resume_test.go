package experiment_test

import (
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"sync"
	"testing"

	"qfarith/internal/backend"
	"qfarith/internal/experiment"
	"qfarith/internal/noise"
	"qfarith/internal/runstore"
	"qfarith/internal/transpile"
)

func newTrajRunner(workers int) *backend.Runner {
	return backend.NewRunner(backend.NewTrajectoryBackend(), workers)
}

// gateBackend runs the instances of the first `open` distinct points it
// sees — a point is keyed by its circuit and noise model — and holds
// every other instance until ctx is cancelled. A sweep through it stops
// after exactly `open` completed points however fast the engine is,
// provided the runner has a slot for every instance of the panel (a
// held instance keeps its slot).
type gateBackend struct {
	backend.Backend
	open int

	mu     sync.Mutex
	points map[gateKey]bool
}

type gateKey struct {
	circuit *transpile.Result
	model   noise.Model
}

func (g *gateBackend) Run(ctx context.Context, spec backend.PointSpec) (backend.Distribution, backend.Diagnostics, error) {
	key := gateKey{spec.Circuit, spec.Model}
	g.mu.Lock()
	if !g.points[key] && len(g.points) < g.open {
		g.points[key] = true
	}
	admitted := g.points[key]
	g.mu.Unlock()
	if !admitted {
		<-ctx.Done()
		return nil, backend.Diagnostics{}, ctx.Err()
	}
	return g.Backend.Run(ctx, spec)
}

// TestPanelResumeMatchesUninterrupted is the durable-run acceptance
// test: cancel a checkpointed panel after N completed points (the
// in-process analogue of SIGINT/kill), resume from the run directory,
// and require the merged CSV to be byte-identical to an uninterrupted
// fixed-seed run. The interrupted attempt runs behind a gateBackend, so
// the cancel always lands with points still outstanding.
func TestPanelResumeMatchesUninterrupted(t *testing.T) {
	pc := smallSweepPanel()
	const panel = "fig3_test"

	// Reference: uninterrupted run, no checkpointing.
	ref, err := experiment.RunPanel(context.Background(), newTrajRunner(2), pc, experiment.PanelOptions{})
	if err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join(t.TempDir(), "run")
	hash, err := runstore.HashConfig(pc)
	if err != nil {
		t.Fatal(err)
	}
	run, err := runstore.Create(dir, runstore.Manifest{Command: "test", ConfigHash: hash})
	if err != nil {
		t.Fatal(err)
	}

	// First attempt: only 2 points may run; cancel once both have been
	// checkpointed.
	total := len(pc.Rates) * len(pc.Depths)
	gate := &gateBackend{Backend: backend.NewTrajectoryBackend(), open: 2, points: map[gateKey]bool{}}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err = experiment.RunPanel(ctx, backend.NewRunner(gate, total*pc.Budget.Instances), pc, experiment.PanelOptions{Label: panel, Checkpoint: run, Progress: func(p experiment.Progress) {
		if p.Done >= 2 {
			cancel()
		}
	}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
	}
	run.Close()

	// Resume: hash-verified reopen must restore the checkpointed points
	// and run only the remainder.
	resumed, err := runstore.Resume(dir, hash)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	restored := resumed.Restored()
	if restored < 2 {
		t.Fatalf("only %d points survived the interrupt, want >= 2", restored)
	}
	if restored >= total {
		t.Fatalf("all %d points checkpointed — the interrupt landed too late to test resume", total)
	}

	fresh, fromCkpt := 0, 0
	res, err := experiment.RunPanel(context.Background(), newTrajRunner(2), pc, experiment.PanelOptions{Label: panel, Checkpoint: resumed, Progress: func(p experiment.Progress) {
		if p.FromCheckpoint {
			fromCkpt++
		} else {
			fresh++
		}
		if p.Done != p.Fresh+p.Restored {
			t.Errorf("Done = %d, want Fresh+Restored = %d", p.Done, p.Fresh+p.Restored)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if fresh != total-restored {
		t.Errorf("resume re-ran %d points, want %d (restored %d of %d)", fresh, total-restored, restored, total)
	}
	if fromCkpt != restored {
		t.Errorf("restored callbacks = %d, want %d", fromCkpt, restored)
	}
	if got, want := res.CSV(), ref.CSV(); got != want {
		t.Errorf("resumed CSV differs from uninterrupted run:\n--- resumed ---\n%s--- uninterrupted ---\n%s", got, want)
	}
}

// TestPanelCheckpointFullRerunIsFree: resuming a fully checkpointed run
// simulates nothing and still reproduces the CSV exactly.
func TestPanelCheckpointFullRerunIsFree(t *testing.T) {
	pc := smallSweepPanel()
	dir := filepath.Join(t.TempDir(), "run")
	run, err := runstore.Create(dir, runstore.Manifest{Command: "test"})
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()

	first, err := experiment.RunPanel(context.Background(), newTrajRunner(4), pc, experiment.PanelOptions{Label: "p", Checkpoint: run})
	if err != nil {
		t.Fatal(err)
	}
	freshCalls, restoredCalls := 0, 0
	second, err := experiment.RunPanel(context.Background(), newTrajRunner(4), pc, experiment.PanelOptions{Label: "p", Checkpoint: run, Progress: func(p experiment.Progress) {
		if p.FromCheckpoint {
			restoredCalls++
		} else {
			freshCalls++
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if freshCalls != 0 {
		t.Errorf("full rerun simulated %d points, want 0", freshCalls)
	}
	if total := len(pc.Rates) * len(pc.Depths); restoredCalls != total {
		t.Errorf("restored callbacks = %d, want %d", restoredCalls, total)
	}
	if first.CSV() != second.CSV() {
		t.Error("restored-only panel CSV differs from computed panel CSV")
	}
}

// failStore is a CheckpointStore whose appends always fail, for
// failure-injection tests.
type failStore struct{ err error }

func (f *failStore) LookupPoint(string) (json.RawMessage, bool) { return nil, false }
func (f *failStore) AppendPoint(key string, payload any) error  { return f.err }

// TestPanelCheckpointAppendFailureSurfaces: a checkpoint write error
// must abort the sweep — silently continuing would let a "durable" run
// lose points.
func TestPanelCheckpointAppendFailureSurfaces(t *testing.T) {
	pc := smallSweepPanel()
	wantErr := errors.New("disk full")
	_, err := experiment.RunPanel(context.Background(), newTrajRunner(2), pc, experiment.PanelOptions{Label: "p", Checkpoint: &failStore{err: wantErr}})
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want the injected append failure", err)
	}
}
