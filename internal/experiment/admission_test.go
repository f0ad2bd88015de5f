package experiment_test

import (
	"context"
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"qfarith/internal/backend"
	"qfarith/internal/experiment"
	"qfarith/internal/noise"
	"qfarith/internal/qft"
	"qfarith/internal/runstore"
)

// admissionPanel is a one-depth panel of `cells` distinct error rates,
// so a spec's noise model names its grid cell.
func admissionPanel(cells int) experiment.PanelConfig {
	rates := make([]float64, cells)
	for i := range rates {
		rates[i] = float64(i) * 0.001
	}
	return experiment.PanelConfig{
		Geometry: experiment.AddGeometry(2, 3),
		Axis:     experiment.Axis2Q,
		OrderX:   1, OrderY: 1,
		Rates:  rates,
		Depths: []int{qft.Full},
		Budget: experiment.Budget{Instances: 4, Shots: 64, Trajectories: 2},
		Seed:   20261017,
	}
}

// traceBackend records when each grid cell's instances start and
// return.
type traceBackend struct {
	backend.Backend
	cells     map[noise.Model]int
	instances int
	// afterInstance, when set, runs after every instance that returned
	// without error, with the number of such instances so far.
	afterInstance func(finished int)

	mu        sync.Mutex
	started   []int // instances started, per cell
	returned  []int // instances returned, per cell
	live      int   // cells with an instance started and one not returned
	maxLive   int
	doneOrder []int // cells in the order their last instance returned
	finished  int   // instances that returned without error
}

func newTraceBackend(pc experiment.PanelConfig) *traceBackend {
	tb := &traceBackend{
		Backend:   backend.NewTrajectoryBackend(),
		cells:     map[noise.Model]int{},
		instances: pc.Budget.Instances,
		started:   make([]int, len(pc.Rates)),
		returned:  make([]int, len(pc.Rates)),
	}
	for i, rate := range pc.Rates {
		tb.cells[pc.PointAt(rate, pc.Depths[0]).Model] = i
	}
	return tb
}

func (tb *traceBackend) Run(ctx context.Context, spec backend.PointSpec) (backend.Distribution, backend.Diagnostics, error) {
	cell := tb.cells[spec.Model]
	tb.mu.Lock()
	if tb.started[cell] == 0 {
		tb.live++
		tb.maxLive = max(tb.maxLive, tb.live)
	}
	tb.started[cell]++
	tb.mu.Unlock()

	dist, diag, err := tb.Backend.Run(ctx, spec)

	tb.mu.Lock()
	tb.returned[cell]++
	if tb.returned[cell] == tb.instances {
		tb.live--
		tb.doneOrder = append(tb.doneOrder, cell)
	}
	if err == nil {
		tb.finished++
	}
	finished := tb.finished
	tb.mu.Unlock()
	if err == nil && tb.afterInstance != nil {
		tb.afterInstance(finished)
	}
	return dist, diag, err
}

// TestPanelAdmissionBoundsCellsInFlight: at no moment may more than
// Workers()+1 grid cells have started instances without finishing.
func TestPanelAdmissionBoundsCellsInFlight(t *testing.T) {
	pc := admissionPanel(10)
	const workers = 2
	tb := newTraceBackend(pc)
	if _, err := experiment.RunPanel(context.Background(), backend.NewRunner(tb, workers), pc, experiment.PanelOptions{}); err != nil {
		t.Fatal(err)
	}
	if tb.maxLive > workers+1 {
		t.Errorf("%d cells had instances in flight at once, want <= %d", tb.maxLive, workers+1)
	}
}

// TestPanelCellsCompleteInGridOrder: cells finish in grid order give or
// take the window. Cell g is admitted only after all but Workers() of
// the cells before it are done, so the k-th cell to finish lies at
// most Workers() cells ahead of position k.
func TestPanelCellsCompleteInGridOrder(t *testing.T) {
	pc := admissionPanel(10)
	const workers = 2
	tb := newTraceBackend(pc)
	if _, err := experiment.RunPanel(context.Background(), backend.NewRunner(tb, workers), pc, experiment.PanelOptions{}); err != nil {
		t.Fatal(err)
	}
	if len(tb.doneOrder) != len(pc.Rates) {
		t.Fatalf("%d cells finished, want %d", len(tb.doneOrder), len(pc.Rates))
	}
	for k, cell := range tb.doneOrder {
		if cell > k+workers {
			t.Errorf("cell %d finished at position %d, more than %d ahead of grid order (order %v)", cell, k, workers, tb.doneOrder)
		}
	}
}

// TestPanelCancelKeepsCompletedCells cancels a checkpointed panel once
// half its instance tasks have finished. With cells admitted in grid
// order, every finished task outside the at most Workers()+1 admitted
// cells belongs to a complete, checkpointed cell, so the log must hold
// at least finished/instances - window cells. Interleaving every cell
// through the pool would leave it nearly empty.
func TestPanelCancelKeepsCompletedCells(t *testing.T) {
	pc := admissionPanel(12)
	const workers = 2
	window := workers + 1
	tb := newTraceBackend(pc)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	half := len(pc.Rates) * pc.Budget.Instances / 2
	tb.afterInstance = func(finished int) {
		if finished >= half {
			cancel()
		}
	}
	dir := filepath.Join(t.TempDir(), "run")
	run, err := runstore.Create(dir, runstore.Manifest{Command: "test"})
	if err != nil {
		t.Fatal(err)
	}
	_, err = experiment.RunPanel(ctx, backend.NewRunner(tb, workers), pc, experiment.PanelOptions{Label: "p", Checkpoint: run})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	run.Close()
	resumed, err := runstore.Resume(dir, "")
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	tb.mu.Lock()
	finished := tb.finished
	tb.mu.Unlock()
	if want := finished/pc.Budget.Instances - window; resumed.Restored() < want {
		t.Errorf("points.jsonl holds %d cells after %d finished instance tasks, want >= %d",
			resumed.Restored(), finished, want)
	}
	if resumed.Restored() >= len(pc.Rates) {
		t.Errorf("all %d cells checkpointed — the cancel landed too late", len(pc.Rates))
	}
}

// holdBackend holds every instance until its context is cancelled,
// closing started when the first one arrives.
type holdBackend struct {
	backend.Backend
	once    sync.Once
	started chan struct{}
}

func (h *holdBackend) Run(ctx context.Context, spec backend.PointSpec) (backend.Distribution, backend.Diagnostics, error) {
	h.once.Do(func() { close(h.started) })
	<-ctx.Done()
	return nil, backend.Diagnostics{}, ctx.Err()
}

// TestPanelCancelWhileWaitingForWindow: with every admitted cell held,
// the sweep blocks waiting for a window slot; cancelling must unblock it
// and return ctx.Err() without completing any cell.
func TestPanelCancelWhileWaitingForWindow(t *testing.T) {
	pc := admissionPanel(8)
	hb := &holdBackend{Backend: backend.NewTrajectoryBackend(), started: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	calls := 0
	go func() {
		_, err := experiment.RunPanel(ctx, backend.NewRunner(hb, 1), pc, experiment.PanelOptions{Progress: func(experiment.Progress) { calls++ }})
		done <- err
	}()
	<-hb.started
	// The loop's wait on the window is not observable; the pause makes
	// it very likely the cancel lands there. The assertions hold
	// wherever it lands.
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("RunPanel did not return after cancellation — deadlock")
	}
	if calls != 0 {
		t.Errorf("%d cells completed while every instance was held", calls)
	}
}
