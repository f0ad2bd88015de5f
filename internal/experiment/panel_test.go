package experiment_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"qfarith/internal/backend"
	"qfarith/internal/experiment"
	"qfarith/internal/qft"
)

func smallSweepPanel() experiment.PanelConfig {
	return experiment.PanelConfig{
		Geometry: experiment.AddGeometry(2, 3),
		Axis:     experiment.Axis2Q,
		OrderX:   1, OrderY: 2,
		Rates:  []float64{0, 0.01, 0.02},
		Depths: []int{1, 2, qft.Full},
		Budget: experiment.Budget{Instances: 4, Shots: 128, Trajectories: 4},
		Seed:   20260704,
	}
}

// TestPanelParallelMatchesSerial: the shared worker pool must not change
// results — a panel run on a 1-slot runner and on a wide runner must
// produce byte-identical CSV, because every instance derives its RNG
// streams from (PointSeed, index) rather than from scheduling order.
func TestPanelParallelMatchesSerial(t *testing.T) {
	pc := smallSweepPanel()
	serial := backend.NewRunner(backend.NewTrajectoryBackend(), 1)
	wide := backend.NewRunner(backend.NewTrajectoryBackend(), 8)
	rs, err := experiment.RunPanel(context.Background(), serial, pc, experiment.PanelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rp, err := experiment.RunPanel(context.Background(), wide, pc, experiment.PanelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rs.CSV() != rp.CSV() {
		t.Error("parallel panel CSV differs from serial panel CSV")
	}
}

// TestPanelSharesTranspileCache: a 3x3 grid over one geometry needs one
// circuit per depth; the runner's cache must dedupe the other builds.
func TestPanelSharesTranspileCache(t *testing.T) {
	pc := smallSweepPanel()
	r := backend.NewRunner(backend.NewTrajectoryBackend(), 2)
	if _, err := experiment.RunPanel(context.Background(), r, pc, experiment.PanelOptions{}); err != nil {
		t.Fatal(err)
	}
	hits, misses := r.Cache().Stats()
	if misses != len(pc.Depths) {
		t.Errorf("built %d circuits, want %d (one per depth)", misses, len(pc.Depths))
	}
	if wantHits := len(pc.Rates)*len(pc.Depths) - len(pc.Depths); hits != wantHits {
		t.Errorf("cache hits = %d, want %d", hits, wantHits)
	}
}

// TestPanelCancellationMidGrid cancels the context from a progress
// callback partway through the grid: RunPanel must return ctx.Err()
// promptly instead of completing all points or deadlocking.
func TestPanelCancellationMidGrid(t *testing.T) {
	pc := smallSweepPanel()
	pc.Budget.Instances = 8 // enough work that cancellation lands mid-grid
	r := backend.NewRunner(backend.NewTrajectoryBackend(), 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var mu sync.Mutex
	completed := 0
	done := make(chan error, 1)
	go func() {
		_, err := experiment.RunPanel(ctx, r, pc, experiment.PanelOptions{Progress: func(p experiment.Progress) {
			mu.Lock()
			completed = p.Done
			mu.Unlock()
			if p.Done == 2 {
				cancel()
			}
		}})
		done <- err
	}()

	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("RunPanel did not return after cancellation — deadlock")
	}
	mu.Lock()
	got := completed
	mu.Unlock()
	if total := len(pc.Rates) * len(pc.Depths); got >= total {
		t.Errorf("all %d points completed despite cancellation", total)
	}
}

// TestPanelPreCancelled: a context cancelled before the sweep starts
// must yield zero completed points.
func TestPanelPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := backend.NewRunner(backend.NewTrajectoryBackend(), 2)
	calls := 0
	_, err := experiment.RunPanel(ctx, r, smallSweepPanel(), experiment.PanelOptions{Progress: func(experiment.Progress) { calls++ }})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 0 {
		t.Errorf("%d points completed under a pre-cancelled context", calls)
	}
}

// TestDensityRunnerOnPanel drives a full (tiny) panel through the exact
// density backend, checking the experiment layer is backend-agnostic.
func TestDensityRunnerOnPanel(t *testing.T) {
	pc := smallSweepPanel()
	pc.Rates = []float64{0, 0.02}
	pc.Depths = []int{qft.Full}
	pc.Budget = experiment.Budget{Instances: 2, Shots: 128, Trajectories: 1}
	r := backend.NewRunner(backend.NewDensityBackend(), 2)
	res, err := experiment.RunPanel(context.Background(), r, pc, experiment.PanelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	noiseless := res.Points[0][0]
	if noiseless.Stats.SuccessRate != 100 {
		t.Errorf("noiseless density panel point success = %g%%, want 100%%", noiseless.Stats.SuccessRate)
	}
	noisy := res.Points[1][0]
	if noisy.NoErrorProb >= noiseless.NoErrorProb {
		t.Errorf("w0 did not drop with noise: %g vs %g", noisy.NoErrorProb, noiseless.NoErrorProb)
	}
}
