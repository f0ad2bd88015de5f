package experiment_test

import (
	"context"
	"encoding/json"
	"sync"
	"sync/atomic"
	"testing"

	"qfarith/internal/backend"
	"qfarith/internal/compile"
	"qfarith/internal/experiment"
	"qfarith/internal/noise"
	"qfarith/internal/qft"
	"qfarith/internal/telemetry"
)

// routed returns cfg compiled through decompose,route,fuse onto the
// named coupling map.
func routed(cfg experiment.PointConfig, coupling string) experiment.PointConfig {
	cfg.Pipeline = compile.Config{
		Passes:   []string{compile.PassDecompose, compile.PassRoute, compile.PassFuse},
		Coupling: coupling,
	}
	return cfg
}

func TestRoutedNoiselessMatchesUnrouted(t *testing.T) {
	cfg := smallAddPoint(noise.Noiseless, 1, 2)
	base := runPoint(t, cfg)
	r := runPoint(t, routed(cfg, "linear:7"))
	if base.Stats.SuccessRate != 100 || r.Stats.SuccessRate != 100 {
		t.Errorf("noiseless success: base %.1f%%, routed %.1f%%",
			base.Stats.SuccessRate, r.Stats.SuccessRate)
	}
	if r.Native2q <= base.Native2q {
		t.Errorf("routing on a chain should add CX: %d vs %d", r.Native2q, base.Native2q)
	}
}

func TestRoutedNoiseExposureGrows(t *testing.T) {
	cfg := smallAddPoint(noise.PaperModel(0, 0.01), 1, 1)
	base := runPoint(t, cfg)
	r := runPoint(t, routed(cfg, "linear:7"))
	if r.ExpectedErrors <= base.ExpectedErrors {
		t.Errorf("routed expected errors %.2f should exceed base %.2f",
			r.ExpectedErrors, base.ExpectedErrors)
	}
	if r.NoErrorProb >= base.NoErrorProb {
		t.Errorf("routed w0 %.3f should fall below base %.3f",
			r.NoErrorProb, base.NoErrorProb)
	}
}

// TestRoutedPointsRunFactored: a routed adder keeps its addend wires
// in the computational basis through every swap, so each routed
// instance takes the factored engine.
func TestRoutedPointsRunFactored(t *testing.T) {
	runs := func(state string) uint64 {
		return telemetry.Default().Counter("qfarith_mixture_runs_total", telemetry.L("state", state)).Value()
	}
	for _, coupling := range []string{"linear:7", "grid:2x4", "heavyhex27"} {
		cfg := smallAddPoint(noise.PaperModel(0.002, 0.01), 1, 2)
		factored, dense := runs("factored"), runs("dense")
		runPoint(t, routed(cfg, coupling))
		if got := runs("factored") - factored; got != uint64(cfg.Instances) || runs("dense") != dense {
			t.Errorf("%s: %d of %d instances factored, %d dense",
				coupling, got, cfg.Instances, runs("dense")-dense)
		}
	}
}

func TestRoutedOnLargerDevice(t *testing.T) {
	// A 3+4 adder on the 27-qubit heavy-hex device: the route pass
	// drops the idle physical qubits and the metric still works.
	cfg := smallAddPoint(noise.Noiseless, 1, 1)
	cfg.Instances = 3
	r := runPoint(t, routed(cfg, "heavyhex27"))
	if r.Stats.SuccessRate != 100 {
		t.Errorf("heavy-hex noiseless success %.1f%%", r.Stats.SuccessRate)
	}
}

// TestRoutedMulNoiseless: routed multiplication runs through the same
// pipeline as routed addition, with the product register read at its
// final physical homes.
func TestRoutedMulNoiseless(t *testing.T) {
	cfg := experiment.PointConfig{
		Geometry: experiment.MulGeometry(2, 2),
		Depth:    qft.Full,
		Model:    noise.Noiseless,
		OrderX:   1, OrderY: 2,
		Instances: 4, Shots: 64, Trajectories: 1,
		RowSeed: 3, PointSeed: 4,
	}
	for _, coupling := range []string{"linear:8", "heavyhex27"} {
		if r := runPoint(t, routed(cfg, coupling)); r.Stats.SuccessRate != 100 {
			t.Errorf("%s: routed QFM noiseless success %.1f%%", coupling, r.Stats.SuccessRate)
		}
	}
}

// TestPipelineRoutedFig3Noiseless: a noiseless 1:1 fig3 point routed
// by the pipeline onto each E7 device scores 100% at every legend
// depth — the embedded input and the measured sum register follow the
// routed layout.
func TestPipelineRoutedFig3Noiseless(t *testing.T) {
	r := newTrajRunner(2)
	for _, coupling := range []string{"linear:15", "grid:3x5", "heavyhex27"} {
		for _, d := range experiment.AddDepths {
			cfg := routed(experiment.PointConfig{
				Geometry: experiment.PaperAddGeometry(), Depth: d,
				Model:  noise.Noiseless,
				OrderX: 1, OrderY: 1,
				Instances: 4, Shots: 256, Trajectories: 2,
				RowSeed: 5, PointSeed: 6,
			}, coupling)
			pr, err := experiment.RunPoint(context.Background(), r, cfg, experiment.PointOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if pr.Stats.SuccessRate != 100 {
				t.Errorf("%s depth %s: noiseless success %.1f%%", coupling,
					experiment.DepthLabel(d, 8), pr.Stats.SuccessRate)
			}
		}
	}
}

// countingBackend counts Run calls before delegating.
type countingBackend struct {
	backend.Backend
	calls atomic.Int64
}

func (c *countingBackend) Run(ctx context.Context, spec backend.PointSpec) (backend.Distribution, backend.Diagnostics, error) {
	c.calls.Add(1)
	return c.Backend.Run(ctx, spec)
}

// memStore is an in-memory CheckpointStore.
type memStore struct {
	mu sync.Mutex
	m  map[string]json.RawMessage
}

func (s *memStore) LookupPoint(key string) (json.RawMessage, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	raw, ok := s.m[key]
	return raw, ok
}

func (s *memStore) AppendPoint(key string, payload any) error {
	raw, err := json.Marshal(payload)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = raw
	return nil
}

// TestRunPointCheckpointRestores: with a Checkpoint, RunPoint records a
// fresh point under its key, and a second call returns the stored
// payload without touching the backend.
func TestRunPointCheckpointRestores(t *testing.T) {
	restored := telemetry.Default().Counter("qfarith_points_total", telemetry.L("kind", "restored"))
	cfg := smallAddPoint(noise.PaperModel(0.002, 0.01), 1, 2)
	ck := &memStore{m: map[string]json.RawMessage{}}
	opts := experiment.PointOptions{Key: "p", Checkpoint: ck}

	first := &countingBackend{Backend: backend.NewTrajectoryBackend()}
	want, err := experiment.RunPoint(context.Background(), backend.NewRunner(first, 2), cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if n := first.calls.Load(); n != int64(cfg.Instances) {
		t.Fatalf("fresh point ran %d instances, want %d", n, cfg.Instances)
	}
	if _, ok := ck.LookupPoint("p"); !ok {
		t.Fatal("fresh point was not checkpointed")
	}

	second := &countingBackend{Backend: backend.NewTrajectoryBackend()}
	before := restored.Value()
	got, err := experiment.RunPoint(context.Background(), backend.NewRunner(second, 2), cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if n := second.calls.Load(); n != 0 {
		t.Errorf("restored point ran %d backend instances, want 0", n)
	}
	if d := restored.Value() - before; d != 1 {
		t.Errorf("restored counter advanced by %d, want 1", d)
	}
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(got)
	if string(gotJSON) != string(wantJSON) {
		t.Errorf("restored point differs from the computed one:\n got %s\nwant %s", gotJSON, wantJSON)
	}
}
