package experiment_test

import (
	"testing"

	"qfarith/internal/experiment"
	"qfarith/internal/layout"
	"qfarith/internal/noise"
	"qfarith/internal/qft"
	"qfarith/internal/telemetry"
)

func TestRoutedNoiselessMatchesUnrouted(t *testing.T) {
	cfg := smallAddPoint(noise.Noiseless, 1, 2)
	base := experiment.RunPoint(cfg)
	routed := experiment.RunRoutedPoint(cfg, layout.Linear(7))
	if base.Stats.SuccessRate != 100 || routed.Stats.SuccessRate != 100 {
		t.Errorf("noiseless success: base %.1f%%, routed %.1f%%",
			base.Stats.SuccessRate, routed.Stats.SuccessRate)
	}
	if routed.Native2q <= base.Native2q {
		t.Errorf("routing on a chain should add CX: %d vs %d", routed.Native2q, base.Native2q)
	}
}

func TestRoutedNoiseExposureGrows(t *testing.T) {
	cfg := smallAddPoint(noise.PaperModel(0, 0.01), 1, 1)
	base := experiment.RunPoint(cfg)
	routed := experiment.RunRoutedPoint(cfg, layout.Linear(7))
	if routed.ExpectedErrors <= base.ExpectedErrors {
		t.Errorf("routed expected errors %.2f should exceed base %.2f",
			routed.ExpectedErrors, base.ExpectedErrors)
	}
	if routed.NoErrorProb >= base.NoErrorProb {
		t.Errorf("routed w0 %.3f should fall below base %.3f",
			routed.NoErrorProb, base.NoErrorProb)
	}
}

// TestRoutedPointsRunFactored: a routed adder keeps its addend wires
// in the computational basis through every swap, so each routed
// instance takes the factored engine.
func TestRoutedPointsRunFactored(t *testing.T) {
	runs := func(state string) uint64 {
		return telemetry.Default().Counter("qfarith_mixture_runs_total", telemetry.L("state", state)).Value()
	}
	for _, cm := range []*layout.CouplingMap{layout.Linear(7), layout.Grid(2, 4), layout.HeavyHexFalcon27()} {
		cfg := smallAddPoint(noise.PaperModel(0.002, 0.01), 1, 2)
		factored, dense := runs("factored"), runs("dense")
		experiment.RunRoutedPoint(cfg, cm)
		if got := runs("factored") - factored; got != uint64(cfg.Instances) || runs("dense") != dense {
			t.Errorf("%d-qubit map: %d of %d instances factored, %d dense",
				cm.NumQubits, got, cfg.Instances, runs("dense")-dense)
		}
	}
}

func TestRoutedOnLargerDevice(t *testing.T) {
	// A 3+4 adder on the 27-qubit heavy-hex device: extra physical
	// qubits stay idle and the metric still works.
	cfg := smallAddPoint(noise.Noiseless, 1, 1)
	cfg.Instances = 3
	r := experiment.RunRoutedPoint(cfg, layout.HeavyHexFalcon27())
	if r.Stats.SuccessRate != 100 {
		t.Errorf("heavy-hex noiseless success %.1f%%", r.Stats.SuccessRate)
	}
}

func TestRoutedRejectsMul(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for routed multiplication")
		}
	}()
	cfg := experiment.PointConfig{
		Geometry: experiment.MulGeometry(2, 2),
		Depth:    qft.Full,
		Model:    noise.Noiseless,
		OrderX:   1, OrderY: 1,
		Instances: 1, Shots: 16, Trajectories: 1,
	}
	experiment.RunRoutedPoint(cfg, layout.Linear(8))
}
