package qfarith_test

// Integration tests spanning the full pipeline: circuit construction →
// transpilation → (routing) → noise simulation → sampling → metrics,
// plus interop paths (QASM round trips feeding the simulator, gate-based
// state preparation feeding arithmetic).

import (
	"context"
	"math"
	"strings"
	"testing"

	"qfarith/internal/arith"
	"qfarith/internal/backend"
	"qfarith/internal/circuit"
	"qfarith/internal/compile"
	"qfarith/internal/experiment"
	"qfarith/internal/metrics"
	"qfarith/internal/noise"
	"qfarith/internal/qasm"
	"qfarith/internal/qft"
	"qfarith/internal/qint"
	"qfarith/internal/sim"
	"qfarith/internal/transpile"
)

// TestPreparedStateThroughAdder chains the gate-based initializer into
// the QFA: prepare both operands with qint.Prepare (no amplitude
// injection anywhere), add, and verify the output distribution.
func TestPreparedStateThroughAdder(t *testing.T) {
	a, w := 3, 4
	c := circuit.New(a + w)
	qint.PrepareOn(c, arith.Range(0, a), qint.NewBasis(a, 5))
	qint.PrepareOn(c, arith.Range(a, w), qint.NewUniform(w, 3, 9))
	arith.QFAGates(c, arith.Range(0, a), arith.Range(a, w), arith.DefaultConfig())
	st := sim.NewState(a + w)
	st.ApplyCircuit(c)
	probs := st.RegisterProbs(arith.Range(a, w))
	for _, want := range []int{(5 + 3) & 15, (5 + 9) & 15} {
		if math.Abs(probs[want]-0.5) > 1e-9 {
			t.Errorf("P(%d) = %g, want 0.5", want, probs[want])
		}
	}
}

// TestQASMRoundTripThroughNoiseEngine feeds a parsed-QASM circuit into
// the trajectory engine: export the paper's QFA, re-parse it, transpile,
// and confirm the engine reproduces Table I exposure and a successful
// noiseless instance.
func TestQASMRoundTripThroughNoiseEngine(t *testing.T) {
	src := arith.NewQFA(7, 8, arith.DefaultConfig())
	parsed, err := qasm.ParseString(qasm.Export(src))
	if err != nil {
		t.Fatal(err)
	}
	res := transpile.Transpile(parsed)
	if _, two := res.CountByArity(); two != 182 {
		t.Fatalf("round-tripped circuit has %d CX, want 182", two)
	}
	engine := noise.NewEngine(res, noise.Noiseless)
	x, y := 77, 123
	dist := make([]float64, 256)
	engine.Mixture(dist, []sim.Amp{{Index: x | y<<7, Value: 1}}, noise.MixtureOpts{Trajectories: 1, Measure: arith.Range(7, 8)}, nil)
	if math.Abs(dist[(x+y)&255]-1) > 1e-9 {
		t.Errorf("round-tripped QFA wrong: P(correct) = %g", dist[(x+y)&255])
	}
}

// TestRoutedNoisyPipelineEndToEnd is the full E7 stack on a small
// instance: build, transpile, route onto a 2x3 grid through the pipeline, run noisy trajectories,
// sample shots, and score with the paper's metric.
func TestRoutedNoisyPipelineEndToEnd(t *testing.T) {
	cfg := experiment.PointConfig{
		Geometry: experiment.AddGeometry(2, 3),
		Depth:    qft.Full,
		Model:    noise.PaperModel(0.002, 0.005),
		OrderX:   1, OrderY: 2,
		Instances: 5, Shots: 512, Trajectories: 8,
		RowSeed: 31, PointSeed: 37,
	}
	cfg.Pipeline = compile.Config{
		Passes:   []string{compile.PassDecompose, compile.PassRoute, compile.PassFuse},
		Coupling: "grid:2x3", // the 6-qubit ring plus one rung
	}
	r := runPoint(t, cfg)
	if r.Stats.Instances != 5 {
		t.Fatalf("instances %d", r.Stats.Instances)
	}
	if r.Stats.SuccessRate < 60 {
		t.Errorf("small routed adder at mild noise should mostly succeed: %.1f%%", r.Stats.SuccessRate)
	}
	if r.Stats.MeanFidelity <= 0 || r.Stats.MeanFidelity > 1+1e-9 {
		t.Errorf("mean fidelity out of range: %g", r.Stats.MeanFidelity)
	}
}

// runPoint runs cfg on a fresh trajectory runner.
func runPoint(t *testing.T, cfg experiment.PointConfig) experiment.PointResult {
	t.Helper()
	r, err := experiment.RunPoint(context.Background(), backend.NewRunner(backend.NewTrajectoryBackend(), cfg.Workers), cfg, experiment.PointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestFidelityTracksSuccessAcrossNoise checks the E2-style relationship
// between the two metrics end to end: fidelity decreases monotonically
// with the error rate and stays 1 in the noiseless limit.
func TestFidelityTracksSuccessAcrossNoise(t *testing.T) {
	prevFid := 1.1
	for _, p2 := range []float64{0, 0.01, 0.05} {
		model := noise.Noiseless
		if p2 > 0 {
			model = noise.PaperModel(0, p2)
		}
		cfg := experiment.PointConfig{
			Geometry: experiment.AddGeometry(3, 4),
			Depth:    qft.Full,
			Model:    model,
			OrderX:   1, OrderY: 1,
			Instances: 6, Shots: 256, Trajectories: 16,
			RowSeed: 5, PointSeed: 6,
		}
		r := runPoint(t, cfg)
		if p2 == 0 && math.Abs(r.Stats.MeanFidelity-1) > 1e-9 {
			t.Errorf("noiseless fidelity %g", r.Stats.MeanFidelity)
		}
		if r.Stats.MeanFidelity >= prevFid {
			t.Errorf("fidelity not decreasing: %g at rate %g (prev %g)", r.Stats.MeanFidelity, p2, prevFid)
		}
		prevFid = r.Stats.MeanFidelity
	}
}

// TestSubThenAddRestoresOperands drives the public API end to end:
// subtraction is the exact inverse of addition at every depth.
func TestSubThenAddRestoresOperands(t *testing.T) {
	c := circuit.New(7)
	x := arith.Range(0, 3)
	y := arith.Range(3, 4)
	cfg := arith.Config{Depth: 2, AddCut: arith.FullAdd}
	arith.QFAGates(c, x, y, cfg)
	arith.SubGates(c, x, y, cfg)
	for xv := 0; xv < 8; xv++ {
		for yv := 0; yv < 16; yv++ {
			st := sim.NewState(7)
			st.SetBasis(xv | yv<<3)
			st.ApplyCircuit(c)
			if st.Probability(xv|yv<<3) < 1-1e-9 {
				t.Fatalf("add∘sub not identity at depth 2 for x=%d y=%d", xv, yv)
			}
		}
	}
}

// TestExperimentCSVFeedsReport ties the sweep runner to the report
// tooling the CLI uses.
func TestExperimentCSVFeedsReport(t *testing.T) {
	pc := experiment.PanelConfig{
		Geometry: experiment.AddGeometry(2, 3),
		Axis:     experiment.Axis1Q,
		OrderX:   1, OrderY: 1,
		Rates:  []float64{0, 0.05},
		Depths: []int{1, qft.Full},
		Budget: experiment.Budget{Instances: 3, Shots: 64, Trajectories: 4},
		Seed:   77,
	}
	res, err := experiment.RunPanel(context.Background(), backend.NewRunner(backend.NewTrajectoryBackend(), 0), pc, experiment.PanelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := experiment.ParseCSV(res.CSV())
	if err != nil {
		t.Fatal(err)
	}
	rep := experiment.ReportFromCSV(rows)
	if !strings.Contains(rep, "qfa 1q-axis") {
		t.Errorf("report:\n%s", rep)
	}
	// Fidelity column must survive the round trip.
	hasFid := false
	for _, r := range rows {
		if r.Fidelity > 0 {
			hasFid = true
		}
	}
	if !hasFid {
		t.Error("fidelity lost in CSV round trip")
	}
}

// TestMitigationInsideMetricPipeline applies readout noise and its
// mitigation around the success metric.
func TestMitigationInsideMetricPipeline(t *testing.T) {
	geo := experiment.AddGeometry(3, 4)
	res := geo.BuildCircuit(qft.Full)
	engine := noise.NewEngine(res, noise.Noiseless)
	x, y := 5, 9
	dist := make([]float64, 16)
	engine.Mixture(dist, []sim.Amp{{Index: x | y<<3, Value: 1}}, noise.MixtureOpts{Trajectories: 1, Measure: geo.OutReg}, nil)
	noisy := noise.ApplyReadoutError(dist, 0.25)
	fixed, err := noise.MitigateReadout(noisy, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	correct := metrics.CorrectSums([]int{x}, []int{y}, 4)
	s := sim.NewSampler(1, 2)
	rawScore := metrics.Score(s.Counts(noisy, 2048), correct)
	fixedScore := metrics.Score(s.Counts(fixed, 2048), correct)
	if fixedScore.Margin <= rawScore.Margin {
		t.Errorf("mitigation did not improve margin: %d vs %d", fixedScore.Margin, rawScore.Margin)
	}
}
