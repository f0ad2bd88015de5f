package backend_test

import (
	"context"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"qfarith/internal/backend"
	"qfarith/internal/experiment"
	"qfarith/internal/noise"
	"qfarith/internal/qft"
	"qfarith/internal/sim"
	"qfarith/internal/telemetry"
)

// smallSpec builds a 5-qubit 2+3 adder instance spec: small enough for
// exact density evolution, noisy enough to exercise every path.
func smallSpec(trajectories int) backend.PointSpec {
	geo := experiment.AddGeometry(2, 3)
	res := geo.BuildCircuit(qft.Full)
	// 1:2 instance — x = 2, y ∈ {1, 6}.
	return backend.PointSpec{
		Circuit: res,
		Model:   noise.PaperModel(0.004, 0.02),
		Initial: []backend.Amp{
			{Index: 2 | 1<<2, Value: complex(1/math.Sqrt2, 0)},
			{Index: 2 | 6<<2, Value: complex(1/math.Sqrt2, 0)},
		},
		Measure:      geo.OutReg,
		Trajectories: trajectories,
		Seed1:        101, Seed2: 202,
	}
}

func TestRegistry(t *testing.T) {
	names := backend.Names()
	if len(names) < 2 {
		t.Fatalf("Names() = %v, want at least trajectory and density", names)
	}
	for _, name := range names {
		b, err := backend.New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		want := name
		if name == "trajectory-batch" {
			want = "trajectory" // alias kept for recorded run directories
		}
		if b.Name() != want {
			t.Errorf("New(%q).Name() = %q, want %q", name, b.Name(), want)
		}
	}
	if b, err := backend.New(""); err != nil || b.Name() != backend.DefaultName {
		t.Errorf("New(\"\") = %v, %v; want default backend", b, err)
	}
	if _, err := backend.New("no-such-backend"); err == nil {
		t.Error("New(unknown) succeeded, want error")
	}
}

// TestSpecValidation: malformed specs, including every way the sparse
// input can be malformed, fail with a descriptive error on every
// backend — never a panic inside state preparation.
func TestSpecValidation(t *testing.T) {
	withInitial := func(terms ...backend.Amp) backend.PointSpec {
		spec := smallSpec(1)
		spec.Initial = terms
		return spec
	}
	noMeasure := smallSpec(1)
	noMeasure.Measure = nil
	withMeasure := func(qubits ...int) backend.PointSpec {
		spec := smallSpec(1)
		spec.Measure = qubits
		return spec
	}
	cases := []struct {
		name, want string
		spec       backend.PointSpec
	}{
		{"nil circuit", "Circuit is nil", backend.PointSpec{}},
		{"empty measure", "Measure is empty", noMeasure},
		{"measured qubit past register", "measured qubit 1 is 5, outside [0, 5)", withMeasure(0, 5)},
		{"negative measured qubit", "measured qubit 0 is -1, outside [0, 5)", withMeasure(-1, 2)},
		{"repeated measured qubit", "measured qubit 2 repeats qubit 3 (also measured qubit 0)", withMeasure(3, 4, 3)},
		{"negative index", "index -1, outside [0, 2^5)", withInitial(backend.Amp{Index: -1, Value: 1})},
		{"index past register", "index 32, outside [0, 2^5)", withInitial(backend.Amp{Index: 3, Value: 1}, backend.Amp{Index: 32, Value: 1})},
		{"all-zero terms", "squared norm 0 over 2 terms", withInitial(backend.Amp{Index: 1}, backend.Amp{Index: 3})},
		{"non-finite term", "want finite and nonzero", withInitial(backend.Amp{Index: 1, Value: complex(math.Inf(1), 0)})},
		{"repeated index", "term 1 repeats index 4", withInitial(backend.Amp{Index: 4, Value: 1}, backend.Amp{Index: 4, Value: 1})},
	}
	for _, name := range []string{"trajectory", "density"} {
		b, err := backend.New(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cases {
			_, _, err := b.Run(context.Background(), c.spec)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s/%s: err = %v, want it to mention %q", name, c.name, err, c.want)
			}
		}
	}
}

func TestTrajectoryDeterministicAcrossRuns(t *testing.T) {
	spec := smallSpec(32)
	b := backend.NewTrajectoryBackend()
	d1, g1, err := b.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	// A fresh backend (empty engine cache) must reproduce the identical
	// distribution from the same seeds.
	d2, g2, err := backend.NewTrajectoryBackend().Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("distributions differ at %d: %g vs %g", i, d1[i], d2[i])
		}
	}
	if g1.NoErrorProb != g2.NoErrorProb || g1.ExpectedErrors != g2.ExpectedErrors {
		t.Errorf("diagnostics differ: %+v vs %+v", g1, g2)
	}
}

func TestDensityRejectsWideCircuits(t *testing.T) {
	geo := experiment.PaperAddGeometry() // 15 qubits
	spec := backend.PointSpec{
		Circuit: geo.BuildCircuit(3),
		Measure: geo.OutReg,
	}
	if _, _, err := backend.NewDensityBackend().Run(context.Background(), spec); err == nil {
		t.Error("density backend accepted a 15-qubit circuit")
	}
}

func TestRunHonorsCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range backend.Names() {
		b, _ := backend.New(name)
		if _, _, err := b.Run(ctx, smallSpec(4)); err != context.Canceled {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
	}
}

// TestDensityMatchesTrajectory cross-validates the two backends: with a
// large trajectory budget the stratified mixture estimator must agree
// with exact density-matrix channel evolution — the first executable
// check of the Monte Carlo estimator against ground truth. The total
// variation distance shrinks as (1-w0)/sqrt(K); at K = 6000 and
// 1-w0 ≈ 0.5 the tolerance below sits several sigma out.
func TestDensityMatchesTrajectory(t *testing.T) {
	const trajectories = 6000
	spec := smallSpec(trajectories)

	exact, dDiag, err := backend.NewDensityBackend().Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	est, tDiag, err := backend.NewTrajectoryBackend().Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	// Both distributions normalize.
	for name, d := range map[string]backend.Distribution{"density": exact, "trajectory": est} {
		var sum float64
		for _, p := range d {
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s distribution sums to %g", name, sum)
		}
	}

	// Shared diagnostics agree exactly (both derive from the same
	// per-gate error bookkeeping).
	if math.Abs(dDiag.NoErrorProb-tDiag.NoErrorProb) > 1e-12 {
		t.Errorf("w0 disagrees: %g vs %g", dDiag.NoErrorProb, tDiag.NoErrorProb)
	}

	var tv float64
	for i := range exact {
		tv += math.Abs(exact[i] - est[i])
	}
	tv /= 2
	if tv > 0.02 {
		t.Errorf("total variation distance %g between exact and estimated output, want <= 0.02", tv)
	}

	// The ideal (error-free) strata must agree to numerical precision —
	// both are deterministic statevector evolutions.
	for i := range dDiag.Ideal {
		if math.Abs(dDiag.Ideal[i]-tDiag.Ideal[i]) > 1e-9 {
			t.Fatalf("ideal distributions differ at %d: %g vs %g", i, dDiag.Ideal[i], tDiag.Ideal[i])
		}
	}
}

// TestDefaultEngineBitIdenticalToScalar pins the default backend's dense
// path on the paper's Fig. 3 adder (15 qubits, K = 24, λ2 = 1%): the
// input spans all 128 addend values, too many for the factored path, so
// backend.New("") and its "trajectory-batch" alias each record one dense
// run and return the exact bytes noise.MixtureInto computes on the same
// input and seeds.
func TestDefaultEngineBitIdenticalToScalar(t *testing.T) {
	geo := experiment.PaperAddGeometry()
	var initial []backend.Amp
	for x := 0; x < 128; x++ {
		y := (37*x + 5) % 256
		initial = append(initial, backend.Amp{Index: x | y<<7, Value: complex(1, float64(x%3))})
	}
	spec := backend.PointSpec{
		Circuit:      geo.BuildCircuit(3),
		Model:        noise.PaperModel(0.002, 0.01),
		Initial:      initial,
		Measure:      geo.OutReg,
		Trajectories: 24,
		Seed1:        7, Seed2: 8,
	}
	st := sim.NewState(15)
	clear(st.Amps())
	for _, a := range initial {
		st.Amps()[a.Index] = a.Value
	}
	st.Normalize()
	want := make([]float64, 1<<8)
	wantIdeal := make([]float64, len(want))
	noise.NewEngine(spec.Circuit, spec.Model).MixtureInto(want, st, noise.MixtureOpts{
		Trajectories: spec.Trajectories, Measure: spec.Measure, IdealOut: wantIdeal,
	}, rand.New(rand.NewPCG(spec.Seed1, spec.Seed2)))

	dense := telemetry.Default().Counter("qfarith_mixture_runs_total", telemetry.L("state", "dense"))
	for _, name := range []string{"", "trajectory-batch"} {
		b, err := backend.New(name)
		if err != nil {
			t.Fatal(err)
		}
		before := dense.Value()
		got, diag, err := b.Run(context.Background(), spec)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if dense.Value() != before+1 {
			t.Errorf("New(%q): took no dense run on a full-support input", name)
		}
		if diag.Backend != backend.DefaultName {
			t.Errorf("New(%q): diagnostics name %q", name, diag.Backend)
		}
		for i := range want {
			if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
				t.Fatalf("New(%q): dist[%d] = %g, MixtureInto %g", name, i, got[i], want[i])
			}
			if math.Float64bits(wantIdeal[i]) != math.Float64bits(diag.Ideal[i]) {
				t.Fatalf("New(%q): ideal[%d] = %g, MixtureInto %g", name, i, diag.Ideal[i], wantIdeal[i])
			}
		}
	}
}

// TestFactoredRunMatchesDenseOracle: a fig3 2:2 instance takes the
// factored path, as the runs counter records, and its distributions are
// the exact bytes the dense engine computes on the same input and
// seeds.
func TestFactoredRunMatchesDenseOracle(t *testing.T) {
	geo := experiment.PaperAddGeometry()
	var initial []backend.Amp
	for _, x := range []int{19, 100} {
		for _, y := range []int{7, 200} {
			initial = append(initial, backend.Amp{Index: x | y<<7, Value: 0.5})
		}
	}
	spec := backend.PointSpec{
		Circuit:      geo.BuildCircuit(3),
		Model:        noise.PaperModel(0.002, 0.01),
		Initial:      initial,
		Measure:      geo.OutReg,
		Trajectories: 24,
		Seed1:        7, Seed2: 8,
	}
	runs := func(state string) uint64 {
		return telemetry.Default().Counter("qfarith_mixture_runs_total", telemetry.L("state", state)).Value()
	}
	factored, dense := runs("factored"), runs("dense")
	got, diag, err := backend.NewTrajectoryBackend().Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if runs("factored") != factored+1 || runs("dense") != dense {
		t.Errorf("runs counter moved factored %d→%d, dense %d→%d; want one factored run",
			factored, runs("factored"), dense, runs("dense"))
	}

	st := sim.NewState(15)
	clear(st.Amps())
	for _, a := range initial {
		st.Amps()[a.Index] = a.Value
	}
	st.Normalize()
	want := make([]float64, len(got))
	wantIdeal := make([]float64, len(got))
	noise.NewEngine(spec.Circuit, spec.Model).MixtureInto(want, st, noise.MixtureOpts{
		Trajectories: spec.Trajectories, Measure: spec.Measure, IdealOut: wantIdeal,
	}, rand.New(rand.NewPCG(spec.Seed1, spec.Seed2)))
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("dist[%d] = %g, dense oracle %g", i, got[i], want[i])
		}
		if math.Float64bits(wantIdeal[i]) != math.Float64bits(diag.Ideal[i]) {
			t.Fatalf("ideal[%d] = %g, dense oracle %g", i, diag.Ideal[i], wantIdeal[i])
		}
	}
}
