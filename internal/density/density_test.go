package density_test

import (
	"math"
	"testing"

	"qfarith/internal/arith"
	"qfarith/internal/circuit"
	"qfarith/internal/density"
	"qfarith/internal/gate"
	"qfarith/internal/noise"
	"qfarith/internal/qft"
	"qfarith/internal/sim"
	"qfarith/internal/telemetry"
	"qfarith/internal/testutil"
	"qfarith/internal/transpile"
)

func TestPureEvolutionMatchesStatevector(t *testing.T) {
	// Without noise, diag(ρ) after a circuit must equal |ψ|².
	c := arith.NewQFA(2, 3, arith.DefaultConfig())
	rng := testutil.NewRand(5)
	st := testutil.RandomState(rng, 5)
	rho := density.FromPure(st.Amps())
	st.ApplyCircuit(c)
	rho.ApplyCircuit(c)
	if math.Abs(real(rho.Trace())-1) > 1e-9 {
		t.Fatalf("trace drifted: %v", rho.Trace())
	}
	if p := rho.Purity(); math.Abs(p-1) > 1e-9 {
		t.Fatalf("purity %g after unitary evolution", p)
	}
	for i := 0; i < st.Dim(); i++ {
		if d := math.Abs(real(rho.At(i, i)) - st.Probability(i)); d > 1e-9 {
			t.Fatalf("diag %d differs by %g", i, d)
		}
	}
}

func TestDepolarize1FullyMixes(t *testing.T) {
	// λ=1 sends any single-qubit state to I/2.
	rho := density.New(1)
	rho.ApplyOp(circuit.NewOp(gate.H, 0, 0))
	rho.Depolarize1(0, 1.0)
	if math.Abs(real(rho.At(0, 0))-0.5) > 1e-12 || math.Abs(real(rho.At(1, 1))-0.5) > 1e-12 {
		t.Errorf("diag not maximally mixed: %v, %v", rho.At(0, 0), rho.At(1, 1))
	}
	if c := rho.At(0, 1); math.Hypot(real(c), imag(c)) > 1e-12 {
		t.Errorf("coherence survived full depolarization: %v", c)
	}
	if p := rho.Purity(); math.Abs(p-0.5) > 1e-12 {
		t.Errorf("purity %g, want 0.5", p)
	}
}

func TestDepolarize2PreservesTraceAndMixes(t *testing.T) {
	rho := density.New(2)
	rho.ApplyOp(circuit.NewOp(gate.H, 0, 0))
	rho.ApplyOp(circuit.NewOp(gate.CX, 0, 0, 1)) // Bell state
	rho.Depolarize2(0, 1, 0.5)
	if math.Abs(real(rho.Trace())-1) > 1e-12 {
		t.Errorf("trace %v", rho.Trace())
	}
	if p := rho.Purity(); p >= 1 || p < 0.25 {
		t.Errorf("purity %g out of expected range", p)
	}
}

func TestAmplitudeDampChannel(t *testing.T) {
	// From |1>, ρ_11 decays to (1-γ).
	rho := density.New(1)
	rho.ApplyOp(circuit.NewOp(gate.X, 0, 0))
	rho.AmplitudeDamp(0, 0.3)
	if d := math.Abs(real(rho.At(1, 1)) - 0.7); d > 1e-12 {
		t.Errorf("excited population off by %g", d)
	}
	if d := math.Abs(real(rho.At(0, 0)) - 0.3); d > 1e-12 {
		t.Errorf("ground population off by %g", d)
	}
	// Coherence of |+> damps by sqrt(1-γ).
	rho2 := density.New(1)
	rho2.ApplyOp(circuit.NewOp(gate.H, 0, 0))
	rho2.AmplitudeDamp(0, 0.3)
	want := 0.5 * math.Sqrt(0.7)
	if d := math.Abs(real(rho2.At(0, 1)) - want); d > 1e-12 {
		t.Errorf("coherence %v, want %g", rho2.At(0, 1), want)
	}
}

// TestTrajectoryEngineConvergesToDensity is the headline cross-check:
// the Monte Carlo trajectory mixture must converge to the exact channel
// output computed by density-matrix evolution, which shares no fusion,
// event-span composition or block layout with the engine (only the
// per-gate State kernels). On a fixed-seed grid — a 5-qubit adder on a
// one-value input (keyed blocks) and on an all-addend input (one block),
// and a bare 5-qubit QFT (no key wire: one block), each at three noise
// levels and two AQFT depths — the total-variation distance stays below
// (1-w0)·√(m/K): only the conditional stratum, weight 1-w0, is sampled,
// and K samples of an m-bin distribution miss it by at most √(m/K) in
// expected L1 norm, twice the expected TV distance.
func TestTrajectoryEngineConvergesToDensity(t *testing.T) {
	const k = 3000
	type input struct {
		name    string
		circ    func(depth int) *circuit.Circuit
		amps    []sim.Amp
		measure []int
		layout  string // qfarith_mixture_runs_total state label
	}
	qfa := func(depth int) *circuit.Circuit {
		return arith.NewQFA(2, 3, arith.Config{Depth: depth, AddCut: arith.FullAdd})
	}
	var allAddends []sim.Amp
	for x := 0; x < 4; x++ {
		allAddends = append(allAddends, sim.Amp{Index: x | (3*x+1)%8<<2, Value: complex(1, 0.3*float64(x))})
	}
	inputs := []input{
		{"qfa-2-3-basis", qfa, []sim.Amp{{Index: 2 | 5<<2, Value: 1}}, arith.Range(2, 3), "factored"},
		{"qfa-2-3-all-addends", qfa, allAddends, arith.Range(2, 3), "dense"},
		{"qft-5", func(depth int) *circuit.Circuit { return qft.New(5, depth) },
			[]sim.Amp{{Index: 3, Value: 1}, {Index: 11, Value: 1i}, {Index: 19, Value: -1}, {Index: 27, Value: 0.5}},
			arith.Range(0, 5), "dense"},
	}
	models := []noise.Model{
		noise.PaperModel(0.002, 0.01),
		noise.PaperModel(0.01, 0.03),
		noise.PaperModel(0.03, 0.1),
	}
	runs := func(state string) uint64 {
		return telemetry.Default().Counter("qfarith_mixture_runs_total", telemetry.L("state", state)).Value()
	}
	for _, in := range inputs {
		for _, depth := range []int{1, qft.Full} {
			res := transpile.Transpile(in.circ(depth))
			n := res.NumQubits
			dense := make([]complex128, 1<<uint(n))
			for _, a := range in.amps {
				dense[a.Index] = a.Value
			}
			st := sim.NewState(n)
			st.SetAmplitudes(dense)
			for mi, model := range models {
				rho := density.FromPure(st.Amps())
				density.RunNoisy(rho, res, model)
				exact := rho.RegisterProbs(in.measure)

				engine := noise.NewEngine(res, model)
				dist := make([]float64, len(exact))
				before := runs(in.layout)
				engine.Mixture(dist, in.amps, noise.MixtureOpts{Trajectories: k, Measure: in.measure}, testutil.NewRand(uint64(7+mi)))
				if runs(in.layout) != before+1 {
					t.Errorf("%s depth %d: run did not take the %s layout", in.name, depth, in.layout)
				}
				var tv float64
				for v := range exact {
					tv += math.Abs(exact[v]-dist[v]) / 2
				}
				bound := (1 - engine.NoErrorProb()) * math.Sqrt(float64(len(exact))/k)
				if tv > bound {
					t.Errorf("%s depth %d, model %+v: TV distance %.4g to the exact channel, want ≤ %.4g", in.name, depth, model, tv, bound)
				}
			}
		}
	}
}

func TestDensityNoisyQFTDegradesCoherence(t *testing.T) {
	res := transpile.Transpile(qft.New(3, qft.Full))
	rho := density.New(3)
	density.RunNoisy(rho, res, noise.PaperModel(0.05, 0.05))
	if p := rho.Purity(); p >= 0.95 {
		t.Errorf("purity %g: noisy QFT should mix the state", p)
	}
	if tr := real(rho.Trace()); math.Abs(tr-1) > 1e-9 {
		t.Errorf("trace %g", tr)
	}
}

func TestRegisterProbsMatchesStatevectorConvention(t *testing.T) {
	rng := testutil.NewRand(13)
	st := testutil.RandomState(rng, 4)
	rho := density.FromPure(st.Amps())
	for _, reg := range [][]int{{0, 1}, {2, 3}, {3, 0}} {
		want := st.RegisterProbs(reg)
		got := rho.RegisterProbs(reg)
		for i := range want {
			if math.Abs(want[i]-got[i]) > 1e-9 {
				t.Fatalf("reg %v bin %d: %g vs %g", reg, i, got[i], want[i])
			}
		}
	}
}

func TestFromPureRejectsBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-power-of-two amplitudes")
		}
	}()
	density.FromPure(make([]complex128, 3))
}
