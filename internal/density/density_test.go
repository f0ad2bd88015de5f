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
// output computed by density-matrix evolution.
func TestTrajectoryEngineConvergesToDensity(t *testing.T) {
	c := arith.NewQFA(2, 3, arith.Config{Depth: 2, AddCut: arith.FullAdd})
	res := transpile.Transpile(c)
	model := noise.PaperModel(0.01, 0.03)

	x, y := 2, 5
	initAmps := make([]complex128, 1<<5)
	initAmps[x|y<<2] = 1

	// Exact channel output.
	rho := density.FromPure(initAmps)
	density.RunNoisy(rho, res, model)
	exact := rho.RegisterProbs(arith.Range(2, 3))

	// Trajectory mixture with a large trajectory budget.
	engine := noise.NewEngine(res, model)
	st := sim.NewState(5)
	dist := make([]float64, 8)
	rng := testutil.NewRand(7)
	st.SetAmplitudes(initAmps)
	engine.MixtureInto(dist, st, noise.MixtureOpts{
		Trajectories: 12000,
		Measure:      arith.Range(2, 3),
	}, rng)

	for v := range exact {
		if d := math.Abs(exact[v] - dist[v]); d > 0.01 {
			t.Errorf("outcome %d: exact %.4f vs trajectories %.4f (Δ %.4f)", v, exact[v], dist[v], d)
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
