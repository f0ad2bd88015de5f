package noise_test

import (
	"math"
	"testing"

	"qfarith/internal/arith"
	"qfarith/internal/circuit"
	"qfarith/internal/gate"
	"qfarith/internal/noise"
	"qfarith/internal/qft"
	"qfarith/internal/sim"
	"qfarith/internal/testutil"
	"qfarith/internal/transpile"
)

func qfaEngine(d int, m noise.Model) *noise.Engine {
	c := arith.NewQFA(3, 4, arith.Config{Depth: d, AddCut: arith.FullAdd})
	return noise.NewEngine(transpile.Transpile(c), m)
}

func TestNoiselessEngineIsExact(t *testing.T) {
	e := qfaEngine(qft.Full, noise.Noiseless)
	if e.NoErrorProb() != 1 {
		t.Fatalf("noiseless w0 = %g, want 1", e.NoErrorProb())
	}
	if e.NoisyOps() != 0 {
		t.Fatalf("noiseless engine reports %d noisy ops", e.NoisyOps())
	}
	if e.SampleConditional(testutil.NewRand(3)) != nil {
		t.Fatal("noiseless engine produced a conditional trajectory")
	}
}

func TestMixtureNoiselessMatchesIdeal(t *testing.T) {
	e := qfaEngine(qft.Full, noise.Noiseless)
	st := sim.NewState(7)
	initial := make([]complex128, st.Dim())
	x, y := 5, 9
	initial[x|y<<3] = 1
	out := make([]float64, 16)
	rng := testutil.NewRand(1)
	st.SetAmplitudes(initial)
	e.MixtureInto(out, st, noise.MixtureOpts{Trajectories: 4, Measure: arith.Range(3, 4)}, rng)
	want := (x + y) & 15
	for v, p := range out {
		expect := 0.0
		if v == want {
			expect = 1.0
		}
		if math.Abs(p-expect) > 1e-9 {
			t.Fatalf("noiseless mixture P(%d) = %g, want %g", v, p, expect)
		}
	}
}

func TestNoErrorProbClosedForm(t *testing.T) {
	m := noise.PaperModel(0.002, 0.01)
	e := qfaEngine(qft.Full, m)
	// Count native gates by class and compare w0 with the closed form.
	var g1, g2 int
	for _, op := range e.Res.Ops {
		switch op.Kind {
		case gate.CX:
			g2++
		case gate.X, gate.SX, gate.RZ, gate.I:
			g1++
		}
	}
	want := math.Pow(1-0.002*3/4, float64(g1)) * math.Pow(1-0.01*15.0/16.0, float64(g2))
	if d := math.Abs(e.NoErrorProb() - want); d > 1e-12 {
		t.Errorf("w0 = %g, want %g (diff %g)", e.NoErrorProb(), want, d)
	}
}

func TestNoiseOnRZFlag(t *testing.T) {
	withRZ := noise.Model{OneQubit: 0.01, NoiseOnRZ: true}
	withoutRZ := noise.Model{OneQubit: 0.01, NoiseOnRZ: false}
	a := qfaEngine(qft.Full, withRZ)
	b := qfaEngine(qft.Full, withoutRZ)
	if a.NoisyOps() <= b.NoisyOps() {
		t.Errorf("NoiseOnRZ should increase noisy op count: %d vs %d", a.NoisyOps(), b.NoisyOps())
	}
	if a.NoErrorProb() >= b.NoErrorProb() {
		t.Errorf("NoiseOnRZ should decrease w0: %g vs %g", a.NoErrorProb(), b.NoErrorProb())
	}
}

func TestConditionalSamplingAlwaysHasEvents(t *testing.T) {
	e := qfaEngine(2, noise.PaperModel(0.001, 0.002))
	rng := testutil.NewRand(42)
	for i := 0; i < 500; i++ {
		ev := e.SampleConditional(rng)
		if len(ev) == 0 {
			t.Fatal("conditional trajectory with no events")
		}
		for j := 1; j < len(ev); j++ {
			if ev[j].PhysIdx <= ev[j-1].PhysIdx {
				t.Fatal("events not strictly ordered")
			}
		}
		for _, e2 := range ev {
			if e2.Pauli == 0 {
				t.Fatal("identity Pauli sampled as an error event")
			}
		}
	}
}

func TestEventRateMatchesChannel(t *testing.T) {
	// Unconditional sampling frequency of errors per op must match the
	// channel probability within Monte Carlo error.
	m := noise.PaperModel(0.02, 0.05)
	e := qfaEngine(qft.Full, m)
	rng := testutil.NewRand(7)
	trials := 3000
	var total int
	for i := 0; i < trials; i++ {
		total += len(e.SampleUnconditional(rng))
	}
	mean := float64(total) / float64(trials)
	want := e.ExpectedErrors()
	if math.Abs(mean-want) > 0.1*want {
		t.Errorf("mean events/shot %g, want ≈ %g", mean, want)
	}
}

// TestTrajectoryEquivalentToNativeRun verifies that the span fast-path
// machinery produces exactly the same state (up to global phase) as a
// plain native-gate simulation with the same Pauli insertions.
func TestTrajectoryEquivalentToNativeRun(t *testing.T) {
	c := arith.NewQFA(2, 3, arith.Config{Depth: 2, AddCut: arith.FullAdd})
	res := transpile.Transpile(c)
	e := noise.NewEngine(res, noise.PaperModel(0.05, 0.1))
	rng := testutil.NewRand(99)
	for trial := 0; trial < 50; trial++ {
		events := e.SampleConditional(rng)
		// Fast-path run.
		st := sim.NewState(5)
		st.SetBasis(trial % 32)
		e.RunTrajectory(st, events)
		// Reference: fully native run with inline Pauli application.
		ref := sim.NewState(5)
		ref.SetBasis(trial % 32)
		ei := 0
		for pi, op := range res.Ops {
			ref.ApplyOp(op)
			for ei < len(events) && events[ei].PhysIdx == pi {
				applyPauliRef(ref, res.Ops[pi], events[ei].Pauli)
				ei++
			}
		}
		if f := fidelity(st, ref); math.Abs(f-1) > 1e-9 {
			t.Fatalf("trial %d: trajectory fast path fidelity %g", trial, f)
		}
	}
}

func applyPauliRef(st *sim.State, op circuit.Op, p uint8) {
	apply1 := func(q int, v uint8) {
		switch v {
		case 1:
			st.X(q)
		case 2:
			st.Y(q)
		case 3:
			st.Z(q)
		}
	}
	if op.Kind == gate.CX {
		apply1(op.Qubits[0], p>>2)
		apply1(op.Qubits[1], p&3)
		return
	}
	apply1(op.Qubits[0], p)
}

func fidelity(a, b *sim.State) float64 {
	var ip complex128
	for i, av := range a.Amps() {
		ip += complexConj(av) * b.Amps()[i]
	}
	return real(ip)*real(ip) + imag(ip)*imag(ip)
}

func complexConj(c complex128) complex128 { return complex(real(c), -imag(c)) }

func TestMixtureSumsToOne(t *testing.T) {
	e := qfaEngine(2, noise.PaperModel(0.01, 0.02))
	st := sim.NewState(7)
	initial := make([]complex128, st.Dim())
	initial[3|7<<3] = 1
	out := make([]float64, 16)
	rng := testutil.NewRand(5)
	st.SetAmplitudes(initial)
	e.MixtureInto(out, st, noise.MixtureOpts{Trajectories: 8, Measure: arith.Range(3, 4)}, rng)
	var s float64
	for _, p := range out {
		s += p
	}
	if math.Abs(s-1) > 1e-9 {
		t.Errorf("mixture sums to %g", s)
	}
}

func TestMixtureDegradesWithNoise(t *testing.T) {
	// The probability mass on the correct sum should fall as the 2q
	// error rate rises.
	x, y := 3, 9
	want := (x + y) & 15
	prev := 1.1
	for _, p2 := range []float64{0, 0.01, 0.05, 0.2} {
		e := qfaEngine(qft.Full, noise.PaperModel(0, p2))
		st := sim.NewState(7)
		initial := make([]complex128, st.Dim())
		initial[x|y<<3] = 1
		out := make([]float64, 16)
		rng := testutil.NewRand(11)
		st.SetAmplitudes(initial)
		e.MixtureInto(out, st, noise.MixtureOpts{Trajectories: 48, Measure: arith.Range(3, 4)}, rng)
		if out[want] >= prev {
			t.Errorf("P(correct) did not fall with noise: %g at λ2=%g (prev %g)", out[want], p2, prev)
		}
		prev = out[want]
	}
	if prev > 0.9 {
		t.Errorf("P(correct) at λ2=0.2 is %g; expected substantial degradation", prev)
	}
}

func TestAvgGateError(t *testing.T) {
	if got := noise.AvgGateError(0.01, 1); math.Abs(got-0.005) > 1e-12 {
		t.Errorf("1q avg error = %g, want 0.005", got)
	}
	if got := noise.AvgGateError(0.01, 2); math.Abs(got-0.0075) > 1e-12 {
		t.Errorf("2q avg error = %g, want 0.0075", got)
	}
}
