package noise_test

import (
	"fmt"
	"math"
	"runtime/debug"
	"testing"

	"qfarith/internal/arith"
	"qfarith/internal/noise"
	"qfarith/internal/qft"
	"qfarith/internal/sim"
	"qfarith/internal/telemetry"
	"qfarith/internal/testutil"
	"qfarith/internal/transpile"
)

// TestBatchedMixtureBitIdentical pins the batched engine's core
// contract: MixtureBatchInto must reproduce MixtureInto bit for bit at
// every batch size, because the `trajectory` and `trajectory-batch`
// backends are required to emit byte-identical fixed-seed CSVs. Both
// paths share the sampling stage, so this is a test of the lockstep
// segment walk: plain lanes through the SoA kernels, special lanes
// through the scalar fallback, identical float histories throughout.
func TestBatchedMixtureBitIdentical(t *testing.T) {
	type tc struct {
		name  string
		res   *transpile.Result
		model noise.Model
		nOut  int
	}
	qfa := arith.NewQFA(3, 4, arith.Config{Depth: 3, AddCut: arith.FullAdd})
	qfm := arith.NewQFM(3, 3, arith.Config{Depth: qft.Full, AddCut: arith.FullAdd})
	cases := []tc{
		// Paper-rate noise: most lanes branch late, long shared prefixes.
		{"qfa-d3-paper", transpile.Transpile(qfa), noise.PaperModel(0.004, 0.01), 4},
		// Hot noise: many events per trajectory, dense special-lane
		// traffic through the scalar fallback.
		{"qfa-d3-hot", transpile.Transpile(qfa), noise.PaperModel(0.02, 0.08), 4},
		// Full-depth multiplier: SegOp/Seg1Q/SegDiag segment mix.
		{"qfm-full-paper", transpile.Transpile(qfm), noise.PaperModel(0.004, 0.01), 3},
	}
	const k = 24
	for _, c := range cases {
		e := noise.NewEngine(c.res, c.model)
		n := c.res.NumQubits
		measure := arith.Range(n-c.nOut, c.nOut)
		m := 1 << uint(c.nOut)

		initial := randomState(n, 99)
		want := make([]float64, m)
		wantIdeal := make([]float64, m)
		st := sim.NewState(n)
		st.SetAmplitudes(initial)
		e.MixtureInto(want, st, noise.MixtureOpts{
			Trajectories: k, Measure: measure, IdealOut: wantIdeal,
		}, testutil.NewRand(4242))

		for _, batch := range []int{2, 3, 8, k, k + 9} {
			t.Run(fmt.Sprintf("%s/batch-%d", c.name, batch), func(t *testing.T) {
				got := make([]float64, m)
				gotIdeal := make([]float64, m)
				st.SetAmplitudes(initial)
				e.MixtureBatchInto(got, st, noise.MixtureOpts{
					Trajectories: k, Measure: measure, IdealOut: gotIdeal,
				}, testutil.NewRand(4242), batch)
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("P(%d) = %x, scalar engine %x (Δ=%g)",
							i, math.Float64bits(got[i]), math.Float64bits(want[i]),
							got[i]-want[i])
					}
					if math.Float64bits(gotIdeal[i]) != math.Float64bits(wantIdeal[i]) {
						t.Fatalf("ideal P(%d) differs between engines", i)
					}
				}
			})
		}
	}
}

// TestBatchedMixtureScalarFallbacks checks the delegation arms: batch
// sizes that cannot batch (<=1), single-trajectory mixtures, and
// noiseless engines must all take the scalar path and agree with it.
func TestBatchedMixtureScalarFallbacks(t *testing.T) {
	c := arith.NewQFA(3, 4, arith.Config{Depth: 2, AddCut: arith.FullAdd})
	res := transpile.Transpile(c)
	measure := arith.Range(3, 4)
	initial := make([]complex128, 1<<7)
	initial[5] = 1
	st := sim.NewState(7)
	for _, tc := range []struct {
		name  string
		model noise.Model
		k     int
		batch int
	}{
		{"batch-1", noise.PaperModel(0.004, 0.01), 8, 1},
		{"batch-0", noise.PaperModel(0.004, 0.01), 8, 0},
		{"k-1", noise.PaperModel(0.004, 0.01), 1, 8},
		{"noiseless", noise.Noiseless, 8, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := noise.NewEngine(res, tc.model)
			want := make([]float64, 16)
			st.SetAmplitudes(initial)
			e.MixtureInto(want, st, noise.MixtureOpts{
				Trajectories: tc.k, Measure: measure,
			}, testutil.NewRand(17))
			got := make([]float64, 16)
			st.SetAmplitudes(initial)
			e.MixtureBatchInto(got, st, noise.MixtureOpts{
				Trajectories: tc.k, Measure: measure,
			}, testutil.NewRand(17), tc.batch)
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("P(%d) differs from scalar engine (Δ=%g)", i, got[i]-want[i])
				}
			}
		})
	}
}

// TestBatchedMixtureSteadyStateZeroAlloc extends the scratch-reuse
// contract to the batched path: warm pools, zero allocations per call.
func TestBatchedMixtureSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; alloc contract is checked in the non-race run")
	}
	c := arith.NewQFA(3, 4, arith.Config{Depth: 3, AddCut: arith.FullAdd})
	e := noise.NewEngine(transpile.Transpile(c), noise.PaperModel(0.004, 0.01))
	measure := arith.Range(3, 4)
	st := sim.NewState(7)
	initial := make([]complex128, st.Dim())
	initial[1] = 1
	out := make([]float64, 16)
	rng := testutil.NewRand(7)

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	st.SetAmplitudes(initial)
	e.MixtureBatchInto(out, st, noise.MixtureOpts{Trajectories: 96, Measure: measure}, rng, 8)

	allocs := testing.AllocsPerRun(5, func() {
		st.SetAmplitudes(initial)
		e.MixtureBatchInto(out, st, noise.MixtureOpts{Trajectories: 16, Measure: measure}, rng, 8)
	})
	if allocs != 0 {
		t.Errorf("steady-state MixtureBatchInto allocates %.1f objects per call, want 0", allocs)
	}

	// The input state doubles as the error-free prefix, so a batched call
	// takes no pooled statevector beside its batch lanes.
	states := func() uint64 { return telemetry.Default().CounterSum("qfarith_scratch_states_total") }
	before := states()
	st.SetAmplitudes(initial)
	e.MixtureBatchInto(out, st, noise.MixtureOpts{Trajectories: 16, Measure: measure}, rng, 8)
	if n := states() - before; n != 0 {
		t.Errorf("batched MixtureBatchInto took %d pooled statevectors, want 0", n)
	}
}
