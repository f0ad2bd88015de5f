package noise_test

import (
	"fmt"
	"math"
	"runtime/debug"
	"sync"
	"testing"

	"qfarith/internal/arith"
	"qfarith/internal/noise"
	"qfarith/internal/qft"
	"qfarith/internal/sim"
	"qfarith/internal/testutil"
	"qfarith/internal/transpile"
)

// randomState returns a normalized random n-qubit statevector.
func randomState(n int, seed uint64) []complex128 {
	rng := testutil.NewRand(seed)
	amps := make([]complex128, 1<<uint(n))
	var norm float64
	for i := range amps {
		re, im := rng.NormFloat64(), rng.NormFloat64()
		amps[i] = complex(re, im)
		norm += re*re + im*im
	}
	s := complex(1/math.Sqrt(norm), 0)
	for i := range amps {
		amps[i] *= s
	}
	return amps
}

// TestFusedProgramMatchesOpByOp is the fast-path property test: for
// random QFA and QFM circuits across AQFT depths, the fused execution
// path (diagonal-run kernel + coalesced 1q matrices) must agree with
// op-by-op source execution to 1e-12 per amplitude. Diagonal runs are
// bit-exact by construction; the tolerance absorbs the reassociated 1q
// matrix products.
func TestFusedProgramMatchesOpByOp(t *testing.T) {
	type tc struct {
		name string
		res  *transpile.Result
	}
	var cases []tc
	for _, d := range []int{1, 2, 3, qft.Full} {
		c := arith.NewQFA(3, 4, arith.Config{Depth: d, AddCut: arith.FullAdd})
		cases = append(cases, tc{name: fmt.Sprintf("qfa-d%d", d), res: transpile.Transpile(c)})
	}
	for _, d := range []int{1, 2, qft.Full} {
		c := arith.NewQFM(3, 3, arith.Config{Depth: d, AddCut: arith.FullAdd})
		cases = append(cases, tc{name: fmt.Sprintf("qfm-d%d", d), res: transpile.Transpile(c)})
	}
	for ci, c := range cases {
		e := noise.NewEngine(c.res, noise.Noiseless)
		n := c.res.NumQubits
		for trial := 0; trial < 3; trial++ {
			initial := randomState(n, uint64(1000*ci+trial))
			fused := sim.NewState(n)
			fused.SetAmplitudes(initial)
			e.RunTrajectory(fused, nil) // no events: pure fused path
			ref := sim.NewState(n)
			ref.SetAmplitudes(initial)
			for _, op := range c.res.Source {
				ref.ApplyOp(op)
			}
			for i, a := range fused.Amps() {
				if d := a - ref.Amps()[i]; math.Hypot(real(d), imag(d)) > 1e-12 {
					t.Fatalf("%s trial %d: amp %d fused %v vs op-by-op %v",
						c.name, trial, i, a, ref.Amps()[i])
				}
			}
		}
	}
}

// TestCheckpointedMixtureBitIdentical pins the determinism contract of
// the checkpointed Mixture: grouping trajectories by first-error span
// and branching off a shared prefix must reproduce the naive loop —
// sample, simulate from scratch on the dense oracle, accumulate, K
// times — down to the last bit, because fixed-seed sweep outputs are
// part of the repo's reproducibility guarantees.
func TestCheckpointedMixtureBitIdentical(t *testing.T) {
	c := arith.NewQFA(3, 4, arith.Config{Depth: 3, AddCut: arith.FullAdd})
	e := noise.NewEngine(transpile.Transpile(c), noise.PaperModel(0.004, 0.01))
	measure := arith.Range(3, 4)
	const k = 24
	for trial := 0; trial < 4; trial++ {
		initial := make([]complex128, 1<<7)
		initial[(trial*5)%8|(trial*11)%16<<3] = 1

		// Checkpointed engine path.
		got := make([]float64, 16)
		e.Mixture(got, []sim.Amp{{Index: (trial*5)%8 | (trial*11)%16<<3, Value: 1}}, noise.MixtureOpts{
			Trajectories: k, Measure: measure,
		}, testutil.NewRand(uint64(42+trial)))

		// Naive reference: identical RNG seed, one full simulation per
		// trajectory, accumulation in sample order after the ideal stratum.
		rng := testutil.NewRand(uint64(42 + trial))
		st := sim.NewState(7)
		want := make([]float64, 16)
		ideal := make([]float64, 16)
		st.SetAmplitudes(initial)
		e.RunTrajectory(st, nil)
		st.RegisterProbsInto(ideal, measure)
		sim.MixInto(want, ideal, e.NoErrorProb())
		marg := make([]float64, 16)
		wt := (1 - e.NoErrorProb()) / k
		for tr := 0; tr < k; tr++ {
			events := e.SampleConditional(rng)
			st.SetAmplitudes(initial)
			e.RunTrajectory(st, events)
			st.RegisterProbsInto(marg, measure)
			sim.MixInto(want, marg, wt)
		}

		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d: P(%d) = %x, naive loop %x (Δ=%g)",
					trial, i, math.Float64bits(got[i]), math.Float64bits(want[i]),
					got[i]-want[i])
			}
		}
	}
}

// TestMixtureSteadyStateZeroAlloc enforces the scratch-reuse contract
// on the one-block layout: once the pools are warm, a Mixture call on an
// input spanning every key value allocates nothing. GC is disabled for
// the measurement because a collection mid-run legitimately empties the
// sync.Pools and forces refills.
func TestMixtureSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; alloc contract is checked in the non-race run")
	}
	c := arith.NewQFA(3, 4, arith.Config{Depth: 3, AddCut: arith.FullAdd})
	e := noise.NewEngine(transpile.Transpile(c), noise.PaperModel(0.004, 0.01))
	measure := arith.Range(3, 4)
	// All 8 addend values: 8 keyed blocks of 2^4 would be the whole
	// 2^7 state, so the run takes one block.
	initial := make([]sim.Amp, 8)
	for x := range initial {
		initial[x] = sim.Amp{Index: x | 9<<3, Value: complex(1, float64(x))}
	}
	out := make([]float64, 16)
	rng := testutil.NewRand(7)

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	quietPools(t)
	// Warm every pool with a larger trajectory count than the measured
	// runs use, so event/marginal buffers can only shrink afterwards.
	keyed, oneBlock := layoutRuns()
	e.Mixture(out, initial, noise.MixtureOpts{Trajectories: 96, Measure: measure}, rng)
	if k, o := layoutRuns(); k != keyed || o != oneBlock+1 {
		t.Fatalf("eight-key input took %d keyed and %d one-block runs, want 1 one-block", k-keyed, o-oneBlock)
	}

	allocs := testing.AllocsPerRun(5, func() {
		e.Mixture(out, initial, noise.MixtureOpts{Trajectories: 16, Measure: measure}, rng)
	})
	if allocs != 0 {
		t.Errorf("steady-state one-block Mixture allocates %.1f objects per call, want 0", allocs)
	}
}

// TestMixtureConcurrentLayouts shares one engine between goroutines
// whose inputs take different layouts, so the keyed and one-block
// plans are built and read concurrently on first use: every run must
// give the bits of the same run made alone.
func TestMixtureConcurrentLayouts(t *testing.T) {
	res := transpile.Transpile(arith.NewQFA(3, 4, arith.Config{Depth: 3, AddCut: arith.FullAdd}))
	model := noise.PaperModel(0.004, 0.01)
	measure := arith.Range(3, 4)
	narrow := []sim.Amp{{Index: 1 | 5<<3, Value: 0.6}, {Index: 6 | 2<<3, Value: 0.8i}}
	wide := make([]sim.Amp, 8)
	for x := range wide {
		wide[x] = sim.Amp{Index: x | 9<<3, Value: complex(1, float64(x))}
	}
	inputs := [][]sim.Amp{narrow, wide}
	run := func(e *noise.Engine, i int) []float64 {
		out := make([]float64, 16)
		e.Mixture(out, inputs[i%2], noise.MixtureOpts{Trajectories: 8, Measure: measure}, testutil.NewRand(uint64(i)))
		return out
	}
	const n = 8
	want := make([][]float64, n)
	for i := range want {
		want[i] = run(noise.NewEngine(res, model), i)
	}
	shared := noise.NewEngine(res, model)
	got := make([][]float64, n)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = run(shared, i)
		}(i)
	}
	wg.Wait()
	for i := range want {
		for v := range want[i] {
			if math.Float64bits(got[i][v]) != math.Float64bits(want[i][v]) {
				t.Fatalf("run %d: P(%d) = %x concurrently, %x alone", i, v, math.Float64bits(got[i][v]), math.Float64bits(want[i][v]))
			}
		}
	}
}
