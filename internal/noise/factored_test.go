package noise_test

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"qfarith/internal/arith"
	"qfarith/internal/circuit"
	"qfarith/internal/gate"
	"qfarith/internal/layout"
	"qfarith/internal/noise"
	"qfarith/internal/qft"
	"qfarith/internal/sim"
	"qfarith/internal/telemetry"
	"qfarith/internal/testutil"
	"qfarith/internal/transpile"
)

// amp is one sparse input term.
type amp struct {
	idx int
	v   complex128
}

// regMask returns the bit mask of a register.
func regMask(reg ...[]int) uint64 {
	var m uint64
	for _, r := range reg {
		for _, q := range r {
			m |= 1 << uint(q)
		}
	}
	return m
}

// TestBasisMask pins the basis-preserving analysis on the paper's
// circuits: the addend of an adder or subtractor and both factors of a
// multiplier stay in the computational basis, a bare QFT keeps nothing,
// and routing keeps the addend wires, however far the router swaps
// them.
func TestBasisMask(t *testing.T) {
	full := arith.Config{Depth: qft.Full, AddCut: arith.FullAdd}
	x7 := arith.Range(0, 7)
	// QFM(4,4) layout: z on 0..7, y on 8..11, x on 12..15.
	qfmFactors := regMask(arith.Range(8, 4), arith.Range(12, 4))
	qftOnly := circuit.New(5)
	qft.Gates(qftOnly, arith.Range(0, 5), qft.Full)
	cases := []struct {
		name string
		c    *circuit.Circuit
		want uint64
	}{
		{"qfa-7-8", arith.NewQFA(7, 8, full), regMask(x7)},
		{"qfa-7-8-d3", arith.NewQFA(7, 8, arith.Config{Depth: 3, AddCut: arith.FullAdd}), regMask(x7)},
		{"qfs-7-8", arith.NewQFS(7, 8, full), regMask(x7)},
		{"qfm-4-4", arith.NewQFM(4, 4, full), qfmFactors},
		{"signed-qfm-4-4", arith.NewSignedQFM(4, 4, full), qfmFactors},
		{"qft-only", qftOnly, 0},
	}
	for _, c := range cases {
		if got := noise.BasisMask(transpile.Transpile(c.c)); got != c.want {
			t.Errorf("%s: mask %#x, want %#x", c.name, got, c.want)
		}
	}

	// Wire w starts on physical qubit w, so the addend wires are the
	// addend's initial homes.
	for _, cm := range []*layout.CouplingMap{layout.Linear(15), layout.Grid(3, 5)} {
		res, _, _ := routedQFA(7, 8, 3, cm, nil)
		if got := noise.BasisMask(res); got != regMask(x7) {
			t.Errorf("routed fig3 adder on %d-qubit map: mask %#x, want %#x", cm.NumQubits, got, regMask(x7))
		}
	}
	res, _, _ := routedQFA(3, 3, qft.Full, layout.Linear(6), []int{2, 3, 5, 1, 0, 4})
	if want := regMask([]int{2, 3, 5}); noise.BasisMask(res) != want {
		t.Errorf("routed QFA(3,3) on linear:6: mask %#x, want %#x", noise.BasisMask(res), want)
	}
}

// routedQFA lowers QFA(a, w) at AQFT depth d and routes it onto cm
// from the initial layout (nil = identity). It returns the routed
// circuit, the physical output register, and the layout.
func routedQFA(a, w, d int, cm *layout.CouplingMap, initial []int) (*transpile.Result, []int, []int) {
	native := transpile.Transpile(arith.NewQFA(a, w, arith.Config{Depth: d, AddCut: arith.FullAdd})).Circuit()
	routed := layout.Route(native, cm, initial)
	measure := make([]int, w)
	for i := range measure {
		measure[i] = routed.FinalLayout[a+i]
	}
	return transpile.Transpile(routed.Circuit), measure, routed.InitialLayout
}

// embed maps logical input terms onto physical qubits.
func embed(terms []amp, initial []int) []amp {
	out := make([]amp, len(terms))
	for i, a := range terms {
		p := 0
		for l, phys := range initial {
			p |= (a.idx >> uint(l) & 1) << uint(phys)
		}
		out[i] = amp{p, a.v}
	}
	return out
}

// runFactoredAndDense runs one mixture through Mixture, through each
// of its block layouts — keyed blocks when the engine has a keyed plan,
// whatever the input's key count, and one block over every wire — and
// through the dense MixtureInto oracle, from the same seed, and returns
// the first bit difference in the output or ideal distribution.
func runFactoredAndDense(e *noise.Engine, terms []amp, measure []int, k int, seed uint64) error {
	n := e.Res.NumQubits
	m := 1 << uint(len(measure))

	st := sim.NewState(n)
	clear(st.Amps())
	for _, a := range terms {
		st.Amps()[a.idx] = a.v
	}
	st.Normalize()
	want, wantIdeal := make([]float64, m), make([]float64, m)
	e.MixtureInto(want, st, noise.MixtureOpts{Trajectories: k, Measure: measure, IdealOut: wantIdeal}, testutil.NewRand(seed))

	initial := make([]sim.Amp, len(terms))
	for i, a := range terms {
		initial[i] = sim.Amp{Index: a.idx, Value: a.v}
	}
	runs := []struct {
		name string
		run  func(out []float64, opts noise.MixtureOpts)
	}{
		{"Mixture", func(out []float64, opts noise.MixtureOpts) {
			e.Mixture(out, initial, opts, testutil.NewRand(seed))
		}},
		{"one block", func(out []float64, opts noise.MixtureOpts) {
			e.MixtureLayout(out, initial, opts, testutil.NewRand(seed), false)
		}},
	}
	if e.KeyMask() != 0 {
		runs = append(runs, struct {
			name string
			run  func(out []float64, opts noise.MixtureOpts)
		}{"keyed blocks", func(out []float64, opts noise.MixtureOpts) {
			e.MixtureLayout(out, initial, opts, testutil.NewRand(seed), true)
		}})
	}
	for _, r := range runs {
		got, gotIdeal := make([]float64, m), make([]float64, m)
		r.run(got, noise.MixtureOpts{Trajectories: k, Measure: measure, IdealOut: gotIdeal})
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				return fmt.Errorf("%s: P(%d) = %x, dense oracle %x (Δ=%g)", r.name, i, math.Float64bits(got[i]), math.Float64bits(want[i]), got[i]-want[i])
			}
			if math.Float64bits(gotIdeal[i]) != math.Float64bits(wantIdeal[i]) {
				return fmt.Errorf("%s: ideal P(%d) = %x, dense oracle %x", r.name, i, math.Float64bits(gotIdeal[i]), math.Float64bits(wantIdeal[i]))
			}
		}
	}
	return nil
}

// productTerms builds the superposition of every (x, y) pair over the
// given operand values, with x at bit offset xOff and y at yOff, and
// distinct phases so a permuted term would show.
func productTerms(xs []int, xOff int, ys []int, yOff int) []amp {
	var terms []amp
	for i, x := range xs {
		for j, y := range ys {
			ph := float64(1+i+3*j) * 0.37
			terms = append(terms, amp{x<<uint(xOff) | y<<uint(yOff), complex(math.Cos(ph), math.Sin(ph))})
		}
	}
	return terms
}

// TestFactoredMixtureBitIdentical is Mixture's oracle test: on the
// paper's adders, subtractor, multipliers and routed adders, from
// noiseless through hot noise and down to one trajectory, its output
// and ideal distributions, on keyed blocks and on one block, must be
// Float64bits-identical to the dense engine's.
func TestFactoredMixtureBitIdentical(t *testing.T) {
	full := arith.Config{Depth: qft.Full, AddCut: arith.FullAdd}
	models := []struct {
		name  string
		model noise.Model
		k     int
	}{
		{"noiseless", noise.Noiseless, 8},
		{"k1", noise.PaperModel(0.002, 0.01), 1},
		{"paper", noise.PaperModel(0.002, 0.01), 12},
		{"hot", noise.PaperModel(0.01, 0.08), 12},
	}
	type tc struct {
		name    string
		res     *transpile.Result
		terms   []amp
		measure []int
		keyless bool // no keyed plan: one block only
	}
	qfa := transpile.Transpile(arith.NewQFA(7, 8, full))
	qfs := transpile.Transpile(arith.NewQFS(7, 8, full))
	qfm := transpile.Transpile(arith.NewQFM(4, 4, full))
	sqfm := transpile.Transpile(arith.NewSignedQFM(4, 4, full))
	routed, routedOut, routedLayout := routedQFA(3, 3, qft.Full, layout.Linear(6), []int{2, 3, 5, 1, 0, 4})
	fig3Linear, linearOut, linearLayout := routedQFA(7, 8, 3, layout.Linear(15), nil)
	fig3Grid, gridOut, gridLayout := routedQFA(7, 8, 3, layout.Grid(3, 5), nil)
	// A bare QFT routed onto a line: no key wire, so its routing swaps
	// relabel the wires of the one block.
	qft6 := circuit.New(6)
	qft.Gates(qft6, arith.Range(0, 6), qft.Full)
	qftRouted := layout.Route(transpile.Transpile(qft6).Circuit(), layout.Linear(6), []int{3, 0, 5, 1, 4, 2})
	qftOut := make([]int, 6)
	for i := range qftOut {
		qftOut[i] = qftRouted.FinalLayout[i]
	}
	if !slices.ContainsFunc(qftRouted.Circuit.Ops, func(op circuit.Op) bool { return op.Kind == gate.SWAP }) {
		t.Fatal("routed QFT has no SWAP")
	}
	cases := []tc{
		{"qfa-1:1", qfa, productTerms([]int{93}, 0, []int{41}, 7), arith.Range(7, 8), false},
		{"qfa-1:2", qfa, productTerms([]int{5}, 0, []int{200, 17}, 7), arith.Range(7, 8), false},
		{"qfa-2:2", qfa, productTerms([]int{19, 100}, 0, []int{7, 200}, 7), arith.Range(7, 8), false},
		{"qfs-2:2", qfs, productTerms([]int{19, 100}, 0, []int{7, 200}, 7), arith.Range(7, 8), false},
		// QFM(4,4): z on 0..7 starts at zero; y on 8..11, x on 12..15.
		{"qfm-2:2", qfm, productTerms([]int{3, 13}, 12, []int{6, 11}, 8), arith.Range(0, 8), false},
		{"signed-qfm-2:2", sqfm, productTerms([]int{9, 7}, 12, []int{14, 2}, 8), arith.Range(0, 8), false},
		// Routed adders: the addend wires stay keys through every swap.
		{"routed-qfa-2:2", routed, embed(productTerms([]int{1, 6}, 0, []int{3, 4}, 3), routedLayout), routedOut, false},
		{"routed-fig3-linear15-2:2", fig3Linear, embed(productTerms([]int{19, 100}, 0, []int{7, 200}, 7), linearLayout), linearOut, false},
		{name: "routed-qft-linear6", res: transpile.Transpile(qftRouted.Circuit), terms: embed(productTerms([]int{5, 12, 33}, 0, []int{0}, 6), qftRouted.InitialLayout), measure: qftOut, keyless: true},
		{"routed-fig3-grid3x5-2:2", fig3Grid, embed(productTerms([]int{19, 100}, 0, []int{7, 200}, 7), gridLayout), gridOut, false},
	}
	if testing.Short() {
		cases = cases[:len(cases)-1] // one routed fig3 adder is enough under -race
	}
	for _, c := range cases {
		for _, md := range models {
			c, md := c, md
			t.Run(c.name+"/"+md.name, func(t *testing.T) {
				e := noise.NewEngine(c.res, md.model)
				if (e.KeyMask() == 0) != c.keyless {
					t.Fatalf("key mask %#x, want a keyed plan: %v", e.KeyMask(), !c.keyless)
				}
				if err := runFactoredAndDense(e, c.terms, c.measure, md.k, 2024); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestDenseMixtureSwapSpansBitIdentical pins the dense oracle across
// the router's change of form: a routed adder whose swaps are SWAP
// source ops (one span of 3 CX each) gives Float64bits-identical
// output and ideal distributions to the same natives with each CX its
// own source op. The natives, and so the drawn events, are the same;
// an event span composes to a monomial with entries ±1, ±i in either
// form, which ApplyKQ applies exactly.
func TestDenseMixtureSwapSpansBitIdentical(t *testing.T) {
	maps := []*layout.CouplingMap{layout.Linear(15), layout.Grid(3, 5)}
	if testing.Short() {
		maps = maps[:1] // 2^15 dense trajectories are slow under -race
	}
	for _, cm := range maps {
		swaps, measure, initial := routedQFA(7, 8, 3, cm, nil)
		cxs := transpile.Transpile(swaps.Circuit()) // every native its own source op
		if len(cxs.Source) == len(swaps.Source) {
			t.Fatal("routed adder has no SWAP source op")
		}
		terms := embed(productTerms([]int{19, 100}, 0, []int{7, 200}, 7), initial)
		for _, md := range []struct {
			model noise.Model
			k     int
		}{
			{noise.Noiseless, 4},
			{noise.PaperModel(0.002, 0.005), 1},
			{noise.PaperModel(0.002, 0.005), 6},
			{noise.PaperModel(0.01, 0.08), 6},
		} {
			run := func(res *transpile.Result) (dist, ideal []float64) {
				st := sim.NewState(res.NumQubits)
				clear(st.Amps())
				for _, a := range terms {
					st.Amps()[a.idx] = a.v
				}
				st.Normalize()
				dist, ideal = make([]float64, 1<<8), make([]float64, 1<<8)
				e := noise.NewEngine(res, md.model)
				e.MixtureInto(dist, st, noise.MixtureOpts{Trajectories: md.k, Measure: measure, IdealOut: ideal}, testutil.NewRand(99))
				return dist, ideal
			}
			got, gotIdeal := run(swaps)
			want, wantIdeal := run(cxs)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) || math.Float64bits(gotIdeal[i]) != math.Float64bits(wantIdeal[i]) {
					t.Fatalf("%d-qubit map, model %+v, k=%d: P(%d) = %x ideal %x with SWAP spans, %x ideal %x with CX source ops",
						cm.NumQubits, md.model, md.k, i, math.Float64bits(got[i]), math.Float64bits(gotIdeal[i]),
						math.Float64bits(want[i]), math.Float64bits(wantIdeal[i]))
				}
			}
		}
	}
}

// randomFactorableCircuit builds a random circuit over {H, RZ, CP, CCP,
// CX, SWAP}, plus the Paulis, CH and CCX, on n qubits. Wires ≥ nd are
// key candidates; a SWAP moves the wires of its qubits, so SWAPs mix
// key and dense candidates freely. A gate is redrawn (up to a few
// times) while its native form would pull a key candidate into
// superposition — a CX from a dense candidate onto a key candidate, an
// SX on one, or a 1q gate that fuses with the previous one on a key
// candidate into a non-diagonal 1q segment — so key wires usually
// survive. In one circuit in four, one gate in five skips the redraw
// and exercises eviction.
func randomFactorableCircuit(seed uint64, n, nd, ops int) *circuit.Circuit {
	rng := testutil.NewRand(seed)
	c := circuit.New(n)
	wire := make([]int, n) // wire[q] is the wire on qubit q
	for q := range wire {
		wire[q] = q
	}
	keeps := func(op circuit.Op) bool {
		if op.Kind == gate.SWAP {
			return true
		}
		if q := op.Qubits[0]; op.Kind.Arity() == 1 && wire[q] >= nd && len(c.Ops) > 0 {
			prev := c.Ops[len(c.Ops)-1]
			if prev.Kind.Arity() == 1 && prev.Qubits[0] == q && !(prev.Kind.Diagonal() && op.Kind.Diagonal()) {
				return false
			}
		}
		one := circuit.New(n)
		one.Ops = append(one.Ops, op)
		for _, nat := range transpile.Transpile(one).Ops {
			q := nat.Qubits
			if (nat.Kind == gate.SX && wire[q[0]] >= nd) || (nat.Kind == gate.CX && wire[q[0]] < nd && wire[q[1]] >= nd) {
				return false
			}
		}
		return true
	}
	kinds := []gate.Kind{gate.H, gate.RZ, gate.CP, gate.CCP, gate.CX, gate.SWAP, gate.X, gate.Y, gate.Z, gate.CH, gate.CCX}
	mixing := rng.IntN(4) == 0
	for len(c.Ops) < ops {
		k := kinds[rng.IntN(len(kinds))]
		if k.Arity() > n {
			continue
		}
		mixed := mixing && rng.IntN(5) == 0
		for try := 0; try < 8; try++ {
			op := circuit.NewOp(k, rng.Float64()*2*math.Pi, rng.Perm(n)[:k.Arity()]...)
			if !k.Parameterized() {
				op.Theta = 0
			}
			if mixed || keeps(op) {
				c.Ops = append(c.Ops, op)
				if k == gate.SWAP {
					a, b := op.Qubits[0], op.Qubits[1]
					wire[a], wire[b] = wire[b], wire[a]
				}
				break
			}
		}
	}
	return c
}

// FuzzFactoredMixture compares Mixture, on both block layouts, against
// the dense oracle on random ≤ 8-qubit circuits with random sparse
// inputs, noise levels and trajectory counts; a circuit without a
// keyed plan runs on one block only. The seed corpus runs under go
// test.
func FuzzFactoredMixture(f *testing.F) {
	for _, s := range []struct {
		seed        uint64
		n, nd, hot  uint8
		k, ops, nIn uint8
	}{
		{1, 7, 3, 0, 6, 30, 2},
		{2, 8, 4, 1, 9, 40, 4},
		{3, 5, 2, 2, 1, 25, 3},
		{4, 6, 1, 1, 5, 50, 1},
		{5, 8, 5, 2, 12, 60, 6},
		{6, 4, 2, 0, 3, 20, 2},
		{7, 3, 1, 1, 4, 15, 2},
		{8, 8, 2, 1, 8, 80, 5},
		// 8 qubits, key mask 0xfc: six input blocks stored with
		// descending keys, read out through the key-order walk.
		{324, 6, 1, 2, 10, 40, 5},
		// One-block layout. 8 qubits, no key wire: no keyed plan.
		{1118, 6, 5, 1, 6, 30, 2},
		// 8 qubits, every wire a key (RZ/CP/CX/SWAP/Paulis only): no
		// dense wire, so no keyed plan either.
		{1001, 6, 3, 1, 5, 7, 5},
		// 8 qubits, key mask 0xf0, six input key values: 6 × 2^4
		// amplitudes exceed a quarter of 2^8, so Mixture takes one block.
		{1000, 6, 3, 1, 7, 30, 5},
		// 8 qubits, no key wire, four SWAPs: routing swaps relabel the
		// wires of the one block.
		{1004, 6, 0, 2, 9, 40, 5},
	} {
		f.Add(s.seed, s.n, s.nd, s.hot, s.k, s.ops, s.nIn)
	}
	models := []noise.Model{noise.Noiseless, noise.PaperModel(0.01, 0.04), noise.PaperModel(0.05, 0.2)}
	f.Fuzz(func(t *testing.T, seed uint64, n, nd, hot, k, ops, nIn uint8) {
		nq := 2 + int(n)%7 // 2..8 qubits
		ndq := 1 + int(nd)%(nq-1)
		c := randomFactorableCircuit(seed, nq, ndq, 1+int(ops)%80)
		res := transpile.Transpile(c)
		e := noise.NewEngine(res, models[int(hot)%len(models)])
		mask := e.KeyMask() // 0: only the one-block layout applies
		rng := testutil.NewRand(seed ^ 0x5eed)
		var terms []amp
		for len(terms) < min(1+int(nIn)%6, 1<<uint(nq)) {
			idx := rng.IntN(1 << uint(nq))
			dup := false
			for _, a := range terms {
				dup = dup || a.idx == idx
			}
			if !dup {
				terms = append(terms, amp{idx, complex(rng.NormFloat64(), rng.NormFloat64())})
			}
		}
		nm := 1 + rng.IntN(nq)
		measure := rng.Perm(nq)[:nm]
		if err := runFactoredAndDense(e, terms, measure, 1+int(k)%12, seed); err != nil {
			t.Fatalf("%d qubits, key mask %#x (%d keys): %v", nq, mask, bits.OnesCount64(mask), err)
		}
	})
}

// layoutRuns returns how many Mixture runs have taken each block
// layout so far.
func layoutRuns() (keyed, oneBlock uint64) {
	count := func(state string) uint64 {
		return telemetry.Default().Counter("qfarith_mixture_runs_total", telemetry.L("state", state)).Value()
	}
	return count("factored"), count("dense")
}

// quietPools readies the scratch pools for an allocation count, until
// the caller's test ends: it drops the pooled objects other tests left
// behind, whose buffers a new circuit would grow, and pins the test to
// one P, where a sync.Pool hands back what was put into it (on several,
// an object parked in another P's private slot is out of reach).
func quietPools(t *testing.T) {
	procs := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(procs) })
	runtime.GC()
	runtime.GC()
}

// TestFactoredMixtureSteadyStateZeroAlloc extends the scratch-reuse
// contract to the keyed layout: with warm pools, a Mixture call on an
// input spanning two key values — loading its blocks and running the
// mixture — allocates nothing.
func TestFactoredMixtureSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; alloc contract is checked in the non-race run")
	}
	c := arith.NewQFA(3, 4, arith.Config{Depth: 3, AddCut: arith.FullAdd})
	e := noise.NewEngine(transpile.Transpile(c), noise.PaperModel(0.004, 0.01))
	measure := arith.Range(3, 4)
	out := make([]float64, 16)
	rng := testutil.NewRand(7)
	initial := []sim.Amp{{Index: 1 | 5<<3, Value: 0.6}, {Index: 6 | 2<<3, Value: 0.8i}}
	run := func(k int) {
		e.Mixture(out, initial, noise.MixtureOpts{Trajectories: k, Measure: measure}, rng)
	}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	quietPools(t)
	keyed, oneBlock := layoutRuns()
	run(96)
	if k, o := layoutRuns(); k != keyed+1 || o != oneBlock {
		t.Fatalf("two-key input took %d keyed and %d one-block runs, want 1 keyed", k-keyed, o-oneBlock)
	}
	if allocs := testing.AllocsPerRun(5, func() { run(16) }); allocs != 0 {
		t.Errorf("steady-state keyed mixture allocates %.1f objects per call, want 0", allocs)
	}
}
