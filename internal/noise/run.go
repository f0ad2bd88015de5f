package noise

import (
	"math/rand/v2"
	"sync"

	"qfarith/internal/circuit"
	"qfarith/internal/sim"
	"qfarith/internal/telemetry"
)

// Mixture-engine telemetry: trajectories simulated, error events drawn,
// and the error-containing native spans those events landed in (the
// densified/expanded spans, the expensive part of a trajectory).
// Counts are aggregated locally inside Mixture and recorded with
// one atomic add per call, so the per-trajectory loop stays free of
// shared-cacheline traffic.
var (
	mixTrajectories = telemetry.Default().Counter("qfarith_trajectories_total")
	mixErrorEvents  = telemetry.Default().Counter("qfarith_error_events_total")
	mixEventSpans   = telemetry.Default().Counter("qfarith_error_event_spans_total")

	// Which block layout each run took (see Engine.load): live blocks
	// over the key wires, or one block over every wire.
	mixRunsFactored = telemetry.Default().Counter("qfarith_mixture_runs_total", telemetry.L("state", "factored"))
	mixRunsDense    = telemetry.Default().Counter("qfarith_mixture_runs_total", telemetry.L("state", "dense"))
)

// pauli1 applies the 1q Pauli encoded 1..3 (X, Y, Z) to qubit q.
func pauli1(st *sim.State, q int, p uint8) {
	switch p {
	case 1:
		st.X(q)
	case 2:
		st.Y(q)
	case 3:
		st.Z(q)
	}
}

// MixtureOpts configures Mixture.
type MixtureOpts struct {
	// Trajectories is the number of conditional (≥1 error) trajectories
	// averaged to estimate the noisy component of the output mixture.
	Trajectories int
	// Measure lists the qubits (LSB first) whose marginal distribution is
	// returned.
	Measure []int
	// IdealOut, when non-nil, receives the error-free distribution that
	// Mixture computes for the w0 stratum (same length as out) —
	// callers use it for fidelity diagnostics without a second pass.
	IdealOut []float64
}

// mixScratch bundles every buffer Mixture needs so the whole working
// set recycles through one pool entry and steady-state calls allocate
// nothing.
type mixScratch struct {
	events []Event   // all K event lists, flattened
	offs   []int     // offs[t]..offs[t+1] bounds trajectory t's events
	first  []int     // first-error span index per trajectory
	order  []int     // trajectory indices sorted by first-error span
	count  []int     // counting-sort workspace
	marg   []float64 // K per-trajectory marginals, k*len(out) flat
	ideal  []float64 // error-free marginal
	// Block-walk scratch: projected diagonal terms, one op's terms,
	// the per-block cursors of the ascending merge (or the key order of
	// the blocks), the blocks' physical keys, the bin table of the
	// key-order walk, and the merge's physical-to-local index table.
	active  []circuit.DiagTerm
	opTerms []circuit.DiagTerm
	cur     []int
	glob    []uint64
	bins    []int
	perm    []int
}

var mixPool = sync.Pool{New: func() any { return new(mixScratch) }}

// grownInts returns buf resized to n, reallocating only when capacity is
// exceeded. Contents are unspecified.
func grownInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

func grownUints(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
	}
	return buf[:n]
}

func grownFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// Mixture estimates the measurement distribution of the noisy circuit
// on the input state whose nonzero amplitudes initial lists, with
// distinct indices (nil means |0…0⟩), normalized:
//
//	P ≈ w0 · P_ideal + (1-w0) · mean_K( P_trajectory | ≥1 error )
//
// The no-error stratum is exact; only the conditional remainder is Monte
// Carlo, and with Trajectories → ∞ the estimate converges to the true
// channel output. Setting Trajectories equal to the shot count
// reproduces the paper's per-shot noise semantics exactly in
// distribution. out must have length 2^len(opts.Measure).
//
// The input loads as sim.Blocks (see load): live blocks over the
// circuit's key wires when they pay off, else one block over every
// wire. Internally the K trajectories are sampled up front (with the
// exact RNG draw order of K sequential SampleConditional calls),
// grouped by the span their first error lands in, and simulated from a
// checkpoint of the shared error-free prefix — computed once per group
// by a single forward pass that also yields the ideal stratum.
// Marginals accumulate into out in the original trajectory order, so
// the result is bit-identical to the naive loop that re-simulates
// every trajectory from the start on one statevector.
func (e *Engine) Mixture(out []float64, initial []sim.Amp, opts MixtureOpts, rng *rand.Rand) {
	if len(out) != 1<<uint(len(opts.Measure)) {
		panic("noise: output buffer size mismatch")
	}
	sc := mixPool.Get().(*mixScratch)
	defer mixPool.Put(sc)
	p, fs := e.load(initial, sc)
	defer sim.PutBlocks(fs)
	e.mixtureBlocks(out, p, fs, sc, opts, rng)
}

// mixtureBlocks is Mixture on the loaded input fs, laid out under p, and
// overwritten: sample and group the K trajectories, run each group from
// the prefix checkpoint at its first-error span, finish the prefix into
// the ideal stratum, and accumulate.
func (e *Engine) mixtureBlocks(out []float64, p *factPlan, fs *sim.Blocks, sc *mixScratch, opts MixtureOpts, rng *rand.Rand) {
	w := blockWalk{e: e, p: p, prefix: fs, measure: opts.Measure, sc: sc}
	if e.w0 >= 1 {
		// Error-free model: the mixture is exactly the ideal distribution.
		w.advance(0, len(e.Res.Spans))
		w.probs(out, true)
		if opts.IdealOut != nil {
			copy(opts.IdealOut, out)
		}
		return
	}
	w.work = sim.GetBlocks(fs.NumQubits(), p.mask)
	defer sim.PutBlocks(w.work)
	k := max(opts.Trajectories, 1)
	m := len(out)
	e.sampleAndGroup(sc, k, rng)
	sc.marg = grownFloats(sc.marg, k*m)
	cur := 0
	for gi := 0; gi < k; {
		s := sc.first[sc.order[gi]]
		w.advance(cur, s)
		cur = s
		for ; gi < k && sc.first[sc.order[gi]] == s; gi++ {
			t := sc.order[gi]
			w.branch()
			ev := sc.events[sc.offs[t]:sc.offs[t+1]]
			if used := w.run(ev, s); used != len(ev) {
				panic("noise: trajectory events out of range")
			}
			w.probs(sc.marg[t*m:(t+1)*m], false)
		}
	}
	w.advance(cur, len(e.Res.Spans))
	sc.ideal = grownFloats(sc.ideal, m)
	w.probs(sc.ideal, true)
	if opts.IdealOut != nil {
		copy(opts.IdealOut, sc.ideal)
	}
	e.accumulate(out, sc, k)
}

// accumulate writes the mixture into out in the order the naive loop
// used: ideal stratum first, then trajectories 0..K-1 — identical float
// additions, identical out, whichever layout produced the marginals.
func (e *Engine) accumulate(out []float64, sc *mixScratch, k int) {
	m := len(out)
	clear(out)
	sim.MixInto(out, sc.ideal, e.w0)
	wt := (1 - e.w0) / float64(k)
	for t := 0; t < k; t++ {
		sim.MixInto(out, sc.marg[t*m:(t+1)*m], wt)
	}
}

// sampleAndGroup samples the K conditional event lists into sc in
// trajectory order and computes the stable grouping of trajectories by
// first-error span. This is the mixture's single sampling stage: all
// randomness is consumed here, in the exact per-trajectory draw order
// documented in DESIGN.md, so every layout sees bit-identical event
// lists for a fixed seed.
func (e *Engine) sampleAndGroup(sc *mixScratch, k int, rng *rand.Rand) {
	sc.events = sc.events[:0]
	sc.offs = grownInts(sc.offs, k+1)
	for t := 0; t < k; t++ {
		sc.offs[t] = len(sc.events)
		sc.events = e.sampleConditionalAppend(sc.events, rng)
	}
	sc.offs[k] = len(sc.events)
	mixTrajectories.Add(uint64(k))
	mixErrorEvents.Add(uint64(len(sc.events)))
	spans := 0
	for t := 0; t < k; t++ {
		prev := -1
		for _, ev := range sc.events[sc.offs[t]:sc.offs[t+1]] {
			if s := e.spanOf[ev.PhysIdx]; s != prev {
				spans++
				prev = s
			}
		}
	}
	mixEventSpans.Add(uint64(spans))

	// Stable counting sort of trajectories by first-error span, so each
	// checkpoint prefix is computed once and reused by its whole group.
	nSpans := len(e.Res.Spans)
	sc.first = grownInts(sc.first, k)
	sc.count = grownInts(sc.count, nSpans+1)
	for i := range sc.count {
		sc.count[i] = 0
	}
	for t := 0; t < k; t++ {
		s := e.spanOf[sc.events[sc.offs[t]].PhysIdx]
		sc.first[t] = s
		sc.count[s]++
	}
	pos := 0
	for s := 0; s < nSpans; s++ {
		c := sc.count[s]
		sc.count[s] = pos
		pos += c
	}
	sc.order = grownInts(sc.order, k)
	for t := 0; t < k; t++ {
		sc.order[sc.count[sc.first[t]]] = t
		sc.count[sc.first[t]]++
	}
}
