package noise

import (
	"math/rand/v2"

	"qfarith/internal/gate"
	"qfarith/internal/sim"
	"qfarith/internal/transpile"
)

// The dense statevector mixture engine, frozen as the bit-identity
// oracle of Engine.Mixture: one 2^n State, the error-free prefix
// advanced through the fused program, event spans composed and applied
// with one ApplyKQ pass, routing SWAPs applied as gates rather than
// relabellings. It shares the sampling stage (sampleAndGroup) and the
// accumulation with Mixture, so the two see the same events and add
// the same terms; everything that evolves or reads the state is its
// own.

// applyEvent applies the Pauli insertion ev after native op ev.PhysIdx.
func (e *Engine) applyEvent(st *sim.State, ev Event) {
	op := e.Res.Ops[ev.PhysIdx]
	if op.Kind == gate.CX {
		pc := ev.Pauli >> 2
		pt := ev.Pauli & 3
		pauli1(st, op.Qubits[0], pc)
		pauli1(st, op.Qubits[1], pt)
		return
	}
	pauli1(st, op.Qubits[0], ev.Pauli)
}

// applyFusedRange applies the error-free source ops [lo, hi) to st
// through the circuit's fused program: diagonal runs go through the
// one-pass ApplyDiagTerms kernel, fused 1q runs through a single 2x2
// apply, everything else through the per-op kernels. Diagonal runs stay
// bit-exact with op-by-op execution even when [lo, hi) covers only part
// of a segment; a partially covered 1q segment falls back to op-by-op
// since its fused matrix cannot be split.
func (e *Engine) applyFusedRange(st *sim.State, lo, hi int) {
	fp := e.Res.Fused()
	for i := lo; i < hi; {
		seg := &fp.Segments[fp.SegOfSrc[i]]
		end := seg.SrcEnd
		if end > hi {
			end = hi
		}
		switch seg.Kind {
		case transpile.SegDiag:
			st.ApplyDiagTerms(seg.TermsFor(i, end))
		case transpile.Seg1Q:
			if i == seg.SrcStart && end == seg.SrcEnd {
				st.Apply1Q(seg.Qubit, seg.M[0], seg.M[1], seg.M[2], seg.M[3])
			} else {
				for j := i; j < end; j++ {
					st.ApplyOp(e.Res.Source[j])
				}
			}
		default:
			st.ApplyOp(e.Res.Source[i])
		}
		i = end
	}
}

// RunTrajectory applies the circuit to st with the given Pauli
// insertions (sorted by PhysIdx). Stretches of source ops whose native
// spans contain no event execute through the fused program; a span
// containing events is expanded into its native gates with the Paulis
// inserted at the exact physical positions, so the trajectory is
// bit-exact with a fully native simulation (up to global phase).
func (e *Engine) RunTrajectory(st *sim.State, events []Event) {
	ei := e.runTrajectoryFrom(st, events, 0)
	// Events beyond the last span would indicate corrupted input.
	if ei != len(events) {
		panic("noise: trajectory events out of range")
	}
}

// runTrajectoryFrom simulates spans [startSpan, end) with the given
// events (sorted by PhysIdx, all inside the simulated range) and returns
// how many events were consumed. st must already hold the error-free
// state after spans [0, startSpan).
func (e *Engine) runTrajectoryFrom(st *sim.State, events []Event, startSpan int) int {
	return e.runSpanRange(st, events, startSpan, len(e.Res.Spans))
}

// runSpanRange simulates spans [lo, hi) with the given events (sorted by
// PhysIdx) and returns how many events were consumed. Events whose span
// is ≥ hi are left unconsumed for a later call, so a trajectory can be
// executed as any sequence of runSpanRange calls over adjacent ranges
// and stay bit-identical to one full pass: applyFusedRange decomposes at
// segment boundaries internally, and diagonal segments split bit-exactly
// at any op boundary (Segment.TermsFor).
func (e *Engine) runSpanRange(st *sim.State, events []Event, lo, hi int) int {
	res := e.Res
	ei := 0
	for si := lo; si < hi; {
		next := hi
		if ei < len(events) {
			if s := e.spanOf[events[ei].PhysIdx]; s < hi {
				next = s
			}
		}
		if next > si {
			// Event-free stretch: fused fast path. (Spans and Source are
			// index-aligned, so span indices are source-op indices.)
			e.applyFusedRange(st, si, next)
			si = next
			continue
		}
		// The next event lands inside span si. Gather every event in the
		// span and apply natives+Paulis as one dense unitary; spans on
		// more than MaxDenseQubits qubits expand natively instead.
		span := res.Spans[si]
		e2 := ei
		for e2 < len(events) && events[e2].PhysIdx < span.End {
			e2++
		}
		if e.applyEventSpan(st, si, events[ei:e2]) {
			ei = e2
			si++
			continue
		}
		for pi := span.Start; pi < span.End; pi++ {
			st.ApplyOp(res.Ops[pi])
			for ei < len(events) && events[ei].PhysIdx == pi {
				e.applyEvent(st, events[ei])
				ei++
			}
		}
		si++
	}
	return ei
}

// applyEventSpan applies span si's native ops, with the given events
// (all inside the span, sorted by PhysIdx) inserted, to st as one dense
// unitary. Returns false if the span touches more than MaxDenseQubits
// distinct qubits, in which case the caller must expand it natively.
func (e *Engine) applyEventSpan(st *sim.State, si int, events []Event) bool {
	var qs [sim.MaxDenseQubits]int
	var rm [maxDenseDim * maxDenseDim]complex128
	k, ok := composeSpan(e.Res.Ops, e.Res.Spans[si], events, &qs, &rm)
	if !ok {
		return false
	}
	st.ApplyKQ(qs[:k], rm[:(1<<uint(k))*(1<<uint(k))])
	return true
}

// MixtureInto estimates the measurement distribution of the noisy
// circuit on the given initial amplitudes:
//
//	P ≈ w0 · P_ideal + (1-w0) · mean_K( P_trajectory | ≥1 error )
//
// The no-error stratum is exact; only the conditional remainder is Monte
// Carlo, and with Trajectories → ∞ the estimate converges to the true
// channel output. Setting Trajectories equal to the shot count
// reproduces the paper's per-shot noise semantics exactly in
// distribution. st holds the prepared, normalized input state on entry
// and is overwritten; out must have length 2^len(opts.Measure).
//
// Internally the K trajectories are sampled up front (with the exact RNG
// draw order of K sequential SampleConditional calls), grouped by the
// span their first error lands in, and simulated from a checkpoint of
// the shared error-free prefix — computed once per group by a single
// forward pass that also yields the ideal stratum. Marginals accumulate
// into out in the original trajectory order, so the result is
// bit-identical to the naive loop that re-simulates every trajectory
// from the start.
func (e *Engine) MixtureInto(out []float64, st *sim.State, opts MixtureOpts, rng *rand.Rand) {
	m := 1 << uint(len(opts.Measure))
	if len(out) != m {
		panic("noise: output buffer size mismatch")
	}
	if e.w0 >= 1 {
		// Error-free model: the mixture is exactly the ideal distribution.
		e.applyFusedRange(st, 0, len(e.Res.Source))
		st.RegisterProbsInto(out, opts.Measure)
		if opts.IdealOut != nil {
			copy(opts.IdealOut, out)
		}
		return
	}
	prefix := sim.GetScratchState(st.NumQubits())
	defer sim.PutScratchState(prefix)
	prefix.CopyFrom(st)
	sc := mixPool.Get().(*mixScratch)
	defer mixPool.Put(sc)
	e.denseCheckpointed(out, &denseWalk{e: e, prefix: prefix, work: st, measure: opts.Measure}, sc, opts, rng)
}

// checkpointWalk is the state representation the checkpointed mixture
// loop evolves: an error-free prefix that advances through the circuit,
// and a work state each trajectory branches into.
type checkpointWalk interface {
	// advance applies the error-free source ops [lo, hi) to the prefix.
	advance(lo, hi int)
	// branch copies the prefix into the work state.
	branch()
	// run simulates spans [from, end) with events on the work state and
	// returns how many events it consumed.
	run(events []Event, from int) int
	// probs writes the measured marginal of the prefix or work state.
	probs(out []float64, prefix bool)
}

// denseWalk is the statevector checkpointWalk.
type denseWalk struct {
	e            *Engine
	prefix, work *sim.State
	measure      []int
}

func (w *denseWalk) advance(lo, hi int) { w.e.applyFusedRange(w.prefix, lo, hi) }
func (w *denseWalk) branch()            { w.work.CopyFrom(w.prefix) }
func (w *denseWalk) run(events []Event, from int) int {
	return w.e.runTrajectoryFrom(w.work, events, from)
}
func (w *denseWalk) probs(out []float64, prefix bool) {
	st := w.work
	if prefix {
		st = w.prefix
	}
	st.RegisterProbsInto(out, w.measure)
}

// denseCheckpointed is the checkpointed mixture loop over a
// checkpointWalk: sample and group the K trajectories, run each group
// from the prefix checkpoint at its first-error span, finish the prefix
// into the ideal stratum, and accumulate.
func (e *Engine) denseCheckpointed(out []float64, w checkpointWalk, sc *mixScratch, opts MixtureOpts, rng *rand.Rand) {
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
