package noise

import (
	"math/rand/v2"

	"qfarith/internal/gate"
	"qfarith/internal/sim"
	"qfarith/internal/telemetry"
	"qfarith/internal/transpile"
)

// Batched-mixture telemetry: batches executed, lanes filled into them,
// and distribution shape. The size histogram shows how often the tail
// batch runs short; the fill ratio measures how much of each batch's
// span range every lane participates in (1.0 = all lanes branch at the
// same first-error span, lower = late-branching lanes idle while early
// lanes stream).
var (
	batchCount    = telemetry.Default().Counter("qfarith_mixture_batches_total")
	batchLanes    = telemetry.Default().Counter("qfarith_mixture_batch_lanes_total")
	batchSizeHist = telemetry.Default().Histogram("qfarith_mixture_batch_size")
	batchFillHist = telemetry.Default().Histogram("qfarith_mixture_batch_fill_ratio")
	batchSpecials = telemetry.Default().Counter("qfarith_mixture_batch_lane_segments_total", telemetry.L("kind", "special"))
	batchStreamed = telemetry.Default().Counter("qfarith_mixture_batch_lane_segments_total", telemetry.L("kind", "batched"))
)

// MixtureBatchInto computes exactly what MixtureInto computes — same
// inputs, same RNG draws, bit-identical out — but simulates up to batch
// conditional trajectories at a time through the structure-of-arrays
// BatchState kernels instead of one statevector at a time.
//
// The sampling stage is shared with the scalar path (sampleAndGroup),
// so the per-trajectory RNG draw order of DESIGN.md is preserved by
// construction. Trajectories are taken in first-error-span order (the
// same stable order the scalar checkpointing uses); each batch seeds
// its lanes from the progressively advanced error-free prefix and then
// walks the fused program segment by segment in lockstep:
//
//   - a lane whose pending events stay outside the segment takes the
//     batched kernel path (contiguous runs of such lanes per call);
//   - a lane with an event inside the segment runs that segment alone
//     through runSpanRangeLane, a per-lane mirror of the scalar
//     runSpanRange built entirely from single-lane batched kernel calls
//     (each bit-identical to its scalar counterpart), so the lane never
//     leaves the batch.
//
// Because diagonal segments split bit-exactly at op boundaries and
// applyFusedRange decomposes at segment boundaries internally, the
// per-segment walk performs the same floating-point operations in the
// same order as one scalar pass over the whole trajectory.
//
// st holds the prepared input on entry, as for MixtureInto, and doubles
// as the error-free prefix, so a run holds one statevector plus the
// batch lanes. batch <= 1 (or k == 1) delegates to the scalar
// MixtureInto.
func (e *Engine) MixtureBatchInto(out []float64, st *sim.State, opts MixtureOpts, rng *rand.Rand, batch int) {
	k := opts.Trajectories
	if k < 1 {
		k = 1
	}
	if batch > k {
		batch = k
	}
	if batch <= 1 || k == 1 || e.w0 >= 1 {
		e.MixtureInto(out, st, opts, rng)
		return
	}
	m := 1 << uint(len(opts.Measure))
	if len(out) != m {
		panic("noise: output buffer size mismatch")
	}
	sc := mixPool.Get().(*mixScratch)
	defer mixPool.Put(sc)
	e.sampleAndGroup(sc, k, rng)

	nSpans := len(e.Res.Spans)
	sc.marg = grownFloats(sc.marg, k*m)
	sc.laneStart = grownInts(sc.laneStart, batch)
	sc.evCur = grownInts(sc.evCur, batch)
	sc.evEnd = grownInts(sc.evEnd, batch)
	sc.lprob = grownFloats(sc.lprob, batch*m)

	prefix := st // the input state advances in place as the error-free prefix
	bs := sim.GetScratchBatch(st.NumQubits(), batch)
	defer sim.PutScratchBatch(bs)

	cur := 0
	for gi := 0; gi < k; gi += batch {
		gj := gi + batch
		if gj > k {
			gj = k
		}
		lanes := gj - gi
		// Seed each lane from the prefix at its own first-error span.
		// sc.order is ascending in first span, so the prefix advances
		// monotonically and splits at exactly the same op boundaries as
		// the scalar checkpointing loop.
		for l := 0; l < lanes; l++ {
			t := sc.order[gi+l]
			if s := sc.first[t]; s > cur {
				e.applyFusedRange(prefix, cur, s)
				cur = s
			}
			bs.SeedLane(l, prefix)
			sc.laneStart[l] = sc.first[t]
			sc.evCur[l] = sc.offs[t]
			sc.evEnd[l] = sc.offs[t+1]
		}
		e.runSpanBatch(bs, sc, lanes)
		bs.RegisterProbsIntoLanes(sc.lprob[:lanes*m], opts.Measure, lanes)
		for l := 0; l < lanes; l++ {
			if sc.evCur[l] != sc.evEnd[l] {
				panic("noise: batched trajectory events out of range")
			}
			t := sc.order[gi+l]
			copy(sc.marg[t*m:(t+1)*m], sc.lprob[l*m:(l+1)*m])
		}

		batchCount.Inc()
		batchLanes.Add(uint64(lanes))
		batchSizeHist.Observe(float64(lanes))
		if span0 := nSpans - sc.laneStart[0]; span0 > 0 {
			active := 0
			for l := 0; l < lanes; l++ {
				active += nSpans - sc.laneStart[l]
			}
			batchFillHist.Observe(float64(active) / float64(lanes*span0))
		}
	}
	e.applyFusedRange(prefix, cur, nSpans)
	sc.ideal = grownFloats(sc.ideal, m)
	prefix.RegisterProbsInto(sc.ideal, opts.Measure)
	if opts.IdealOut != nil {
		copy(opts.IdealOut, sc.ideal)
	}

	e.accumulate(out, sc, k)
}

// runSpanBatch runs the seeded lanes [0, lanes) of bs to the end of the
// circuit. Lane l holds the error-free prefix state at span
// sc.laneStart[l] with pending events sc.events[sc.evCur[l]:sc.evEnd[l]];
// lane starts are ascending, so the lanes participating in any point of
// the walk always form a prefix of the batch.
//
// Non-diagonal segments are processed atomically (a fused 1q matrix
// cannot be split bit-exactly, so a lane with an event inside runs the
// whole segment alone). Diagonal segments — the bulk of Fourier
// arithmetic — split bit-exactly at any span boundary (Segment.TermsFor),
// so they are walked span-granularly: every event-free stretch runs
// batched across all entered lanes, and only the single span carrying a
// lane's event runs on that lane alone.
func (e *Engine) runSpanBatch(bs *sim.BatchState, sc *mixScratch, lanes int) {
	fp := e.Res.Fused()
	nSpans := len(e.Res.Spans)
	var nSpecial, nBatched uint64
	p := 0 // lanes entered so far (prefix [0, p))
	cur := sc.laneStart[0]
	for cur < nSpans {
		seg := &fp.Segments[fp.SegOfSrc[cur]]
		if seg.Kind != transpile.SegDiag {
			// Segment-atomic path: plain lanes take the fused batched
			// kernel, lanes with an event (or entry point) inside run the
			// segment alone via single-lane batched calls.
			for p < lanes && sc.laneStart[p] < seg.SrcEnd {
				p++
			}
			runLo := -1
			for l := 0; l < p; l++ {
				special := sc.laneStart[l] > seg.SrcStart ||
					(sc.evCur[l] < sc.evEnd[l] && e.spanOf[sc.events[sc.evCur[l]].PhysIdx] < seg.SrcEnd)
				if !special {
					if runLo < 0 {
						runLo = l
					}
					continue
				}
				if runLo >= 0 {
					e.applySegBatch(bs, seg, runLo, l)
					nBatched += uint64(l - runLo)
					runLo = -1
				}
				lo := seg.SrcStart
				if sc.laneStart[l] > lo {
					lo = sc.laneStart[l]
					sc.laneStart[l] = seg.SrcStart // lane fully active from here on
				}
				used := e.runSpanRangeLane(bs, sc.events[sc.evCur[l]:sc.evEnd[l]], lo, seg.SrcEnd, l)
				sc.evCur[l] += used
				nSpecial++
			}
			if runLo >= 0 {
				e.applySegBatch(bs, seg, runLo, p)
				nBatched += uint64(p - runLo)
			}
			cur = seg.SrcEnd
			continue
		}
		// Span-granular diagonal walk. Lanes enter exactly at their
		// branch span; per entered lane the term sequence concatenates to
		// the same per-amplitude multiplies as the scalar engine's
		// TermsFor splits, so every lane stays bit-identical.
		segEnd := seg.SrcEnd
		for cur < segEnd {
			for p < lanes && sc.laneStart[p] <= cur {
				p++
			}
			next := segEnd
			if p < lanes && sc.laneStart[p] < next {
				next = sc.laneStart[p]
			}
			evHere := false
			for l := 0; l < p; l++ {
				if sc.evCur[l] < sc.evEnd[l] {
					if s := e.spanOf[sc.events[sc.evCur[l]].PhysIdx]; s == cur {
						evHere = true
					} else if s < next {
						next = s
					}
				}
			}
			if !evHere {
				bs.ApplyDiagTermsBatch(seg.TermsFor(cur, next), 0, p)
				nBatched += uint64(p)
				cur = next
				continue
			}
			// Span cur carries at least one event: those lanes run it
			// alone; contiguous runs of the rest take its terms batched.
			terms := seg.TermsFor(cur, cur+1)
			runLo := -1
			for l := 0; l < p; l++ {
				hasEv := sc.evCur[l] < sc.evEnd[l] && e.spanOf[sc.events[sc.evCur[l]].PhysIdx] == cur
				if !hasEv {
					if runLo < 0 {
						runLo = l
					}
					continue
				}
				if runLo >= 0 {
					bs.ApplyDiagTermsBatch(terms, runLo, l)
					nBatched += uint64(l - runLo)
					runLo = -1
				}
				used := e.runSpanRangeLane(bs, sc.events[sc.evCur[l]:sc.evEnd[l]], cur, cur+1, l)
				sc.evCur[l] += used
				nSpecial++
			}
			if runLo >= 0 {
				bs.ApplyDiagTermsBatch(terms, runLo, p)
				nBatched += uint64(p - runLo)
			}
			cur++
		}
	}
	batchSpecials.Add(nSpecial)
	batchStreamed.Add(nBatched)
}

// runSpanRangeLane is runSpanRange on one lane of a batch: it simulates
// spans [lo, hi) with the given events (sorted by PhysIdx) on lane
// `lane` and returns how many events were consumed. Every kernel call is
// the single-lane batched counterpart of the scalar call runSpanRange
// would make, so the lane's amplitudes stay bit-identical to the scalar
// engine's without ever leaving the structure-of-arrays buffer.
func (e *Engine) runSpanRangeLane(bs *sim.BatchState, events []Event, lo, hi, lane int) int {
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
			e.applyFusedRangeLane(bs, si, next, lane)
			si = next
			continue
		}
		span := res.Spans[si]
		e2 := ei
		for e2 < len(events) && events[e2].PhysIdx < span.End {
			e2++
		}
		if e.applyEventSpanLane(bs, si, events[ei:e2], lane) {
			ei = e2
			si++
			continue
		}
		for pi := span.Start; pi < span.End; pi++ {
			bs.ApplyOpBatch(res.Ops[pi], lane, lane+1)
			for ei < len(events) && events[ei].PhysIdx == pi {
				e.applyEventLane(bs, events[ei], lane)
				ei++
			}
		}
		si++
	}
	return ei
}

// applyFusedRangeLane mirrors applyFusedRange on one lane of a batch.
func (e *Engine) applyFusedRangeLane(bs *sim.BatchState, lo, hi, lane int) {
	fp := e.Res.Fused()
	for i := lo; i < hi; {
		seg := &fp.Segments[fp.SegOfSrc[i]]
		end := seg.SrcEnd
		if end > hi {
			end = hi
		}
		switch seg.Kind {
		case transpile.SegDiag:
			bs.ApplyDiagTermsBatch(seg.TermsFor(i, end), lane, lane+1)
		case transpile.Seg1Q:
			if i == seg.SrcStart && end == seg.SrcEnd {
				bs.Apply1QBatch(seg.Qubit, seg.M[0], seg.M[1], seg.M[2], seg.M[3], lane, lane+1)
			} else {
				for j := i; j < end; j++ {
					bs.ApplyOpBatch(e.Res.Source[j], lane, lane+1)
				}
			}
		default:
			bs.ApplyOpBatch(e.Res.Source[i], lane, lane+1)
		}
		i = end
	}
}

// pauli1Lane mirrors pauli1 on one lane of a batch.
func pauli1Lane(bs *sim.BatchState, q int, p uint8, lane int) {
	switch p {
	case 1:
		bs.XBatch(q, lane, lane+1)
	case 2:
		bs.YBatch(q, lane, lane+1)
	case 3:
		bs.ZBatch(q, lane, lane+1)
	}
}

// applyEventLane mirrors applyEvent on one lane of a batch.
func (e *Engine) applyEventLane(bs *sim.BatchState, ev Event, lane int) {
	op := e.Res.Ops[ev.PhysIdx]
	if op.Kind == gate.CX {
		pauli1Lane(bs, op.Qubits[0], ev.Pauli>>2, lane)
		pauli1Lane(bs, op.Qubits[1], ev.Pauli&3, lane)
		return
	}
	pauli1Lane(bs, op.Qubits[0], ev.Pauli, lane)
}

// applySegBatch applies one fully covered fused segment to lanes
// [laneLo, laneHi) — the batched counterpart of applyFusedRange's
// full-segment arms.
func (e *Engine) applySegBatch(bs *sim.BatchState, seg *transpile.Segment, laneLo, laneHi int) {
	switch seg.Kind {
	case transpile.SegDiag:
		bs.ApplyDiagTermsBatch(seg.Terms, laneLo, laneHi)
	case transpile.Seg1Q:
		bs.Apply1QBatch(seg.Qubit, seg.M[0], seg.M[1], seg.M[2], seg.M[3], laneLo, laneHi)
	default:
		bs.ApplyOpBatch(e.Res.Source[seg.SrcStart], laneLo, laneHi)
	}
}
