package noise

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"qfarith/internal/circuit"
	"qfarith/internal/gate"
	"qfarith/internal/sim"
	"qfarith/internal/transpile"
)

// Factored execution of basis registers.
//
// In Fourier arithmetic only the target register leaves the
// computational basis: the addend of a QFA only controls phase
// rotations, and the multiplier and multiplicand of a QFM only control
// rotations and CXs. Such a basis-preserving ("key") qubit holds a
// definite value in every basis-state term, so a state whose input
// spans few key values has few nonzero amplitudes: a fig3 adder on a
// 2:2 input keeps at most 2 × 2^8 of its 2^15 amplitudes nonzero.
//
// The factored path stores only those amplitudes, as sim.Blocks: one
// ordinary State over the dense qubits per live key value. Every op is
// either a call of the existing State kernels on each block, with
// qubits and diagonal-term masks projected onto the block, or a
// relabelling of block keys (X/Y on a key qubit, a CX among key
// qubits). Because a key map is a bijection, the block count is
// invariant along a trajectory.
//
// Every mixture run evolves sim.Blocks under a factPlan: the keyed plan
// over the circuit's key wires when the input's key values fit, else
// the one-block plan (mask 0), whose single block is the whole
// statevector. It is the same code either way.
//
// The blocks hold wires, not physical qubits. Wire w starts on
// physical qubit w, and a SWAP source op — a routing swap — exchanges
// the wires on its two qubits instead of moving amplitudes (onWires),
// so an addend qubit the router walks along a chain stays one key
// wire. A SWAP span with events applies SWAP·U, a phased Pauli, to the
// wires before the exchange.
//
// Every nonzero amplitude sees the same floating-point operations in
// the same order as in the dense statevector engine kept as the test
// oracle; the amplitudes a statevector holds outside the blocks are
// exactly zero there and only ever meet other zeros or exact-zero
// matrix entries, so dropping them changes no result bit.
// Probabilities and norms are summed in ascending physical basis
// index, the statevector's order. When no
// unmeasured dense qubit lies above an unmeasured key qubit — on fig3,
// fig4 and the routed adders every dense qubit is measured — the
// blocks that reach one probability bin differ only in key bits above
// the bin's free dense bits, so registerProbsBlocks visits blocks in
// ascending physical key and adds each block's |a|² in local order:
// the same additions in the same order. Other layouts, and the input
// norm, take a k-way merge over the blocks.

// factPlan is an engine's factored-execution plan: the circuit on
// wires, its key wires, and each fused diagonal segment's terms split
// into a key part and a dense part compacted onto block-local bits.
type factPlan struct {
	w     *transpile.Result // the engine's circuit on wires (onWires)
	at    frame             // where the wires end up
	mask  uint64
	nd    int   // dense wire count
	local []int // local[w] is dense wire w's block-local index, -1 for key wires
	// segTerms[si] mirrors w.Fused().Segments[si].Terms (empty for
	// segments other than SegDiag).
	segTerms [][]factTerm
}

// factTerm is a diagonal term split for factored execution: it applies
// to blocks whose key matches keySel/keyVal, as term (Sel/Val over
// block-local bits).
type factTerm struct {
	keySel, keyVal uint64
	term           circuit.DiagTerm
}

// onWires returns res with every qubit replaced by the wire it holds at
// that op: wire w starts on physical qubit w, and each SWAP source op
// exchanges the wires on its two qubits, so it and its natives name
// the wires before the exchange. Spans, and so the fused segments, are
// res's. The frame places the wires after the last op. Without a SWAP,
// the result is res itself, with its memoized fused program.
func onWires(res *transpile.Result) (*transpile.Result, frame) {
	if !slices.ContainsFunc(res.Source, func(op circuit.Op) bool { return op.Kind == gate.SWAP }) {
		return res, nil
	}
	n := res.NumQubits
	wire := make([]int, n) // wire[q] is the wire on physical qubit q
	for q := range wire {
		wire[q] = q
	}
	w := &transpile.Result{NumQubits: n, Ops: slices.Clone(res.Ops), Source: slices.Clone(res.Source), Spans: res.Spans}
	rename := func(op *circuit.Op) {
		for a := 0; a < op.Kind.Arity(); a++ {
			op.Qubits[a] = wire[op.Qubits[a]]
		}
	}
	for si, sp := range res.Spans {
		rename(&w.Source[si])
		for pi := sp.Start; pi < sp.End; pi++ {
			rename(&w.Ops[pi])
		}
		if op := res.Source[si]; op.Kind == gate.SWAP {
			a, b := op.Qubits[0], op.Qubits[1]
			wire[a], wire[b] = wire[b], wire[a]
		}
	}
	at := make(frame, n)
	for q, x := range wire {
		at[x] = q
	}
	return w, at
}

// frame places wires on physical qubits: frame[w] is the physical qubit
// that holds wire w. The nil frame keeps every wire on its own qubit.
type frame []int

// qubit returns wire w's physical qubit.
func (f frame) qubit(w int) int {
	if f == nil {
		return w
	}
	return f[w]
}

// phys moves the wire bits of x to their physical positions.
func (f frame) phys(x uint64) uint64 {
	if f == nil {
		return x
	}
	var out uint64
	for ; x != 0; x &= x - 1 {
		out |= 1 << uint(f[bits.TrailingZeros64(x)])
	}
	return out
}

// BasisMask returns res's basis-preserving wires (see onWires; without
// SWAPs, wire w is qubit w): those that every source and native op maps
// basis state to (phase ×) basis state, with a new value depending only
// on basis-preserving wires. It is the fixpoint of evicting, from the
// set of all wires,
//
//   - the wire of a fused non-diagonal 1q segment, and the target of
//     any op that puts it into superposition (H, SX, RY, CH, ...);
//   - the target of a CX or CCX with a control outside the set.
//
// Diagonal gates and X/Y evict nothing, nor do SWAPs and their natives:
// a SWAP is a relabelling of wires.
func BasisMask(res *transpile.Result) uint64 {
	w, _ := onWires(res)
	return basisMask(w)
}

func basisMask(w *transpile.Result) uint64 {
	mask := uint64(1)<<uint(w.NumQubits) - 1
	for _, seg := range w.Fused().Segments {
		if seg.Kind == transpile.Seg1Q {
			mask &^= 1 << uint(seg.Qubit)
		}
	}
	in := func(q int) bool { return mask>>uint(q)&1 == 1 }
	for changed := true; changed; {
		changed = false
		evict := func(q int) {
			if in(q) {
				mask &^= 1 << uint(q)
				changed = true
			}
		}
		visit := func(op circuit.Op) {
			k, q := op.Kind, op.Qubits
			nc := k.Controls()
			switch {
			case k.Diagonal(), k == gate.X, k == gate.Y:
			case k == gate.CX, k == gate.CCX:
				for _, c := range q[:nc] {
					if !in(c) {
						evict(q[nc])
					}
				}
			case nc > 0 && k.Arity() == nc+1:
				evict(q[nc])
			default:
				for _, x := range q[:k.Arity()] {
					evict(x)
				}
			}
		}
		for si, sp := range w.Spans {
			if w.Source[si].Kind == gate.SWAP {
				continue
			}
			visit(w.Source[si])
			for _, op := range w.Ops[sp.Start:sp.End] {
				visit(op)
			}
		}
	}
	return mask
}

// newFactPlan builds the plan that lays the circuit on wires w, placed
// by at, out over the key wires mask.
func newFactPlan(w *transpile.Result, at frame, mask uint64) *factPlan {
	n := w.NumQubits
	p := &factPlan{w: w, at: at, mask: mask, nd: n - bits.OnesCount64(mask), local: make([]int, n)}
	j := 0
	for q := 0; q < n; q++ {
		if p.isKey(q) {
			p.local[q] = -1
		} else {
			p.local[q] = j
			j++
		}
	}
	fp := w.Fused()
	total := 0
	for _, seg := range fp.Segments {
		total += len(seg.Terms)
	}
	all := make([]factTerm, 0, total) // one backing array for every segment
	p.segTerms = make([][]factTerm, len(fp.Segments))
	for si, seg := range fp.Segments {
		lo := len(all)
		for _, t := range seg.Terms {
			all = append(all, factTerm{
				keySel: t.Sel & mask, keyVal: t.Val & mask,
				term: circuit.DiagTerm{
					Sel: p.compact(t.Sel), Val: p.compact(t.Val),
					Phase: t.Phase, Src: t.Src,
				},
			})
		}
		p.segTerms[si] = all[lo:len(all):len(all)]
	}
	return p
}

// keyedPlan returns the engine's plan over BasisMask's key wires, or
// nil when the circuit has no key wire or no dense one, or — a safety
// net behind the analysis — when an event span's key image would
// depend on dense wires. It is built on first use.
func (e *Engine) keyedPlan() *factPlan {
	e.keyedOnce.Do(func() {
		w, at := onWires(e.Res)
		mask := basisMask(w)
		if nk := bits.OnesCount64(mask); nk == 0 || nk == e.Res.NumQubits {
			return
		}
		p := newFactPlan(w, at, mask)
		for si := range p.w.Spans {
			if !keyImageOK(p, si) {
				return
			}
		}
		e.keyed = p
	})
	return e.keyed
}

// flatPlan returns the engine's one-block plan (mask 0: every wire
// dense, local the identity), built on first use. Routing SWAPs stay
// relabellings of wires.
func (e *Engine) flatPlan() *factPlan {
	e.flatOnce.Do(func() {
		w, at := onWires(e.Res)
		e.flat = newFactPlan(w, at, 0)
	})
	return e.flat
}

// fits reports whether a run whose input spans keys distinct key values
// should take p's layout: keyed blocks, keys × 2^n_d amplitudes, must
// be at most a quarter of the 2^n statevector; the one-block layout
// always fits.
func (p *factPlan) fits(keys int) bool {
	return p.mask == 0 || keys<<uint(p.nd) <= 1<<uint(len(p.local))>>2
}

// load lays initial (see Mixture) out as normalized blocks: under the
// keyed plan when there is one and the input's key values fit, else
// under the one-block plan. It counts the layout taken.
func (e *Engine) load(initial []sim.Amp, sc *mixScratch) (*factPlan, *sim.Blocks) {
	if p := e.keyedPlan(); p != nil {
		if fs := p.load(initial, sc); fs != nil {
			mixRunsFactored.Inc()
			return p, fs
		}
	}
	p := e.flatPlan()
	fs := p.load(initial, sc)
	mixRunsDense.Inc()
	return p, fs
}

// load returns initial as normalized blocks under p, or nil when its key
// values do not fit (see fits).
func (p *factPlan) load(initial []sim.Amp, sc *mixScratch) *sim.Blocks {
	fs := sim.GetBlocks(len(p.local), p.mask)
	if len(initial) == 0 {
		fs.Set(0, 1)
	}
	for _, a := range initial {
		fs.Set(a.Index, a.Value)
		if !p.fits(fs.Len()) {
			sim.PutBlocks(fs)
			return nil
		}
	}
	normalizeBlocks(fs, sc)
	return fs
}

func (p *factPlan) isKey(q int) bool { return p.mask>>uint(q)&1 == 1 }

// compact gathers x's dense-qubit bits onto block-local positions.
func (p *factPlan) compact(x uint64) uint64 {
	var out uint64
	for q, l := range p.local {
		if l >= 0 {
			out |= (x >> uint(q) & 1) << uint(l)
		}
	}
	return out
}

// blockWalk is the state the checkpointed mixture loop evolves under
// plan p: an error-free prefix that advances through the circuit, and
// a work state each trajectory branches into.
type blockWalk struct {
	e            *Engine
	p            *factPlan
	prefix, work *sim.Blocks
	measure      []int
	sc           *mixScratch
}

// advance applies the error-free source ops [lo, hi) to the prefix.
func (w *blockWalk) advance(lo, hi int) { w.applyFusedRange(w.prefix, lo, hi) }

// branch copies the prefix into the work state.
func (w *blockWalk) branch() { w.work.CopyFrom(w.prefix) }

// probs writes the measured marginal of the prefix or work state.
func (w *blockWalk) probs(out []float64, prefix bool) {
	fs := w.work
	if prefix {
		fs = w.prefix
	}
	registerProbsBlocks(fs, w.p.at, out, w.measure, w.sc)
}

// normalizeBlocks rescales fs to unit norm, bit-identically to
// State.Normalize on the equivalent statevector: the squared norm is
// summed in ascending global index, and the statevector's zeros add
// exactly 0 to it. A single block is that order already. Panics on the
// zero vector.
func normalizeBlocks(fs *sim.Blocks, sc *mixScratch) {
	if fs.Len() == 1 {
		fs.State(0).Normalize()
		return
	}
	var s float64
	walkAscending(fs, nil, sc, func(_ uint64, a complex128) {
		s += real(a)*real(a) + imag(a)*imag(a)
	})
	nrm := math.Sqrt(s)
	if nrm == 0 {
		panic("noise: cannot normalize zero state")
	}
	inv := complex(1/nrm, 0)
	for b := 0; b < fs.Len(); b++ {
		amps := fs.State(b).Amps()
		for i := range amps {
			amps[i] *= inv
		}
	}
}

// walkAscending calls visit for every block amplitude, at wires placed
// by at, in ascending physical basis index g: a k-way merge over the
// blocks, each of which enumerates its physical indices in ascending
// order — local order while the dense wires keep their relative order,
// else through densePerm.
func walkAscending(fs *sim.Blocks, at frame, sc *mixScratch, visit func(g uint64, a complex128)) {
	nb := fs.Len()
	dim := 1 << uint(len(fs.Dense()))
	mask := at.phys(fs.KeyMask())
	perm := densePerm(fs.Dense(), at, sc)
	sc.cur = grownInts(sc.cur, nb)
	sc.glob = grownUints(sc.glob, 2*nb)
	glob, keys := sc.glob[:nb], sc.glob[nb:]
	for b := 0; b < nb; b++ {
		sc.cur[b] = 0
		keys[b] = at.phys(fs.Key(b))
		glob[b] = keys[b]
	}
	for {
		best := -1
		var bg uint64
		for b := 0; b < nb; b++ {
			if sc.cur[b] < dim && (best < 0 || glob[b] < bg) {
				best, bg = b, glob[b]
			}
		}
		if best < 0 {
			return
		}
		i := sc.cur[best]
		if perm != nil {
			i = perm[i]
		}
		visit(bg, fs.State(best).Amps()[i])
		sc.cur[best]++
		// Next index with the same key bits: count with the key bits
		// forced on so the carry skips them.
		glob[best] = ((bg|mask)+1)&^mask | keys[best]
	}
}

// densePerm returns, for the dense wires placed by at, the local index
// of the c-th amplitude of a block in ascending physical order, or nil
// when that is c.
func densePerm(dense []int, at frame, sc *mixScratch) []int {
	if at == nil {
		return nil
	}
	var bitOf [sim.MaxQubits]int // local bit of the r-th lowest dense qubit
	sorted := true
	for j, x := range dense {
		r := 0
		for _, y := range dense {
			if at.qubit(y) < at.qubit(x) {
				r++
			}
		}
		bitOf[r] = j
		sorted = sorted && r == j
	}
	if sorted {
		return nil
	}
	perm := grownInts(sc.perm, 1<<uint(len(dense)))
	sc.perm = perm
	perm[0] = 0
	for c := 1; c < len(perm); c++ {
		perm[c] = perm[c&(c-1)] | 1<<uint(bitOf[bits.TrailingZeros(uint(c))])
	}
	return perm
}

// registerProbsBlocks is State.RegisterProbsInto on a block state
// whose wires at places on the physical qubits: each bin receives its
// contributions in ascending physical index, as in the dense walk. When
// keyOrderOK holds, visiting the blocks in ascending physical key
// achieves that order without merging them.
func registerProbsBlocks(fs *sim.Blocks, at frame, out []float64, qubits []int, sc *mixScratch) {
	if len(out) != 1<<uint(len(qubits)) {
		panic("noise: register output buffer size mismatch")
	}
	if fs.KeyMask() == 0 && at == nil {
		// One block on its own qubits: the statevector walk itself.
		fs.State(0).RegisterProbsInto(out, qubits)
		return
	}
	clear(out)
	if keyOrderOK(fs, at, qubits) {
		registerProbsKeyOrder(fs, at, out, qubits, sc)
	} else {
		registerProbsMerge(fs, at, out, qubits, sc)
	}
}

// registerProbsMerge adds every amplitude's |a|² to its bin in
// ascending physical index, by the k-way merge.
func registerProbsMerge(fs *sim.Blocks, at frame, out []float64, qubits []int, sc *mixScratch) {
	walkAscending(fs, at, sc, func(g uint64, a complex128) {
		v := 0
		for i, q := range qubits {
			v |= int(g>>uint(q)&1) << uint(i)
		}
		out[v] += real(a)*real(a) + imag(a)*imag(a)
	})
}

// keyOrderOK reports whether no unmeasured dense qubit lies above an
// unmeasured key qubit, and the unmeasured dense wires lie in local
// order. Within one bin the measured bits are fixed, so ascending
// physical index then means ascending unmeasured key bits — ascending
// physical key among the blocks that reach the bin — and, within a
// block, ascending local index.
func keyOrderOK(fs *sim.Blocks, at frame, qubits []int) bool {
	var measured uint64
	for _, q := range qubits {
		measured |= 1 << uint(q)
	}
	last := -1
	for _, x := range fs.Dense() {
		if q := at.qubit(x); measured>>uint(q)&1 == 0 {
			if q < last {
				return false
			}
			last = q
		}
	}
	keys := at.phys(fs.KeyMask())
	freeKey := keys &^ measured
	if freeKey == 0 {
		return true
	}
	freeDense := (uint64(1)<<uint(fs.NumQubits()) - 1) &^ keys &^ measured
	return freeDense>>uint(bits.TrailingZeros64(freeKey)) == 0
}

// registerProbsKeyOrder is registerProbsBlocks's walk for layouts that
// pass keyOrderOK: blocks in ascending physical key, each block's |a|²
// added in local order through a bin table of its dense wires'
// measured bits.
func registerProbsKeyOrder(fs *sim.Blocks, at frame, out []float64, qubits []int, sc *mixScratch) {
	var binBit [sim.MaxQubits]int // bin bit of each measured physical qubit
	for i, q := range qubits {
		binBit[q] = 1 << uint(i)
	}
	dense := fs.Dense()
	tbl := grownInts(sc.bins, 1<<uint(len(dense)))
	sc.bins = tbl
	tbl[0] = 0
	for i := 1; i < len(tbl); i++ {
		tbl[i] = tbl[i&(i-1)] | binBit[at.qubit(dense[bits.TrailingZeros(uint(i))])]
	}
	nb := fs.Len()
	order := grownInts(sc.cur, nb)
	sc.cur = order
	keys := grownUints(sc.glob, nb)
	sc.glob = keys
	for b := range order {
		order[b] = b
		keys[b] = at.phys(fs.Key(b))
	}
	slices.SortFunc(order, func(x, y int) int { return cmp.Compare(keys[x], keys[y]) })
	keyBits := at.phys(fs.KeyMask())
	for _, b := range order {
		key, kb := keys[b], 0
		for i, q := range qubits {
			if keyBits>>uint(q)&1 == 1 {
				kb |= int(key>>uint(q)&1) << uint(i)
			}
		}
		for i, a := range fs.State(b).Amps() {
			out[kb|tbl[i]] += real(a)*real(a) + imag(a)*imag(a)
		}
	}
}

// applyFusedRange applies the error-free source ops [lo, hi) to fs
// through the circuit's fused program: diagonal runs go through the
// one-pass ApplyDiagTerms kernel, fused 1q runs through a single 2x2
// apply, everything else through the per-op kernels. Diagonal runs stay
// bit-exact with op-by-op execution even when [lo, hi) covers only part
// of a segment; a partially covered 1q segment falls back to op-by-op
// since its fused matrix cannot be split.
func (w *blockWalk) applyFusedRange(fs *sim.Blocks, lo, hi int) {
	p := w.p
	fp := p.w.Fused()
	for i := lo; i < hi; {
		si := fp.SegOfSrc[i]
		seg := &fp.Segments[si]
		end := min(seg.SrcEnd, hi)
		switch seg.Kind {
		case transpile.SegDiag:
			applyDiagBlocks(fs, p.segTerms[si], i, end, w.sc)
		case transpile.Seg1Q:
			if i == seg.SrcStart && end == seg.SrcEnd {
				lq := p.local[seg.Qubit]
				for b := 0; b < fs.Len(); b++ {
					fs.State(b).Apply1Q(lq, seg.M[0], seg.M[1], seg.M[2], seg.M[3])
				}
			} else {
				for j := i; j < end; j++ {
					w.applyOp(fs, p.w.Source[j])
				}
			}
		default:
			w.applyOp(fs, p.w.Source[i])
		}
		i = end
	}
}

// applyDiagBlocks applies the terms lowered from source ops [lo, hi)
// (the split counterpart of Segment.TermsFor) to every block: each
// block gets, in term order, the dense parts of the terms whose key
// part it matches — per amplitude, the multiply sequence the dense
// ApplyDiagTerms performs.
func applyDiagBlocks(fs *sim.Blocks, terms []factTerm, lo, hi int, sc *mixScratch) {
	a, c := 0, len(terms)
	for a < c && terms[a].term.Src < lo {
		a++
	}
	for c > a && terms[c-1].term.Src >= hi {
		c--
	}
	terms = terms[a:c]
	for b := 0; b < fs.Len(); b++ {
		key := fs.Key(b)
		act := sc.active[:0]
		for i := range terms {
			if key&terms[i].keySel == terms[i].keyVal {
				act = append(act, terms[i].term)
			}
		}
		fs.State(b).ApplyDiagTerms(act)
		sc.active = act
	}
}

// applyOp applies one op (source or native, on wires) to fs, mirroring
// State.ApplyOp's kernel choice so every amplitude sees the same
// arithmetic. A SWAP does nothing: the wires of later ops already carry
// its exchange.
func (w *blockWalk) applyOp(fs *sim.Blocks, op circuit.Op) {
	p, sc := w.p, w.sc
	k, q := op.Kind, op.Qubits
	if k == gate.SWAP {
		return
	}
	ar := k.Arity()
	var keyBits uint64
	lop := op
	for a := 0; a < ar; a++ {
		if p.isKey(q[a]) {
			keyBits |= 1 << uint(q[a])
		} else {
			lop.Qubits[a] = p.local[q[a]]
		}
	}
	if keyBits == 0 {
		for b := 0; b < fs.Len(); b++ {
			fs.State(b).ApplyOp(lop)
		}
		return
	}
	nc := k.Controls()
	switch {
	case k == gate.X:
		pauliBlocks(p, fs, q[0], 1)
	case k == gate.Y:
		pauliBlocks(p, fs, q[0], 2)
	case k == gate.Z:
		pauliBlocks(p, fs, q[0], 3)
	case k.Diagonal():
		sc.opTerms = transpile.AppendDiagTerms(sc.opTerms[:0], op, 0)
		for b := 0; b < fs.Len(); b++ {
			key := fs.Key(b)
			act := sc.active[:0]
			for _, t := range sc.opTerms {
				if key&t.Sel&p.mask == t.Val&p.mask {
					act = append(act, circuit.DiagTerm{
						Sel: p.compact(t.Sel), Val: p.compact(t.Val), Phase: t.Phase,
					})
				}
			}
			fs.State(b).ApplyDiagTerms(act)
			sc.active = act
		}
	case nc > 0 && ar == nc+1:
		t := q[nc]
		ctrlKey := keyBits &^ (1 << uint(t))
		var dctrl [2]int
		nd := 0
		for _, c := range q[:nc] {
			if !p.isKey(c) {
				dctrl[nd] = p.local[c]
				nd++
			}
		}
		if p.isKey(t) {
			// Only a CX from a key control keeps its target a key qubit
			// (a CCX's native form puts its target through H): a
			// relabelling.
			if k != gate.CX || nd != 0 {
				panic(fmt.Sprintf("noise: %s targets key qubit %d", k, t))
			}
			for b := 0; b < fs.Len(); b++ {
				if key := fs.Key(b); key&ctrlKey == ctrlKey {
					fs.SetKey(b, key^(1<<uint(t)))
				}
			}
			return
		}
		lt := p.local[t]
		for b := 0; b < fs.Len(); b++ {
			if fs.Key(b)&ctrlKey != ctrlKey {
				continue
			}
			st := fs.State(b)
			switch k {
			case gate.CX:
				st.X(lt) // the CX kernel's swap, on the control-set block
			case gate.CH:
				s2 := complex(1/math.Sqrt2, 0)
				st.ApplyCtrl1Q(dctrl[:nd], lt, s2, s2, s2, -s2)
			case gate.CCX:
				st.ApplyCtrl1Q(dctrl[:nd], lt, 0, 1, 1, 0)
			default:
				m := gate.Base(k, op.Theta)
				st.ApplyCtrl1Q(dctrl[:nd], lt, m.At(0, 0), m.At(0, 1), m.At(1, 0), m.At(1, 1))
			}
		}
	default:
		panic(fmt.Sprintf("noise: %s does not preserve key qubits %#x", k, keyBits))
	}
}

// pauliBlocks applies the 1q Pauli p (1..3 = X, Y, Z) to qubit q of a
// factored state. On a key qubit it relabels keys and reproduces the
// State.X/Y/Z arithmetic per amplitude.
func pauliBlocks(p *factPlan, fs *sim.Blocks, q int, pl uint8) {
	if !p.isKey(q) {
		for b := 0; b < fs.Len(); b++ {
			pauli1(fs.State(b), p.local[q], pl)
		}
		return
	}
	bit := uint64(1) << uint(q)
	for b := 0; b < fs.Len(); b++ {
		key := fs.Key(b)
		amps := fs.State(b).Amps()
		switch pl {
		case 1:
			fs.SetKey(b, key^bit)
		case 2:
			if key&bit != 0 {
				for i, a := range amps {
					amps[i] = complex(imag(a), -real(a)) // -i * a
				}
			} else {
				for i, a := range amps {
					amps[i] = complex(-imag(a), real(a)) // +i * a
				}
			}
			fs.SetKey(b, key^bit)
		case 3:
			if key&bit != 0 {
				for i := range amps {
					amps[i] = -amps[i]
				}
			}
		}
	}
}

// applyEvent applies the Pauli insertion ev after native op ev.PhysIdx.
func (w *blockWalk) applyEvent(fs *sim.Blocks, ev Event) {
	op := w.p.w.Ops[ev.PhysIdx]
	if op.Kind == gate.CX {
		pauliBlocks(w.p, fs, op.Qubits[0], ev.Pauli>>2)
		pauliBlocks(w.p, fs, op.Qubits[1], ev.Pauli&3)
		return
	}
	pauliBlocks(w.p, fs, op.Qubits[0], ev.Pauli)
}

// spanSplit splits the qubits of a composed event span into key and
// dense qubits.
type spanSplit struct {
	k, nd   int
	ddim    int                     // 2^nd
	keyPos  int                     // span-local bits of the key qubits
	keyBits uint64                  // the same qubits, at global positions
	dq      [sim.MaxDenseQubits]int // block-local index of each dense span qubit
	dpos    [sim.MaxDenseQubits]int // span-local bit of each dense span qubit
}

func (p *factPlan) splitSpan(qs [sim.MaxDenseQubits]int, k int) spanSplit {
	sp := spanSplit{k: k}
	for i := 0; i < k; i++ {
		if p.isKey(qs[i]) {
			sp.keyPos |= 1 << uint(i)
			sp.keyBits |= 1 << uint(qs[i])
		} else {
			sp.dq[sp.nd] = p.local[qs[i]]
			sp.dpos[sp.nd] = i
			sp.nd++
		}
	}
	sp.ddim = 1 << uint(sp.nd)
	return sp
}

// spread moves dense-part bits x onto their span-local positions.
func (sp *spanSplit) spread(x int) int {
	out := 0
	for j := 0; j < sp.nd; j++ {
		out |= (x >> uint(j) & 1) << uint(sp.dpos[j])
	}
	return out
}

// restrict fills r with the dense part of the columns of the row-major
// span unitary rm whose key part is kp, and returns the one key part
// f(kp) of the rows those columns reach. ok is false when they reach
// more than one key part, or none.
func (sp *spanSplit) restrict(rm []complex128, kp int, r *[maxDenseDim * maxDenseDim]complex128) (fkp int, ok bool) {
	dim, ddim := 1<<uint(sp.k), sp.ddim
	fkp = -1
	for jd := 0; jd < ddim; jd++ {
		j := kp | sp.spread(jd)
		for id := 0; id < ddim; id++ {
			for rk := 0; rk < dim; rk++ {
				if rk&^sp.keyPos != 0 {
					continue // rk ranges over key parts only
				}
				v := rm[(rk|sp.spread(id))*dim+j]
				if v == 0 {
					continue
				}
				if fkp >= 0 && rk != fkp {
					return 0, false
				}
				fkp = rk
				r[id*ddim+jd] = v
			}
		}
	}
	return fkp, fkp >= 0
}

// keyImageOK composes span si without events and reports whether, for
// every value of its key wires, the key image is independent of its
// dense wires — the property applyEventSpanBlocks relies on. Paulis
// keep it, so checking the event-free span covers every trajectory. A
// span of RZ, X and CX natives alone is a monomial whose key image the
// analysis already fixed native by native (a SWAP span's SWAP·U is a
// phased Pauli); only spans that touch a key wire and mix in an SX are
// composed and checked.
func keyImageOK(p *factPlan, si int) bool {
	touches, sx := false, false
	for _, op := range p.w.Ops[p.w.Spans[si].Start:p.w.Spans[si].End] {
		sx = sx || op.Kind == gate.SX
		for _, q := range op.Qubits[:op.Kind.Arity()] {
			touches = touches || p.isKey(q)
		}
	}
	if !touches || !sx {
		return true
	}
	var qs [sim.MaxDenseQubits]int
	var rm [maxDenseDim * maxDenseDim]complex128
	k, ok := composeSpan(p.w.Ops, p.w.Spans[si], nil, &qs, &rm)
	if !ok {
		return true // expanded natively, op by op
	}
	sp := p.splitSpan(qs, k)
	for kp := 0; kp < 1<<uint(k); kp++ {
		if kp&^sp.keyPos != 0 {
			continue
		}
		var r [maxDenseDim * maxDenseDim]complex128
		if _, ok := sp.restrict(rm[:], kp, &r); !ok {
			return false
		}
	}
	return true
}

// applyEventSpan applies span si's native ops, with the given events
// (all inside the span, sorted by PhysIdx) inserted, to fs as one
// composed unitary U: one ApplyKQ pass per block instead of one pass
// per native. U maps key-basis states to key-basis states
// (every native and Pauli in it does), so on a block whose span key
// bits read kp it acts as the restriction of U to the columns with key
// part kp: those columns' nonzeros all lie in rows with one key part
// f(kp), which becomes the block's new key, and their dense part is
// applied to the block through ApplyKQ — the same entries, multiplied
// and summed in the same column order as the dense ApplyKQ, minus
// products of exact zeros. A SWAP span's wires already carry the
// exchange after it, so there U becomes SWAP·U: the same entries, rows
// exchanged. Returns false when the span needs native expansion.
func (w *blockWalk) applyEventSpan(fs *sim.Blocks, si int, events []Event) bool {
	p := w.p
	var qs [sim.MaxDenseQubits]int
	var rm [maxDenseDim * maxDenseDim]complex128
	k, ok := composeSpan(p.w.Ops, p.w.Spans[si], events, &qs, &rm)
	if !ok {
		return false
	}
	if p.w.Source[si].Kind == gate.SWAP {
		// transpile lowers a SWAP to 3 CX on its two wires, qs[0] and
		// qs[1]: exchange rows 01 and 10.
		r1, r2 := rm[4:8], rm[8:12]
		for j := range r1 {
			r1[j], r2[j] = r2[j], r1[j]
		}
	}
	sp := p.splitSpan(qs, k)
	if sp.keyPos == 0 {
		for b := 0; b < fs.Len(); b++ {
			fs.State(b).ApplyKQ(sp.dq[:sp.nd], rm[:(1<<uint(k))*(1<<uint(k))])
		}
		return true
	}
	for b := 0; b < fs.Len(); b++ {
		key := fs.Key(b)
		kp := 0
		for i := 0; i < k; i++ {
			if sp.keyPos>>uint(i)&1 == 1 {
				kp |= int(key>>uint(qs[i])&1) << uint(i)
			}
		}
		var r [maxDenseDim * maxDenseDim]complex128
		fkp, ok := sp.restrict(rm[:], kp, &r)
		if !ok {
			panic("noise: event span's key image depends on dense qubits")
		}
		st := fs.State(b)
		if sp.nd == 0 {
			ph := r[0]
			amps := st.Amps()
			for i, a := range amps {
				amps[i] = ph * a
			}
		} else {
			st.ApplyKQ(sp.dq[:sp.nd], r[:sp.ddim*sp.ddim])
		}
		nk := key &^ sp.keyBits
		for i := 0; i < k; i++ {
			if fkp>>uint(i)&1 == 1 {
				nk |= 1 << uint(qs[i])
			}
		}
		fs.SetKey(b, nk)
	}
	return true
}

// run simulates spans [from, end) of the work state with the given
// events (sorted by PhysIdx, none before span from) and returns how
// many it consumed. Stretches of spans without events execute through
// the fused program; a span containing events applies its natives and
// Paulis as one composed unitary, or, on more than MaxDenseQubits
// qubits, native by native with the Paulis at their exact physical
// positions — so the trajectory is bit-exact with a fully native
// simulation (up to global phase).
func (w *blockWalk) run(events []Event, from int) int {
	fs, res := w.work, w.p.w
	hi := len(res.Spans)
	ei := 0
	for si := from; si < hi; {
		next := hi
		if ei < len(events) {
			next = w.e.spanOf[events[ei].PhysIdx]
		}
		if next > si {
			w.applyFusedRange(fs, si, next)
			si = next
			continue
		}
		span := res.Spans[si]
		e2 := ei
		for e2 < len(events) && events[e2].PhysIdx < span.End {
			e2++
		}
		if w.applyEventSpan(fs, si, events[ei:e2]) {
			ei = e2
			si++
			continue
		}
		for pi := span.Start; pi < span.End; pi++ {
			w.applyOp(fs, res.Ops[pi])
			for ei < len(events) && events[ei].PhysIdx == pi {
				w.applyEvent(fs, events[ei])
				ei++
			}
		}
		si++
	}
	return ei
}
