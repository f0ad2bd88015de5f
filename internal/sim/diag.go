package sim

import (
	"math/bits"

	"qfarith/internal/circuit"
)

// ApplyDiagTerms applies a fused run of diagonal gates in a single pass
// over the amplitudes. Within any single amplitude the matching terms
// are multiplied in term order, which is the original op order, so the
// floating-point multiply sequence each amplitude sees is identical to
// applying the run gate by gate through the specialised diagonal
// kernels — the fused result is bit-exact with op-by-op execution, it
// just touches memory once per run instead of once per gate.
func (s *State) ApplyDiagTerms(terms []circuit.DiagTerm) {
	if len(terms) == 0 {
		return
	}
	if cap(s.diagActive) < len(terms) {
		s.diagActive = make([]circuit.DiagTerm, 0, len(terms))
	}
	applyDiagBlocked(s.amps, terms, s.diagActive[:0])
}

// diagBlockBits sets the aligned block size (2^bits amplitudes) the
// kernel works in: within a block only the low diagBlockBits index bits
// vary, so term selection against the higher bits hoists out of the
// inner loops, and a block (4 KiB) stays L1-resident while every term
// of the run is applied to it.
const diagBlockBits = 8

// applyDiagBlocked applies terms to amps. active is caller-owned
// scratch with capacity ≥ len(terms).
//
// The kernel walks 2^diagBlockBits-aligned blocks of the global index
// space. Per block the active term list is rebuilt with the high index
// bits already matched and Sel/Val masked down to in-block bits: blocks
// matching no terms are skipped without touching their amplitudes, and
// each active term then visits exactly its matching amplitudes by
// enumerating the sub-lattice {x : x & Sel == Val} — no per-amplitude
// branches at all, the same multiply count as the strided per-gate
// kernels, but one block-sized memory footprint for the whole run.
// Amplitudes are independent, so applying term i to its whole in-block
// subspace before term i+1 preserves the per-amplitude op order that
// bit-exactness requires.
func applyDiagBlocked(amps []complex128, terms []circuit.DiagTerm, active []circuit.DiagTerm) {
	const lowMask = 1<<diagBlockBits - 1
	for blo := 0; blo < len(amps); {
		idx0 := uint64(blo)
		bhi := blo + int(lowMask+1-idx0&lowMask) // end of the aligned block
		if bhi > len(amps) {
			bhi = len(amps)
		}
		high := idx0 &^ lowMask
		active = active[:0]
		for _, t := range terms {
			if high&t.Sel&^lowMask == t.Val&^lowMask {
				active = append(active, circuit.DiagTerm{
					Sel: t.Sel & lowMask, Val: t.Val & lowMask, Phase: t.Phase,
				})
			}
		}
		switch {
		case len(active) == 0:
		case bhi-blo == lowMask+1:
			block := amps[blo:bhi:bhi]
			for _, t := range active {
				// Enumerate x with x & Sel == Val: adding 1 with the Sel
				// bits forced on ripples the carry straight through them,
				// stepping the free bits in ascending order.
				cnt := 1 << bits.OnesCount64(lowMask&^t.Sel)
				x := t.Val
				for j := 0; j < cnt; j++ {
					block[x&lowMask] *= t.Phase
					x = ((x|t.Sel)+1)&^t.Sel | t.Val
				}
			}
		default:
			// Partial block (states below 2^diagBlockBits amplitudes):
			// per-amplitude conditional fallback, same arithmetic.
			for i := blo; i < bhi; i++ {
				li := uint64(i) & lowMask
				a := amps[i]
				for _, t := range active {
					if li&t.Sel == t.Val {
						a *= t.Phase
					}
				}
				amps[i] = a
			}
		}
		blo = bhi
	}
}
