package sim

import (
	"fmt"
	"math/bits"
	"sync"
)

// Blocks is an n-qubit statevector stored as its live blocks. The
// qubits split into key qubits (KeyMask) and dense qubits (the rest,
// in ascending order). Block i holds, as an ordinary State over the
// dense qubits, every amplitude whose key qubits read Key(i); local
// qubit j of a block is global qubit Dense()[j]. Basis states whose
// key bits match no block have amplitude zero.
//
// The container only stores and indexes blocks; the trajectory engine
// evolves them with the ordinary State kernels. Block states come from
// the scratch pools, and the container itself is pooled (GetBlocks).
type Blocks struct {
	n      int
	mask   uint64
	dense  []int
	keys   []uint64
	states []*State
}

var blocksPool = sync.Pool{New: func() any { return new(Blocks) }}

// GetBlocks returns an empty n-qubit container with key qubits mask,
// which must leave at least one dense qubit.
func GetBlocks(n int, mask uint64) *Blocks {
	if n <= 0 || n > MaxQubits || mask>>uint(n) != 0 || bits.OnesCount64(mask) >= n {
		panic(fmt.Sprintf("sim: invalid block layout n=%d mask=%#x", n, mask))
	}
	b := blocksPool.Get().(*Blocks)
	b.n, b.mask = n, mask
	b.dense = b.dense[:0]
	for q := 0; q < n; q++ {
		if mask>>uint(q)&1 == 0 {
			b.dense = append(b.dense, q)
		}
	}
	return b
}

// PutBlocks returns b and its block states to their pools.
func PutBlocks(b *Blocks) {
	if b == nil {
		return
	}
	b.truncate(0)
	blocksPool.Put(b)
}

// truncate drops blocks [k, Len()), returning their states to the pool.
func (b *Blocks) truncate(k int) {
	for i := k; i < len(b.states); i++ {
		PutScratchState(b.states[i])
		b.states[i] = nil
	}
	b.states = b.states[:k]
	b.keys = b.keys[:k]
}

// NumQubits returns the width n of the represented state.
func (b *Blocks) NumQubits() int { return b.n }

// KeyMask returns the key qubits as a bit mask.
func (b *Blocks) KeyMask() uint64 { return b.mask }

// Dense lists the dense qubits in ascending order. Callers must not
// modify it.
func (b *Blocks) Dense() []int { return b.dense }

// Len returns the number of blocks.
func (b *Blocks) Len() int { return len(b.states) }

// Key returns block i's key: the values of the key qubits, at their
// global bit positions.
func (b *Blocks) Key(i int) uint64 { return b.keys[i] }

// SetKey relabels block i.
func (b *Blocks) SetKey(i int, key uint64) { b.keys[i] = key }

// State returns block i's amplitudes over the dense qubits.
func (b *Blocks) State(i int) *State { return b.states[i] }

// Set stores amplitude v on basis state idx, adding an all-zero block
// for its key if absent.
func (b *Blocks) Set(idx int, v complex128) {
	key := uint64(idx) & b.mask
	local := 0
	for j, q := range b.dense {
		local |= (idx >> uint(q) & 1) << uint(j)
	}
	for i, k := range b.keys {
		if k == key {
			b.states[i].amps[local] = v
			return
		}
	}
	st := GetScratchState(len(b.dense))
	clear(st.amps)
	st.amps[local] = v
	b.keys = append(b.keys, key)
	b.states = append(b.states, st)
}

// CopyFrom makes b a copy of src, which must have the same layout.
func (b *Blocks) CopyFrom(src *Blocks) {
	if b.n != src.n || b.mask != src.mask {
		panic("sim: Blocks.CopyFrom layout mismatch")
	}
	if len(b.states) > len(src.states) {
		b.truncate(len(src.states))
	}
	for len(b.states) < len(src.states) {
		b.keys = append(b.keys, 0)
		b.states = append(b.states, GetScratchState(len(b.dense)))
	}
	copy(b.keys, src.keys)
	for i, st := range src.states {
		copy(b.states[i].amps, st.amps)
	}
}
