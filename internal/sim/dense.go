package sim

import (
	"fmt"
	"math/bits"
)

// MaxDenseQubits bounds the register size ApplyKQ accepts; 3 qubits
// (8x8 matrices) covers every native span the transpiler emits.
const MaxDenseQubits = 3

const maxDenseDim = 1 << MaxDenseQubits

// kqPlan is the precomputed application plan for one ApplyKQ call. It
// lives on the caller's stack, so the whole apply is allocation-free.
type kqPlan struct {
	dim  int
	mask int
	// pat[j] scatters local index j onto the global qubit bits.
	pat [maxDenseDim]int
	m   [maxDenseDim * maxDenseDim]complex128
	// Monomial decomposition (valid when mono): column j's only nonzero
	// is at row perm[j] with value ph[j].
	mono bool
	perm [maxDenseDim]int
	ph   [maxDenseDim]complex128
}

// buildKQPlan validates the arguments and precomputes scatter patterns
// and, when possible, the monomial decomposition.
func buildKQPlan(qubits []int, m []complex128) kqPlan {
	k := len(qubits)
	dim := 1 << uint(k)
	if k == 0 || k > MaxDenseQubits {
		panic(fmt.Sprintf("sim: ApplyKQ on %d qubits", k))
	}
	if len(m) != dim*dim {
		panic("sim: ApplyKQ matrix size mismatch")
	}
	var p kqPlan
	p.dim = dim
	copy(p.m[:], m)
	for i, q := range qubits {
		p.mask |= 1 << uint(q)
		for j := 0; j < dim; j++ {
			if j>>uint(i)&1 == 1 {
				p.pat[j] |= 1 << uint(q)
			}
		}
	}
	// Monomial fast path: a span whose natives are all permutations or
	// diagonals (CX, X, RZ, Z, Paulis — everything but SX/H) composes to
	// a matrix with exactly one nonzero per column. Applying it is a
	// gather-permute-scale: one multiply per amplitude instead of 2^k.
	p.mono = true
	for j := 0; j < dim; j++ {
		nz := -1
		for i := 0; i < dim; i++ {
			if m[i*dim+j] != 0 {
				if nz >= 0 {
					p.mono = false
					break
				}
				nz = i
			}
		}
		if nz < 0 || !p.mono {
			p.mono = false
			break
		}
		p.perm[j] = nz
		p.ph[j] = m[nz*dim+j]
	}
	return p
}

// applyKQPlan runs the plan over every base-index group.
func (s *State) applyKQPlan(p *kqPlan) {
	dim := p.dim
	groups := len(s.amps) >> uint(bits.OnesCount(uint(p.mask)))
	base := 0
	if p.mono {
		var x [maxDenseDim]complex128
		for g := 0; g < groups; g++ {
			for j := 0; j < dim; j++ {
				x[j] = s.amps[base|p.pat[j]]
			}
			for j := 0; j < dim; j++ {
				s.amps[base|p.pat[p.perm[j]]] = p.ph[j] * x[j]
			}
			// Count with the span bits forced on so the carry skips them,
			// enumerating base indices with all span bits clear.
			base = ((base | p.mask) + 1) &^ p.mask
		}
		return
	}
	var x, y [maxDenseDim]complex128
	for g := 0; g < groups; g++ {
		for j := 0; j < dim; j++ {
			x[j] = s.amps[base|p.pat[j]]
		}
		for i := 0; i < dim; i++ {
			row := p.m[i*dim : (i+1)*dim]
			acc := row[0] * x[0]
			for j := 1; j < dim; j++ {
				acc += row[j] * x[j]
			}
			y[i] = acc
		}
		for j := 0; j < dim; j++ {
			s.amps[base|p.pat[j]] = y[j]
		}
		base = ((base | p.mask) + 1) &^ p.mask
	}
}

// ApplyKQ applies a dense 2^k x 2^k unitary to the k listed qubits in
// one pass over the state. m is row-major with local bit i of the
// row/column index corresponding to qubits[i] (LSB first, matching the
// simulator's index convention). The qubits must be distinct and k at
// most MaxDenseQubits.
//
// One dense apply replaces a whole run of small gates on the same
// qubits: 2^k multiplies per amplitude in a single memory pass instead
// of one strided pass per gate. The trajectory engine uses it to apply
// an event-containing native span (plus its Pauli insertions) as one
// precomposed matrix. The call is allocation-free.
func (s *State) ApplyKQ(qubits []int, m []complex128) {
	plan := buildKQPlan(qubits, m)
	s.applyKQPlan(&plan)
}
