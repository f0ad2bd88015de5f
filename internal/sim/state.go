// Package sim implements an exact statevector simulator for the circuit
// IR in internal/circuit. It provides specialised kernels for the gates
// that dominate Fourier arithmetic — diagonal phase gates (P/CP/CCP/RZ),
// Hadamard-like controlled 1q gates, and CX — plus a generic dense
// fallback for arbitrary gates, register probability extraction, and
// multinomial shot sampling.
//
// Convention: qubit q corresponds to bit q of the basis-state index, so
// qubit 0 is the least significant bit. This is the opposite of the
// big-endian matrix convention in internal/gate; the kernels account for
// the difference internally.
package sim

import (
	"fmt"
	"math"
	"math/cmplx"

	"qfarith/internal/circuit"
	"qfarith/internal/gate"
	"qfarith/internal/mat"
)

// MaxQubits bounds the register size: 2^26 amplitudes = 1 GiB, already
// beyond what the experiments need; the bound exists to catch mistakes.
const MaxQubits = 26

// State is a pure quantum state over n qubits.
type State struct {
	n    int
	amps []complex128

	// diagActive is reusable scratch for ApplyDiagTerms' per-block term
	// filtering, kept on the state so hot loops don't allocate.
	diagActive []circuit.DiagTerm
}

// Amp is one term of a sparse input state: amplitude Value on the
// computational basis state Index.
type Amp struct {
	Index int
	Value complex128
}

// NewState returns the n-qubit all-zeros state |0...0>.
func NewState(n int) *State {
	if n <= 0 || n > MaxQubits {
		panic(fmt.Sprintf("sim: invalid qubit count %d", n))
	}
	s := &State{n: n, amps: make([]complex128, 1<<uint(n))}
	s.amps[0] = 1
	return s
}

// NumQubits returns the number of qubits.
func (s *State) NumQubits() int { return s.n }

// Dim returns the Hilbert-space dimension 2^n.
func (s *State) Dim() int { return len(s.amps) }

// Amps exposes the amplitude slice. Callers must not resize it.
func (s *State) Amps() []complex128 { return s.amps }

// Clone returns a deep copy of the state.
func (s *State) Clone() *State {
	c := &State{n: s.n, amps: make([]complex128, len(s.amps))}
	copy(c.amps, s.amps)
	return c
}

// CopyFrom overwrites s with src's amplitudes (same qubit count required).
func (s *State) CopyFrom(src *State) {
	if s.n != src.n {
		panic("sim: CopyFrom size mismatch")
	}
	copy(s.amps, src.amps)
}

// SetBasis resets the state to the computational basis state |idx>.
func (s *State) SetBasis(idx int) {
	if idx < 0 || idx >= len(s.amps) {
		panic(fmt.Sprintf("sim: basis index %d out of range", idx))
	}
	for i := range s.amps {
		s.amps[i] = 0
	}
	s.amps[idx] = 1
}

// SetAmplitudes overwrites the state with the given amplitudes, which
// must have length 2^n; the vector is normalized. This mirrors the
// paper's noise-free Qiskit `initialize` step.
func (s *State) SetAmplitudes(a []complex128) {
	if len(a) != len(s.amps) {
		panic("sim: SetAmplitudes length mismatch")
	}
	copy(s.amps, a)
	s.Normalize()
}

// Normalize rescales the state to unit norm. Panics on the zero vector.
func (s *State) Normalize() {
	nrm := mat.VecNorm(s.amps)
	if nrm == 0 {
		panic("sim: cannot normalize zero state")
	}
	inv := complex(1/nrm, 0)
	for i := range s.amps {
		s.amps[i] *= inv
	}
}

// Norm returns the 2-norm of the amplitude vector (1 for a valid state).
func (s *State) Norm() float64 { return mat.VecNorm(s.amps) }

// Probability returns |<idx|s>|^2.
func (s *State) Probability(idx int) float64 {
	v := s.amps[idx]
	return real(v)*real(v) + imag(v)*imag(v)
}

// insertZero spreads v's bits so that bit position p becomes a 0 bit:
// bits below p keep their place, bits at or above p shift up by one.
func insertZero(v, p int) int {
	low := v & ((1 << uint(p)) - 1)
	return ((v &^ ((1 << uint(p)) - 1)) << 1) | low
}

// expandIndex maps a compact counter k to a full basis index in which the
// (sorted ascending) bit positions given are forced to the corresponding
// bit values.
func expandIndex(k int, positions []int, values []int) int {
	idx := k
	for i, p := range positions {
		idx = insertZero(idx, p)
		if values[i] != 0 {
			idx |= 1 << uint(p)
		}
	}
	return idx
}

// Phase multiplies every amplitude whose bit q is 1 by e^{i theta}.
// This is the P (phase) gate kernel.
func (s *State) Phase(q int, theta float64) {
	p := cmplx.Exp(complex(0, theta))
	step := 1 << uint(q)
	for g := step; g < len(s.amps); g += 2 * step {
		for i := g; i < g+step; i++ {
			s.amps[i] *= p
		}
	}
}

// RZ applies the exact RZ(theta) = diag(e^{-i theta/2}, e^{+i theta/2}).
func (s *State) RZ(q int, theta float64) {
	p0 := cmplx.Exp(complex(0, -theta/2))
	p1 := cmplx.Exp(complex(0, theta/2))
	step := 1 << uint(q)
	for g := 0; g < len(s.amps); g += 2 * step {
		for i := g; i < g+step; i++ {
			s.amps[i] *= p0
			s.amps[i+step] *= p1
		}
	}
}

// CPhase multiplies amplitudes with bits c and t both 1 by e^{i theta}.
func (s *State) CPhase(c, t int, theta float64) {
	p := cmplx.Exp(complex(0, theta))
	lo, hi := c, t
	if lo > hi {
		lo, hi = hi, lo
	}
	quarter := len(s.amps) >> 2
	mask := (1 << uint(lo)) | (1 << uint(hi))
	for k := 0; k < quarter; k++ {
		idx := insertZero(insertZero(k, lo), hi) | mask
		s.amps[idx] *= p
	}
}

// CCPhase multiplies amplitudes with bits c0, c1 and t all 1 by e^{i theta}.
func (s *State) CCPhase(c0, c1, t int, theta float64) {
	p := cmplx.Exp(complex(0, theta))
	b := [3]int{c0, c1, t}
	sort3(&b)
	eighth := len(s.amps) >> 3
	mask := (1 << uint(b[0])) | (1 << uint(b[1])) | (1 << uint(b[2]))
	for k := 0; k < eighth; k++ {
		idx := insertZero(insertZero(insertZero(k, b[0]), b[1]), b[2]) | mask
		s.amps[idx] *= p
	}
}

func sort3(b *[3]int) {
	if b[0] > b[1] {
		b[0], b[1] = b[1], b[0]
	}
	if b[1] > b[2] {
		b[1], b[2] = b[2], b[1]
	}
	if b[0] > b[1] {
		b[0], b[1] = b[1], b[0]
	}
}

// Apply1Q applies an arbitrary 2x2 unitary (m00 m01; m10 m11) to qubit q.
func (s *State) Apply1Q(q int, m00, m01, m10, m11 complex128) {
	step := 1 << uint(q)
	for g := 0; g < len(s.amps); g += 2 * step {
		for i := g; i < g+step; i++ {
			a0, a1 := s.amps[i], s.amps[i+step]
			s.amps[i] = m00*a0 + m01*a1
			s.amps[i+step] = m10*a0 + m11*a1
		}
	}
}

// ApplyCtrl1Q applies a 2x2 unitary to qubit t on the subspace where all
// control qubits are 1.
func (s *State) ApplyCtrl1Q(controls []int, t int, m00, m01, m10, m11 complex128) {
	var cmask int
	for _, c := range controls {
		cmask |= 1 << uint(c)
	}
	tbit := 1 << uint(t)
	mask := cmask | tbit
	groups := len(s.amps) >> uint(len(controls)+1)
	// Enumerate base indices with all involved bits clear by counting
	// with those bits forced on, so the carry skips them — same ascending
	// order the old insertZero walk produced, without the index math.
	base := 0
	for g := 0; g < groups; g++ {
		i0 := base | cmask
		i1 := i0 | tbit
		a0, a1 := s.amps[i0], s.amps[i1]
		s.amps[i0] = m00*a0 + m01*a1
		s.amps[i1] = m10*a0 + m11*a1
		base = ((base | mask) + 1) &^ mask
	}
}

// CX applies a controlled-NOT with control c and target t.
func (s *State) CX(c, t int) {
	lo, hi := c, t
	if lo > hi {
		lo, hi = hi, lo
	}
	cbit := 1 << uint(c)
	tbit := 1 << uint(t)
	quarter := len(s.amps) >> 2
	for k := 0; k < quarter; k++ {
		i0 := insertZero(insertZero(k, lo), hi) | cbit
		i1 := i0 | tbit
		s.amps[i0], s.amps[i1] = s.amps[i1], s.amps[i0]
	}
}

// X applies a Pauli X (bit flip) on qubit q.
func (s *State) X(q int) {
	step := 1 << uint(q)
	for g := 0; g < len(s.amps); g += 2 * step {
		for i := g; i < g+step; i++ {
			s.amps[i], s.amps[i+step] = s.amps[i+step], s.amps[i]
		}
	}
}

// Y applies a Pauli Y on qubit q.
func (s *State) Y(q int) {
	step := 1 << uint(q)
	for g := 0; g < len(s.amps); g += 2 * step {
		for i := g; i < g+step; i++ {
			a0, a1 := s.amps[i], s.amps[i+step]
			s.amps[i] = complex(imag(a1), -real(a1))      // -i * a1
			s.amps[i+step] = complex(-imag(a0), real(a0)) // +i * a0
		}
	}
}

// Z applies a Pauli Z on qubit q.
func (s *State) Z(q int) {
	step := 1 << uint(q)
	for g := step; g < len(s.amps); g += 2 * step {
		for i := g; i < g+step; i++ {
			s.amps[i] = -s.amps[i]
		}
	}
}

// H applies a Hadamard on qubit q. The 1/√2 scale is applied to each
// component as a real: complex(inv, 0)*u would compile to a full
// complex multiply for the same bits (up to the sign of an exact zero).
func (s *State) H(q int) {
	const inv = 1 / math.Sqrt2
	step := 1 << uint(q)
	for g := 0; g < len(s.amps); g += 2 * step {
		for i := g; i < g+step; i++ {
			a0, a1 := s.amps[i], s.amps[i+step]
			u, v := a0+a1, a0-a1
			s.amps[i] = complex(inv*real(u), inv*imag(u))
			s.amps[i+step] = complex(inv*real(v), inv*imag(v))
		}
	}
}

// Swap exchanges qubits a and b.
func (s *State) Swap(a, b int) {
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	lob, hib := 1<<uint(lo), 1<<uint(hi)
	quarter := len(s.amps) >> 2
	for k := 0; k < quarter; k++ {
		base := insertZero(insertZero(k, lo), hi)
		i01 := base | lob
		i10 := base | hib
		s.amps[i01], s.amps[i10] = s.amps[i10], s.amps[i01]
	}
}

// ApplyOp applies a single circuit op, dispatching to the fastest kernel.
func (s *State) ApplyOp(op circuit.Op) {
	q := op.Qubits
	switch op.Kind {
	case gate.I:
		// no-op
	case gate.P:
		s.Phase(q[0], op.Theta)
	case gate.RZ:
		s.RZ(q[0], op.Theta)
	case gate.Z:
		s.Z(q[0])
	case gate.S:
		s.Phase(q[0], math.Pi/2)
	case gate.Sdg:
		s.Phase(q[0], -math.Pi/2)
	case gate.T:
		s.Phase(q[0], math.Pi/4)
	case gate.Tdg:
		s.Phase(q[0], -math.Pi/4)
	case gate.X:
		s.X(q[0])
	case gate.Y:
		s.Y(q[0])
	case gate.H:
		s.H(q[0])
	case gate.CX:
		s.CX(q[0], q[1])
	case gate.CZ:
		s.CPhase(q[0], q[1], math.Pi)
	case gate.CP:
		s.CPhase(q[0], q[1], op.Theta)
	case gate.CCP:
		s.CCPhase(q[0], q[1], q[2], op.Theta)
	case gate.SWAP:
		s.Swap(q[0], q[1])
	case gate.CH:
		// Same matrix entries gate.Base(CH) yields, without the per-call
		// matrix allocation — CH is hot in the controlled adders.
		s2 := complex(1/math.Sqrt2, 0)
		ctrl := [1]int{q[0]}
		s.ApplyCtrl1Q(ctrl[:], q[1], s2, s2, s2, -s2)
	case gate.CCX:
		ctrl := [2]int{q[0], q[1]}
		s.ApplyCtrl1Q(ctrl[:], q[2], 0, 1, 1, 0)
	default:
		s.applyGeneric(op)
	}
}

// applyGeneric applies any gate via its base 2x2 (for controlled-1q
// forms) or its dense matrix (for SWAP-like gates, unused here).
func (s *State) applyGeneric(op circuit.Op) {
	k := op.Kind
	nc := k.Controls()
	switch {
	case k.Arity() == 1:
		m := gate.Base(k, op.Theta)
		s.Apply1Q(op.Qubits[0], m.At(0, 0), m.At(0, 1), m.At(1, 0), m.At(1, 1))
	case nc >= 1 && k.Arity() == nc+1:
		m := gate.Base(k, op.Theta)
		ctrls := make([]int, nc)
		copy(ctrls, op.Qubits[:nc])
		s.ApplyCtrl1Q(ctrls, op.Qubits[nc], m.At(0, 0), m.At(0, 1), m.At(1, 0), m.At(1, 1))
	default:
		panic(fmt.Sprintf("sim: no kernel for %s", k))
	}
}

// ApplyCircuit applies every op of c in order. The circuit must not span
// more qubits than the state.
func (s *State) ApplyCircuit(c *circuit.Circuit) {
	if c.NumQubits > s.n {
		panic(fmt.Sprintf("sim: circuit spans %d qubits, state has %d", c.NumQubits, s.n))
	}
	for _, op := range c.Ops {
		s.ApplyOp(op)
	}
}

// RegisterProbs returns the marginal probability distribution of the
// register formed by the given qubits, with qubits[0] the least
// significant bit of the register value.
func (s *State) RegisterProbs(qubits []int) []float64 {
	out := make([]float64, 1<<uint(len(qubits)))
	s.RegisterProbsInto(out, qubits)
	return out
}

// RegisterProbsInto writes the marginal distribution of the given
// qubits into out, which must have length 2^len(qubits). The
// accumulation order over amplitudes is identical to RegisterProbs, so
// results are bit-for-bit the same; the caller-provided buffer lets hot
// loops avoid a per-call allocation.
func (s *State) RegisterProbsInto(out []float64, qubits []int) {
	w := len(qubits)
	if len(out) != 1<<uint(w) {
		panic("sim: RegisterProbsInto output buffer size mismatch")
	}
	for i := range out {
		out[i] = 0
	}
	// Fast path: contiguous ascending register starting at lo.
	contig := true
	for i, q := range qubits {
		if q != qubits[0]+i {
			contig = false
			break
		}
	}
	if contig {
		lo := uint(qubits[0])
		mask := (1 << uint(w)) - 1
		for idx, a := range s.amps {
			p := real(a)*real(a) + imag(a)*imag(a)
			out[(idx>>lo)&mask] += p
		}
		return
	}
	// Scattered path: hoist the per-qubit shift table out of the
	// amplitude loop instead of re-deriving it per index.
	var shiftBuf [MaxQubits]uint
	shifts := shiftBuf[:w]
	for i, q := range qubits {
		shifts[i] = uint(q)
	}
	for idx, a := range s.amps {
		p := real(a)*real(a) + imag(a)*imag(a)
		if p == 0 {
			continue
		}
		v := 0
		for i, sh := range shifts {
			v |= ((idx >> sh) & 1) << uint(i)
		}
		out[v] += p
	}
}
