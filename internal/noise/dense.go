package noise

import (
	"fmt"
	"math"
	"math/cmplx"

	"qfarith/internal/circuit"
	"qfarith/internal/gate"
	"qfarith/internal/sim"
	"qfarith/internal/transpile"
)

// An event-containing span is expanded into its native gates, each a
// full pass over the statevector, even though the whole span acts on at
// most three qubits. Composing the span's natives — with the Pauli
// insertions at their exact physical positions — into one small dense
// unitary and applying it with a single ApplyKQ pass replaces ~5-20
// strided statevector passes per event span. The composition happens in
// an 8x8 (or smaller) matrix, so its cost is negligible next to one
// statevector pass.

const maxDenseDim = 1 << sim.MaxDenseQubits

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

// composeSpan composes the native ops[span] with the given events
// inserted into one row-major dense unitary on the span's distinct
// qubits, in order of first use, filling qs[:k] and rm[:2^k*2^k].
// Returns ok=false if the span touches more than MaxDenseQubits
// distinct qubits.
func composeSpan(ops []circuit.Op, span transpile.Span, events []Event, qs *[sim.MaxDenseQubits]int, rm *[maxDenseDim * maxDenseDim]complex128) (int, bool) {
	k := 0
	for pi := span.Start; pi < span.End; pi++ {
		op := ops[pi]
		for a := 0; a < op.Kind.Arity(); a++ {
			q := op.Qubits[a]
			seen := false
			for i := 0; i < k; i++ {
				if qs[i] == q {
					seen = true
					break
				}
			}
			if !seen {
				if k == sim.MaxDenseQubits {
					return 0, false
				}
				qs[k] = q
				k++
			}
		}
	}
	dim := 1 << uint(k)
	// Column-major identity: d[j*dim+i] = <i|U|j>, so each column is a
	// contiguous state the local kernels evolve.
	var d [maxDenseDim * maxDenseDim]complex128
	for j := 0; j < dim; j++ {
		d[j*dim+j] = 1
	}
	ei := 0
	for pi := span.Start; pi < span.End; pi++ {
		op := ops[pi]
		if op.Kind == gate.CX {
			localCX(d[:], dim, localBit(*qs, k, op.Qubits[0]), localBit(*qs, k, op.Qubits[1]))
		} else if op.Kind != gate.I {
			m00, m01, m10, m11 := native1Q(op.Kind, op.Theta)
			local1Q(d[:], dim, localBit(*qs, k, op.Qubits[0]), m00, m01, m10, m11)
		}
		for ei < len(events) && events[ei].PhysIdx == pi {
			ev := events[ei]
			if op.Kind == gate.CX {
				applyLocalPauli(d[:], dim, localBit(*qs, k, op.Qubits[0]), ev.Pauli>>2)
				applyLocalPauli(d[:], dim, localBit(*qs, k, op.Qubits[1]), ev.Pauli&3)
			} else {
				applyLocalPauli(d[:], dim, localBit(*qs, k, op.Qubits[0]), ev.Pauli)
			}
			ei++
		}
	}
	if ei != len(events) {
		panic("noise: span events out of range")
	}
	// ApplyKQ wants row-major.
	for i := 0; i < dim; i++ {
		for j := 0; j < dim; j++ {
			rm[i*dim+j] = d[j*dim+i]
		}
	}
	return k, true
}

// localBit maps a global qubit to its local bit index within the span.
func localBit(qs [sim.MaxDenseQubits]int, k, q int) int {
	for i := 0; i < k; i++ {
		if qs[i] == q {
			return i
		}
	}
	panic("noise: qubit not in span")
}

// native1Q returns the 2x2 unitary of a non-CX native-basis gate,
// matching gate.Base without its matrix allocation.
func native1Q(k gate.Kind, theta float64) (m00, m01, m10, m11 complex128) {
	switch k {
	case gate.X:
		return 0, 1, 1, 0
	case gate.SX:
		return (1 + 1i) / 2, (1 - 1i) / 2, (1 - 1i) / 2, (1 + 1i) / 2
	case gate.RZ:
		return cmplx.Exp(complex(0, -theta/2)), 0, 0, cmplx.Exp(complex(0, theta/2))
	case gate.Z:
		return 1, 0, 0, -1
	case gate.S:
		return 1, 0, 0, 1i
	case gate.Sdg:
		return 1, 0, 0, -1i
	case gate.T:
		return 1, 0, 0, cmplx.Exp(complex(0, math.Pi/4))
	case gate.Tdg:
		return 1, 0, 0, cmplx.Exp(complex(0, -math.Pi/4))
	case gate.H:
		s2 := complex(1/math.Sqrt2, 0)
		return s2, s2, s2, -s2
	case gate.P:
		return 1, 0, 0, cmplx.Exp(complex(0, theta))
	default:
		panic(fmt.Sprintf("noise: %s is not a 1q native gate", k))
	}
}

// applyLocalPauli left-multiplies a 1q Pauli (1..3 = X, Y, Z) on local
// bit l onto d.
func applyLocalPauli(d []complex128, dim, l int, p uint8) {
	switch p {
	case 1:
		local1Q(d, dim, l, 0, 1, 1, 0)
	case 2:
		local1Q(d, dim, l, 0, complex(0, -1), complex(0, 1), 0)
	case 3:
		local1Q(d, dim, l, 1, 0, 0, -1)
	}
}

// localCX left-multiplies a CX (control c, target t, local bits) onto
// every column of d.
func localCX(d []complex128, dim, c, t int) {
	cbit, tbit := 1<<uint(c), 1<<uint(t)
	for j := 0; j < dim; j++ {
		col := d[j*dim : (j+1)*dim]
		for i := 0; i < dim; i++ {
			if i&cbit != 0 && i&tbit == 0 {
				col[i], col[i|tbit] = col[i|tbit], col[i]
			}
		}
	}
}

// local1Q left-multiplies a 2x2 unitary on local bit l onto every
// column of d.
func local1Q(d []complex128, dim, l int, m00, m01, m10, m11 complex128) {
	step := 1 << uint(l)
	for j := 0; j < dim; j++ {
		col := d[j*dim : (j+1)*dim]
		for g := 0; g < dim; g += 2 * step {
			for i := g; i < g+step; i++ {
				a0, a1 := col[i], col[i+step]
				col[i] = m00*a0 + m01*a1
				col[i+step] = m10*a0 + m11*a1
			}
		}
	}
}
