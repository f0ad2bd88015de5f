package transpile

import (
	"fmt"
	"math"
	"math/cmplx"

	"qfarith/internal/circuit"
	"qfarith/internal/gate"
)

// The trajectory hot path executes the *source* (logical) ops of a
// Result whenever a stretch of the circuit carries no noise event, so
// that is the op stream worth fusing. QFT arithmetic is dominated by
// runs of diagonal gates — the controlled-phase ladders of Draper's
// adder and the Ruiz-Perez multiplier — and a maximal run of diagonal
// ops can be applied to a statevector in one pass (sim.ApplyDiagTerms)
// instead of one pass per gate. Fusion below is structured so that
// diagonal runs remain bit-exact with op-by-op execution: terms are
// multiplied per amplitude in op order, never pre-combined into a
// single factor.

// SegmentKind classifies a fused-program segment.
type SegmentKind uint8

const (
	// SegOp is a single source op executed through its own kernel.
	SegOp SegmentKind = iota
	// SegDiag is a maximal run of ≥2 diagonal source ops executed as one
	// amplitude pass.
	SegDiag
	// Seg1Q is a run of ≥2 adjacent single-qubit gates on the same qubit
	// collapsed into one 2x2 matrix (pairwise matrix products).
	Seg1Q
)

// Segment is one unit of a FusedProgram: a contiguous range of source
// ops together with the fused form that executes them.
type Segment struct {
	Kind SegmentKind
	// SrcStart, SrcEnd is the half-open source-op range the segment
	// covers; PhysStart, PhysEnd is the matching native-op range.
	SrcStart, SrcEnd   int
	PhysStart, PhysEnd int
	// Terms holds the diagonal phase terms of a SegDiag, in op order,
	// sorted by Src.
	Terms []circuit.DiagTerm
	// Qubit and M describe a Seg1Q: the fused 2x2 unitary
	// (m00,m01,m10,m11) acting on Qubit.
	Qubit int
	M     [4]complex128
}

// TermsFor returns the sub-run of Terms lowered from source ops in
// [lo, hi). Because ApplyDiagTerms multiplies per amplitude in term
// order, applying TermsFor(a,b) then TermsFor(b,c) is bit-exact with
// applying TermsFor(a,c) in one pass — diagonal runs can be split at
// any op boundary (e.g. a noise checkpoint) for free.
func (s *Segment) TermsFor(lo, hi int) []circuit.DiagTerm {
	a, b := 0, len(s.Terms)
	for a < b && s.Terms[a].Src < lo {
		a++
	}
	c := b
	for c > a && s.Terms[c-1].Src >= hi {
		c--
	}
	return s.Terms[a:c]
}

// FusedProgram is the fused execution plan of a Result's source ops.
type FusedProgram struct {
	Segments []Segment
	// SegOfSrc maps a source-op index to the segment containing it.
	SegOfSrc []int
}

// Fuse computes the fused program for r's source ops: maximal runs of
// diagonal gates become SegDiag segments, runs of same-qubit 1q gates
// become Seg1Q segments, and everything else stays a SegOp. Results are
// immutable, so the returned program may be shared; prefer r.Fused(),
// which memoizes it.
func Fuse(r *Result) *FusedProgram {
	n := len(r.Source)
	fp := &FusedProgram{SegOfSrc: make([]int, n)}
	add := func(seg Segment) {
		seg.PhysStart = r.Spans[seg.SrcStart].Start
		seg.PhysEnd = r.Spans[seg.SrcEnd-1].End
		si := len(fp.Segments)
		fp.Segments = append(fp.Segments, seg)
		for i := seg.SrcStart; i < seg.SrcEnd; i++ {
			fp.SegOfSrc[i] = si
		}
	}
	for i := 0; i < n; {
		op := r.Source[i]
		switch {
		case op.Kind.Diagonal() && i+1 < n && r.Source[i+1].Kind.Diagonal():
			j := i
			var terms []circuit.DiagTerm
			for j < n && r.Source[j].Kind.Diagonal() {
				terms = AppendDiagTerms(terms, r.Source[j], j)
				j++
			}
			add(Segment{Kind: SegDiag, SrcStart: i, SrcEnd: j, Terms: terms})
			i = j
		case op.Kind.Arity() == 1 && i+1 < n &&
			r.Source[i+1].Kind.Arity() == 1 &&
			r.Source[i+1].Qubits[0] == op.Qubits[0]:
			q := op.Qubits[0]
			m := base2x2(op)
			j := i + 1
			for j < n && r.Source[j].Kind.Arity() == 1 && r.Source[j].Qubits[0] == q {
				m = mul2x2(base2x2(r.Source[j]), m)
				j++
			}
			add(Segment{Kind: Seg1Q, SrcStart: i, SrcEnd: j, Qubit: q, M: m})
			i = j
		default:
			add(Segment{Kind: SegOp, SrcStart: i, SrcEnd: i + 1})
			i++
		}
	}
	return fp
}

// AppendDiagTerms lowers one diagonal op (source index src) into phase
// terms appended to dst, matching the exact phase factors the
// specialised sim kernels compute so fused execution multiplies each
// amplitude by bit-identical values.
func AppendDiagTerms(dst []circuit.DiagTerm, op circuit.Op, src int) []circuit.DiagTerm {
	bit := func(i int) uint64 { return 1 << uint(op.Qubits[i]) }
	phase := func(mask uint64, theta float64) []circuit.DiagTerm {
		return append(dst, circuit.DiagTerm{
			Sel: mask, Val: mask,
			Phase: cmplx.Exp(complex(0, theta)), Src: src,
		})
	}
	switch op.Kind {
	case gate.I:
		return dst
	case gate.P:
		return phase(bit(0), op.Theta)
	case gate.S:
		return phase(bit(0), math.Pi/2)
	case gate.Sdg:
		return phase(bit(0), -math.Pi/2)
	case gate.T:
		return phase(bit(0), math.Pi/4)
	case gate.Tdg:
		return phase(bit(0), -math.Pi/4)
	case gate.Z:
		// The Z kernel negates; -1 differs from e^{iπ} by the sine
		// rounding error, so use the exact value here.
		return append(dst, circuit.DiagTerm{
			Sel: bit(0), Val: bit(0), Phase: -1, Src: src,
		})
	case gate.RZ:
		// Two complementary terms: every amplitude matches exactly one,
		// preserving the one-multiply-per-amplitude shape of the RZ
		// kernel.
		return append(dst,
			circuit.DiagTerm{Sel: bit(0), Val: 0,
				Phase: cmplx.Exp(complex(0, -op.Theta/2)), Src: src},
			circuit.DiagTerm{Sel: bit(0), Val: bit(0),
				Phase: cmplx.Exp(complex(0, op.Theta/2)), Src: src})
	case gate.CZ:
		// ApplyOp lowers CZ through CPhase(π); match its e^{iπ} factor.
		return phase(bit(0)|bit(1), math.Pi)
	case gate.CP:
		return phase(bit(0)|bit(1), op.Theta)
	case gate.CCP:
		return phase(bit(0)|bit(1)|bit(2), op.Theta)
	default:
		panic(fmt.Sprintf("transpile: %s is not diagonal", op.Kind))
	}
}

// base2x2 returns the 2x2 unitary of a single-qubit op.
func base2x2(op circuit.Op) [4]complex128 {
	m := gate.Base(op.Kind, op.Theta)
	return [4]complex128{m.At(0, 0), m.At(0, 1), m.At(1, 0), m.At(1, 1)}
}

// mul2x2 returns the matrix product b·a — the unitary of "a then b".
func mul2x2(b, a [4]complex128) [4]complex128 {
	return [4]complex128{
		b[0]*a[0] + b[1]*a[2], b[0]*a[1] + b[1]*a[3],
		b[2]*a[0] + b[3]*a[2], b[2]*a[1] + b[3]*a[3],
	}
}
