package sim_test

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"qfarith/internal/circuit"
	"qfarith/internal/gate"
	"qfarith/internal/mat"
	"qfarith/internal/sim"
	"qfarith/internal/testutil"
)

// applyViaMatrix applies op to a copy of st by expanding the gate to the
// full 2^n unitary with explicit Kronecker products — the slow reference
// the kernels are validated against.
func applyViaMatrix(st *sim.State, op circuit.Op) []complex128 {
	n := st.NumQubits()
	dim := 1 << uint(n)
	g := gate.Matrix(op.Kind, op.Theta)
	k := op.Kind.Arity()
	qubits := op.Active()
	u := mat.New(dim, dim)
	for col := 0; col < dim; col++ {
		// Build the local input index: gate convention is big-endian, so
		// the first listed qubit is the most significant local bit.
		var loc int
		for i, q := range qubits {
			bit := (col >> uint(q)) & 1
			loc |= bit << uint(k-1-i)
		}
		for locOut := 0; locOut < 1<<uint(k); locOut++ {
			amp := g.At(locOut, loc)
			if amp == 0 {
				continue
			}
			row := col
			for i, q := range qubits {
				bit := (locOut >> uint(k-1-i)) & 1
				row = (row &^ (1 << uint(q))) | bit<<uint(q)
			}
			u.Set(row, col, amp)
		}
	}
	return mat.MulVec(u, st.Amps())
}

func checkOp(t *testing.T, n int, op circuit.Op) {
	t.Helper()
	rng := testutil.NewRand(uint64(17*n) + uint64(op.Kind)<<8)
	st := testutil.RandomState(rng, n)
	want := applyViaMatrix(st, op)
	got := st.Clone()
	got.ApplyOp(op)
	for i := range want {
		if cmplx.Abs(want[i]-got.Amps()[i]) > 1e-9 {
			t.Fatalf("%s on %d qubits: amp %d = %v, want %v", op, n, i, got.Amps()[i], want[i])
		}
	}
}

func TestKernelsMatchMatrixSemantics(t *testing.T) {
	n := 5
	th := 2 * math.Pi / 16
	ops := []circuit.Op{
		circuit.NewOp(gate.I, 0, 2),
		circuit.NewOp(gate.X, 0, 0),
		circuit.NewOp(gate.X, 0, 4),
		circuit.NewOp(gate.Y, 0, 1),
		circuit.NewOp(gate.Z, 0, 3),
		circuit.NewOp(gate.H, 0, 2),
		circuit.NewOp(gate.S, 0, 1),
		circuit.NewOp(gate.Sdg, 0, 1),
		circuit.NewOp(gate.T, 0, 0),
		circuit.NewOp(gate.Tdg, 0, 4),
		circuit.NewOp(gate.SX, 0, 3),
		circuit.NewOp(gate.SXdg, 0, 3),
		circuit.NewOp(gate.RX, th, 2),
		circuit.NewOp(gate.RY, th, 2),
		circuit.NewOp(gate.RZ, th, 2),
		circuit.NewOp(gate.P, th, 0),
		circuit.NewOp(gate.CX, 0, 1, 3),
		circuit.NewOp(gate.CX, 0, 3, 1),
		circuit.NewOp(gate.CZ, 0, 0, 4),
		circuit.NewOp(gate.CP, th, 2, 0),
		circuit.NewOp(gate.CP, th, 0, 2),
		circuit.NewOp(gate.CH, 0, 4, 1),
		circuit.NewOp(gate.CRY, th, 2, 3),
		circuit.NewOp(gate.SWAP, 0, 0, 3),
		circuit.NewOp(gate.CCX, 0, 0, 2, 4),
		circuit.NewOp(gate.CCP, th, 4, 1, 2),
		circuit.NewOp(gate.CCP, th, 0, 1, 2),
		circuit.NewOp(gate.CCH, 0, 1, 3, 0),
	}
	for _, op := range ops {
		checkOp(t, n, op)
	}
}

func TestApplyCircuitPreservesNorm(t *testing.T) {
	rng := testutil.NewRand(7)
	c := circuit.New(6)
	kinds := []gate.Kind{gate.H, gate.CX, gate.CP, gate.X, gate.RZ, gate.CCP, gate.SX, gate.CH}
	for i := 0; i < 200; i++ {
		k := kinds[rng.IntN(len(kinds))]
		ar := k.Arity()
		perm := rng.Perm(6)
		qs := perm[:ar]
		c.Append(k, rng.Float64()*2*math.Pi, qs...)
	}
	st := testutil.RandomState(rng, 6)
	st.ApplyCircuit(c)
	if d := math.Abs(st.Norm() - 1); d > 1e-9 {
		t.Errorf("norm drifted by %g after 200 random gates", d)
	}
}

func TestSetBasisAndProbability(t *testing.T) {
	st := sim.NewState(4)
	st.SetBasis(11)
	for i := 0; i < st.Dim(); i++ {
		want := 0.0
		if i == 11 {
			want = 1.0
		}
		if got := st.Probability(i); math.Abs(got-want) > 1e-15 {
			t.Fatalf("P(%d) = %g, want %g", i, got, want)
		}
	}
}

func TestRegisterProbsContiguousAndScattered(t *testing.T) {
	rng := testutil.NewRand(23)
	st := testutil.RandomState(rng, 6)
	// Contiguous register [2,3,4] vs brute-force.
	reg := []int{2, 3, 4}
	got := st.RegisterProbs(reg)
	want := make([]float64, 8)
	for idx := 0; idx < st.Dim(); idx++ {
		v := (idx >> 2) & 7
		want[v] += st.Probability(idx)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("contiguous RegisterProbs[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	// Scattered register [5,0,3]: value = q5 + 2*q0 + 4*q3.
	reg = []int{5, 0, 3}
	got = st.RegisterProbs(reg)
	want = make([]float64, 8)
	for idx := 0; idx < st.Dim(); idx++ {
		v := ((idx >> 5) & 1) | ((idx&1)<<1 | ((idx>>3)&1)<<2)
		want[v] += st.Probability(idx)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("scattered RegisterProbs[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestRegisterProbsSumToOne(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := testutil.NewRand(seed)
		st := testutil.RandomState(rng, 5)
		probs := st.RegisterProbs([]int{1, 2, 4})
		var s float64
		for _, p := range probs {
			s += p
		}
		return math.Abs(s-1) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSamplerDeterminismAndTotals(t *testing.T) {
	probs := []float64{0.5, 0.25, 0.125, 0.125}
	a := sim.NewSampler(1, 2).Counts(probs, 4096)
	b := sim.NewSampler(1, 2).Counts(probs, 4096)
	total := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sampler not deterministic: %v vs %v", a, b)
		}
		total += a[i]
	}
	if total != 4096 {
		t.Fatalf("counts sum to %d, want 4096", total)
	}
	// Frequencies should approximate the distribution.
	if f := float64(a[0]) / 4096; math.Abs(f-0.5) > 0.05 {
		t.Errorf("outcome 0 frequency %g, want ≈0.5", f)
	}
}

func TestSamplerZeroProbabilityBins(t *testing.T) {
	probs := []float64{0, 0.5, 0, 0.5, 0, 0}
	counts := sim.NewSampler(3, 4).Counts(probs, 2000)
	for i, c := range counts {
		if probs[i] == 0 && c != 0 {
			t.Errorf("outcome %d has zero probability but %d counts", i, c)
		}
	}
	if counts[1]+counts[3] != 2000 {
		t.Errorf("valid outcomes sum to %d, want 2000", counts[1]+counts[3])
	}
}

func TestCDFHandlesUnnormalizedInput(t *testing.T) {
	cdf := sim.CDF([]float64{2, 2, 4})
	want := []float64{0.25, 0.5, 1}
	for i := range want {
		if math.Abs(cdf[i]-want[i]) > 1e-12 {
			t.Fatalf("CDF[%d] = %g, want %g", i, cdf[i], want[i])
		}
	}
}

func TestPauliKernelsSelfInverse(t *testing.T) {
	rng := testutil.NewRand(99)
	st := testutil.RandomState(rng, 4)
	ref := st.Clone()
	for q := 0; q < 4; q++ {
		st.X(q)
		st.X(q)
		st.Y(q)
		st.Y(q)
		st.Z(q)
		st.Z(q)
	}
	for i := range ref.Amps() {
		if cmplx.Abs(st.Amps()[i]-ref.Amps()[i]) > 1e-12 {
			t.Fatalf("Pauli pairs not identity at amp %d", i)
		}
	}
}

// TestHMatchesComplexScale: H's real scaling gives the bits of the
// complex multiply complex(1/√2, 0)*(a0±a1) on every nonzero component
// and the same probabilities everywhere; only the sign of an exact
// zero may differ.
func TestHMatchesComplexScale(t *testing.T) {
	const inv = 1 / math.Sqrt2
	rng := testutil.NewRand(17)
	const n = 5
	for trial := 0; trial < 50; trial++ {
		amps := make([]complex128, 1<<n)
		for i := range amps {
			re, im := rng.NormFloat64(), rng.NormFloat64()
			switch rng.IntN(4) { // exact zeros, and pairs that cancel
			case 0:
				re = 0
			case 1:
				im = 0
			}
			amps[i] = complex(re, im)
		}
		amps[1] = amps[0] // a0-a1 is exactly zero on qubit 0
		for q := 0; q < n; q++ {
			st := sim.NewState(n)
			st.SetAmplitudes(amps)
			in := append([]complex128(nil), st.Amps()...)
			st.H(q)
			step := 1 << q
			for i := range in {
				if i&step != 0 {
					continue
				}
				a0, a1 := in[i], in[i+step]
				for k, want := range [2]complex128{complex(inv, 0) * (a0 + a1), complex(inv, 0) * (a0 - a1)} {
					got := st.Amps()[i+k*step]
					for _, c := range [2][2]float64{{real(got), real(want)}, {imag(got), imag(want)}} {
						if c[1] != 0 && math.Float64bits(c[0]) != math.Float64bits(c[1]) {
							t.Fatalf("trial %d H(%d) amp %d: got %v, want %v", trial, q, i+k*step, got, want)
						}
					}
					pg := real(got)*real(got) + imag(got)*imag(got)
					pw := real(want)*real(want) + imag(want)*imag(want)
					if math.Float64bits(pg) != math.Float64bits(pw) {
						t.Fatalf("trial %d H(%d) amp %d: probability %v, want %v", trial, q, i+k*step, pg, pw)
					}
				}
			}
		}
	}
}
