package noise

import (
	"math"
	"testing"

	"qfarith/internal/arith"
	"qfarith/internal/qft"
	"qfarith/internal/sim"
	"qfarith/internal/testutil"
	"qfarith/internal/transpile"
)

// randomBlocks builds an n-qubit factored state over mask with one
// block per key, stored in the given order, filled with amplitudes
// whose magnitudes span six decades so that any change of summation
// order shows in the low bits.
func randomBlocks(n int, mask uint64, keys []uint64, seed uint64) *sim.Blocks {
	rng := testutil.NewRand(seed)
	fs := sim.GetBlocks(n, mask)
	dense := fs.Dense()
	for _, key := range keys {
		for i := 0; i < 1<<uint(len(dense)); i++ {
			g := key
			for j, q := range dense {
				g |= uint64(i>>uint(j)&1) << uint(q)
			}
			s := math.Pow(10, 6*rng.Float64()-3)
			fs.Set(int(g), complex(s*rng.NormFloat64(), s*rng.NormFloat64()))
		}
	}
	return fs
}

// denseProbs is State.RegisterProbsInto on the dense equivalent of fs,
// its wires placed by at.
func denseProbs(fs *sim.Blocks, at frame, qubits []int) []float64 {
	st := sim.NewState(fs.NumQubits())
	clear(st.Amps())
	dense := fs.Dense()
	for b := 0; b < fs.Len(); b++ {
		for i, a := range fs.State(b).Amps() {
			g := at.phys(fs.Key(b))
			for j, q := range dense {
				g |= uint64(i>>uint(j)&1) << uint(at.qubit(q))
			}
			st.Amps()[g] = a
		}
	}
	out := make([]float64, 1<<uint(len(qubits)))
	st.RegisterProbsInto(out, qubits)
	return out
}

func firstBitDiff(got, want []float64) int {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

// TestRegisterProbsKeyOrder is the oracle test of registerProbsBlocks's
// key-order walk: on hand-built layouts, with wires on their own qubits
// or moved by routing swaps, its bins must be Float64bits-identical to
// the k-way merge's and to the dense RegisterProbsInto, and keyOrderOK
// must pick the key-order walk exactly where the merge's order allows
// it.
func TestRegisterProbsKeyOrder(t *testing.T) {
	cases := []struct {
		name     string
		mask     uint64
		keys     []uint64 // in storage order
		at       frame
		measure  []int
		keyOrder bool
	}{
		// Keys on 0..3, dense 4..7 all measured: every bin sums one
		// amplitude per block, so the block order decides the bits.
		{"keys-out-of-order", 0x0f, []uint64{0xc, 0x5, 0x9, 0x1}, nil, []int{4, 5, 6, 7}, true},
		{"permuted-measure", 0x0f, []uint64{0xc, 0x5, 0x9, 0x1}, nil, []int{6, 4, 7, 5}, true},
		{"measured-keys", 0x0f, []uint64{0xe, 0x4, 0xb, 0x1, 0x9, 0x6}, nil, []int{5, 3, 4, 6, 7}, true},
		// Keys on 4..7 above dense 0..3; dense 0 and 1 stay unmeasured
		// below every key, and bins sum across blocks and local indices.
		{"free-dense-below-keys", 0xf0, []uint64{0xd0, 0x30, 0x90, 0x10}, nil, []int{3, 5, 2}, true},
		{"interleaved-free-dense-below", 0xa8, []uint64{0xa8, 0x28, 0x80, 0x08}, nil, []int{4, 2, 6}, true},
		// A free dense qubit above a free key (6 and 7 over 0..3, then 6
		// over 3 and 4): only the merge orders these bins.
		{"free-dense-above-key", 0x0f, []uint64{0xc, 0x5, 0x9, 0x1}, nil, []int{4, 5}, false},
		{"one-free-dense-above", 0x3c, []uint64{0x3c, 0x08, 0x2c, 0x24, 0x34}, nil, []int{0, 1, 2, 5, 7}, false},
		// Routed frames. Key wires 0..3 end on qubits 7, 1, 4, 2 and
		// the measured dense wires out of order: physical key order is
		// not wire key order.
		{"moved-keys", 0x0f, []uint64{0xc, 0x5, 0x9, 0x1, 0x2, 0xa}, frame{7, 1, 4, 2, 6, 0, 5, 3}, []int{0, 3, 5, 6}, true},
		// Free dense wires 0..2 on qubits 2, 1, 0, below the keys
		// but in reverse local order: only the merge orders these bins.
		{"free-dense-reversed", 0xf0, []uint64{0xd0, 0x30, 0x90, 0x10}, frame{2, 1, 0, 3, 4, 5, 6, 7}, []int{3, 5}, false},
		{"free-dense-in-order", 0xcc, []uint64{0xcc, 0x44, 0x88, 0x04}, frame{0, 1, 7, 4, 2, 3, 6, 5}, []int{0, 1, 2, 7}, true},
	}
	sc := new(mixScratch)
	for ci, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fs := randomBlocks(8, c.mask, c.keys, uint64(ci+1))
			defer sim.PutBlocks(fs)
			if got := keyOrderOK(fs, c.at, c.measure); got != c.keyOrder {
				t.Fatalf("keyOrderOK = %v, want %v", got, c.keyOrder)
			}
			m := 1 << uint(len(c.measure))
			got, merge := make([]float64, m), make([]float64, m)
			registerProbsBlocks(fs, c.at, got, c.measure, sc)
			registerProbsMerge(fs, c.at, merge, c.measure, sc)
			if i := firstBitDiff(got, merge); i >= 0 {
				t.Fatalf("P(%d) = %x, merge %x", i, math.Float64bits(got[i]), math.Float64bits(merge[i]))
			}
			if i := firstBitDiff(got, denseProbs(fs, c.at, c.measure)); i >= 0 {
				t.Fatalf("P(%d) differs from the dense RegisterProbsInto", i)
			}
			if !c.keyOrder {
				// The excluded layouts really need the merge: walking them
				// in key order changes some bin's bits.
				clear(got)
				registerProbsKeyOrder(fs, c.at, got, c.measure, sc)
				if firstBitDiff(got, merge) < 0 {
					t.Error("key-order walk matches the merge on a layout keyOrderOK excludes; the case does not test the condition")
				}
			}
		})
	}
}

// TestPaperLayoutsTakeKeyOrder pins the fig3 adder (QFA 7+8, target
// measured) and the fig4 multiplier (QFM 4×4, product measured) to the
// key-order walk, so a silent fall back to the merge fails here.
func TestPaperLayoutsTakeKeyOrder(t *testing.T) {
	full := arith.Config{Depth: qft.Full, AddCut: arith.FullAdd}
	cases := []struct {
		name    string
		res     *transpile.Result
		measure []int
	}{
		{"fig3-qfa-7-8", transpile.Transpile(arith.NewQFA(7, 8, full)), arith.Range(7, 8)},
		{"fig4-qfm-4-4", transpile.Transpile(arith.NewQFM(4, 4, full)), arith.Range(0, 8)},
	}
	for _, c := range cases {
		e := NewEngine(c.res, Noiseless)
		if e.KeyMask() == 0 {
			t.Fatalf("%s: no key qubits", c.name)
		}
		fs := sim.GetBlocks(c.res.NumQubits, e.KeyMask())
		if !keyOrderOK(fs, nil, c.measure) {
			t.Errorf("%s: measured register takes the merge, want the key-order walk", c.name)
		}
		sim.PutBlocks(fs)
	}
}

// BenchmarkRegisterProbsBlocks is one register-probability walk on the
// fig3 layout: QFA 7+8 on a 2:2 input, 2 blocks of 2^8 amplitudes, the
// target register measured. merge is the k-way merge the key-order walk
// replaces on this layout.
func BenchmarkRegisterProbsBlocks(b *testing.B) {
	fs := randomBlocks(15, 0x7f, []uint64{100, 19}, 1)
	defer sim.PutBlocks(fs)
	measure := arith.Range(7, 8)
	out := make([]float64, 1<<8)
	sc := new(mixScratch)
	for _, walk := range []struct {
		name string
		f    func(*sim.Blocks, frame, []float64, []int, *mixScratch)
	}{
		{"key-order", registerProbsBlocks},
		{"merge", registerProbsMerge},
	} {
		b.Run(walk.name, func(b *testing.B) {
			walk.f(fs, nil, out, measure, sc)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				walk.f(fs, nil, out, measure, sc)
			}
		})
	}
}
