package sim_test

import (
	"encoding/binary"
	"math"
	"testing"

	"qfarith/internal/sim"
)

// FuzzSamplerEquivalence fuzzes the bit-exactness contract: for an
// arbitrary probability vector (decoded from raw bytes, so the fuzzer
// can reach zero bins, denormals, and unnormalized inputs) and an
// arbitrary seed, the guide-table sampler must produce histograms
// exactly equal to the binary-search reference.
func FuzzSamplerEquivalence(f *testing.F) {
	// Seed corpus: uniform, point mass, zero bins, denormal-adjacent
	// weights, and a drifted-normalization vector.
	enc := func(ps ...float64) []byte {
		b := make([]byte, 8*len(ps))
		for i, p := range ps {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(p))
		}
		return b
	}
	f.Add(enc(0.25, 0.25, 0.25, 0.25), uint64(1), uint64(2), uint16(256))
	f.Add(enc(0, 0, 1, 0), uint64(3), uint64(4), uint16(64))
	f.Add(enc(0.5, 0, 0, 0.5, 0), uint64(5), uint64(6), uint16(2048))
	f.Add(enc(1e-320, 1, 5e-324), uint64(7), uint64(8), uint16(32))
	f.Add(enc(0.2002, 0.2002, 0.2, 0.2, 0.2), uint64(9), uint64(10), uint16(1))
	f.Add(enc(0, 0, 0), uint64(11), uint64(12), uint16(128))

	f.Fuzz(func(t *testing.T, data []byte, seed1, seed2 uint64, rawShots uint16) {
		n := len(data) / 8
		if n == 0 || n > 4096 {
			return
		}
		probs := make([]float64, n)
		for i := range probs {
			v := math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e300 {
				return // CDF's clamp-and-normalize contract assumes finite input
			}
			probs[i] = v
		}
		shots := int(rawShots % 4096)

		want := sim.NewSampler(seed1, seed2).Counts(probs, shots)

		sc := sim.GetSampleScratch()
		defer sim.PutSampleScratch(sc)
		got := make([]int, n)
		sim.NewSampler(seed1, seed2).CountsInto(sc, probs, shots, got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("CountsInto[%d] = %d, Counts = %d (probs=%v shots=%d)", i, got[i], want[i], probs, shots)
			}
		}
	})
}
