package sim

import (
	"math/rand/v2"
	"sort"
	"sync"
)

// Sampler draws measurement shots from probability distributions. It
// wraps a deterministic PCG source so experiments are reproducible from
// a seed.
type Sampler struct {
	rng *rand.Rand
	pcg *rand.PCG
}

// NewSampler returns a Sampler seeded with the two-word PCG seed.
func NewSampler(seed1, seed2 uint64) *Sampler {
	pcg := rand.NewPCG(seed1, seed2)
	return &Sampler{rng: rand.New(pcg), pcg: pcg}
}

// Reseed resets the sampler's PCG state to the two-word seed. The
// subsequent draw stream is bit-identical to a fresh
// NewSampler(seed1, seed2), so pooled samplers can be recycled across
// instances without perturbing any fixed-seed contract.
func (s *Sampler) Reseed(seed1, seed2 uint64) {
	s.pcg.Seed(seed1, seed2)
}

// Rand exposes the underlying RNG (used by the noise trajectory sampler).
func (s *Sampler) Rand() *rand.Rand { return s.rng }

// CDF converts a probability vector into a cumulative distribution,
// normalizing away accumulated floating-point drift. It allocates a
// fresh slice per call; hot paths should use CDFInto with a pooled
// buffer.
func CDF(probs []float64) []float64 {
	return CDFInto(make([]float64, len(probs)), probs)
}

// CDFInto is CDF writing into dst, growing it only when its capacity is
// insufficient, and returns the (possibly re-allocated) slice. dst and
// probs may not alias unless identical. The result is bit-identical to
// CDF for every input.
func CDFInto(dst, probs []float64) []float64 {
	if cap(dst) < len(probs) {
		dst = make([]float64, len(probs))
	}
	dst = dst[:len(probs)]
	var acc float64
	for i, p := range probs {
		if p < 0 {
			p = 0 // numerical noise from kernel arithmetic
		}
		acc += p
		dst[i] = acc
	}
	if acc > 0 {
		inv := 1 / acc
		for i := range dst {
			dst[i] *= inv
		}
	}
	dst[len(dst)-1] = 1
	return dst
}

// searchBin resolves one uniform against a CDF exactly as the original
// inverse-CDF sampler did: the first index k with cdf[k] >= u
// (sort.SearchFloat64s), clamped into range, then the defensive
// duplicate-value skip loop. Every other resolution strategy in this
// file must return this bin for every u in [0, 1) — that is the
// bit-exactness contract the fixed-seed CSV diffs pin.
func searchBin(cdf []float64, u float64) int {
	k := sort.SearchFloat64s(cdf, u)
	if k >= len(cdf) {
		k = len(cdf) - 1
	}
	// SearchFloat64s already guarantees cdf[k] >= u when in range; the
	// loop is kept as the historical guard for a non-monotone cdf.
	for k < len(cdf)-1 && cdf[k] < u {
		k++
	}
	return k
}

// Counts draws `shots` samples from the distribution described by probs
// and returns a histogram of outcomes. Sampling is by inverse-CDF binary
// search, so the cost is O(shots * log len(probs)) plus a CDF allocation
// per call. It is retained verbatim as the reference implementation the
// constant-time CountsInto path is CI-diffed against; sweeps select it
// with the legacy sampler toggle.
func (s *Sampler) Counts(probs []float64, shots int) []int {
	cdf := CDF(probs)
	out := make([]int, len(probs))
	for i := 0; i < shots; i++ {
		out[searchBin(cdf, s.rng.Float64())]++
	}
	return out
}

// One draws a single sample from probs. Unlike histogram sampling —
// where a u landing on the shared CDF value of a zero-probability run
// resolves to the run's first bin, which always has positive width —
// a draw of exactly 0 against leading zero-probability bins would
// return bin 0 with cdf[0] == 0; oneBin skips past those so One never
// reports an outcome of probability zero.
func (s *Sampler) One(probs []float64) int {
	return oneBin(CDF(probs), s.rng.Float64())
}

// oneBin is searchBin plus the zero-width fixup for One: a bin with
// cdf[k] == 0 has zero cumulative probability (only reachable when
// u == 0 lands in a run of leading zero-probability bins), so skip
// forward to the first bin of positive cumulative weight.
func oneBin(cdf []float64, u float64) int {
	k := searchBin(cdf, u)
	for k < len(cdf)-1 && cdf[k] == 0 {
		k++
	}
	return k
}

// SampleScratch holds the reusable buffers of the constant-time
// sampling stage: the in-place CDF and its guide table. Obtain one from
// GetSampleScratch and return it with PutSampleScratch; a warm scratch
// makes CountsInto allocation-free.
type SampleScratch struct {
	cdf   []float64
	guide []int32
}

var sampleScratchPool = sync.Pool{New: func() any { return new(SampleScratch) }}

// GetSampleScratch returns a sampling scratch from the pool. Buffer
// contents are undefined until prepare/CountsInto fills them.
func GetSampleScratch() *SampleScratch {
	return sampleScratchPool.Get().(*SampleScratch)
}

// PutSampleScratch returns a scratch obtained from GetSampleScratch to
// the pool. The scratch must not be used after.
func PutSampleScratch(sc *SampleScratch) {
	if sc != nil {
		sampleScratchPool.Put(sc)
	}
}

// guideLen picks the guide-table size for an m-bin CDF: the power of
// two at least 2m (so the expected scan per lookup is under half a CDF
// entry), floored at 64 and capped at 2^20 entries (4 MiB of int32;
// beyond that the table would blow the cache it exists to exploit —
// lookups stay correct, just with longer expected scans).
func guideLen(m int) int {
	g := 64
	for g < 2*m && g < 1<<20 {
		g <<= 1
	}
	return g
}

// prepare builds the CDF of probs and its guide table into the scratch.
// guide[j] is the first bin k with cdf[k] >= j/G. G is a power of two,
// so for any u in [0,1) both j = floor(u*G) and the threshold j/G are
// computed exactly (scaling a float64 by a power of two and dividing a
// small integer by one are exact): j/G <= u, hence guide[j] can never
// overshoot the target bin and the forward scan in bin() terminates on
// exactly the searchBin result.
func (sc *SampleScratch) prepare(probs []float64) {
	sc.cdf = CDFInto(sc.cdf, probs)
	g := guideLen(len(probs))
	if cap(sc.guide) < g {
		sc.guide = make([]int32, g)
	}
	sc.guide = sc.guide[:g]
	inv := 1 / float64(g)
	k := 0
	for j := range sc.guide {
		t := float64(j) * inv
		for sc.cdf[k] < t {
			k++
		}
		sc.guide[j] = int32(k)
	}
}

// bin resolves one uniform through the guide table in O(1) expected
// time; the result equals searchBin(cdf, u) for every u in [0, 1).
func (sc *SampleScratch) bin(u float64) int {
	k := int(sc.guide[int(u*float64(len(sc.guide)))])
	for sc.cdf[k] < u {
		k++
	}
	return k
}

// CountsInto draws `shots` samples from probs and accumulates the
// histogram into out (len(out) must equal len(probs); it is zeroed
// first). The uniforms are drawn in exactly the same RNG order as
// Counts, and each resolves through the scratch's guide table to the
// identical bin as Counts' binary search, so the resulting histogram is
// bit-identical to Counts for equal sampler state — in O(len(probs) +
// shots) instead of O(shots * log len(probs)), with zero allocations
// once the scratch is warm.
func (s *Sampler) CountsInto(sc *SampleScratch, probs []float64, shots int, out []int) {
	if len(out) != len(probs) {
		panic("sim: CountsInto histogram length mismatch")
	}
	sc.prepare(probs)
	for i := range out {
		out[i] = 0
	}
	for i := 0; i < shots; i++ {
		out[sc.bin(s.rng.Float64())]++
	}
}

// MixInto accumulates weight*src into dst (both probability vectors).
func MixInto(dst []float64, src []float64, weight float64) {
	for i := range dst {
		dst[i] += weight * src[i]
	}
}
