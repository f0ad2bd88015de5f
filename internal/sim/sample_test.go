package sim_test

import (
	"math"
	"math/rand/v2"
	"testing"

	"qfarith/internal/sim"
)

func TestCDFMonotoneAndNormalized(t *testing.T) {
	probs := []float64{0.1, 0.4, 0.0, 0.3, 0.2}
	cdf := sim.CDF(probs)
	if len(cdf) != len(probs) {
		t.Fatalf("CDF length %d, want %d", len(cdf), len(probs))
	}
	for i := 1; i < len(cdf); i++ {
		if cdf[i] < cdf[i-1] {
			t.Errorf("CDF not monotone at %d: %g < %g", i, cdf[i], cdf[i-1])
		}
	}
	if cdf[len(cdf)-1] != 1 {
		t.Errorf("CDF final value %g, want exactly 1", cdf[len(cdf)-1])
	}
}

func TestCDFNormalizesDriftedInput(t *testing.T) {
	// Kernel arithmetic can leave the vector summing slightly off 1;
	// CDF must renormalize so sampling stays well-defined.
	probs := []float64{0.2, 0.2, 0.2, 0.2, 0.2}
	for i := range probs {
		probs[i] *= 1.001
	}
	cdf := sim.CDF(probs)
	if cdf[len(cdf)-1] != 1 {
		t.Errorf("drifted input: final CDF %g, want 1", cdf[len(cdf)-1])
	}
	if math.Abs(cdf[1]-0.4) > 1e-12 {
		t.Errorf("cdf[1] = %g, want 0.4 after normalization", cdf[1])
	}
}

func TestCDFClampsNegativeNoise(t *testing.T) {
	// Tiny negative entries (floating-point noise from kernels) must be
	// treated as zero, keeping the CDF monotone.
	probs := []float64{0.5, -1e-17, 0.5}
	cdf := sim.CDF(probs)
	if cdf[1] < cdf[0] {
		t.Errorf("negative entry broke monotonicity: %v", cdf)
	}
}

func TestCDFAllZeros(t *testing.T) {
	cdf := sim.CDF([]float64{0, 0, 0})
	for i := 0; i < len(cdf)-1; i++ {
		if cdf[i] != 0 {
			t.Errorf("cdf[%d] = %g, want 0", i, cdf[i])
		}
	}
	if cdf[len(cdf)-1] != 1 {
		t.Errorf("final CDF %g, want 1 (sampling must stay defined)", cdf[len(cdf)-1])
	}
}

func TestCountsSumToShots(t *testing.T) {
	probs := []float64{0.05, 0.25, 0.3, 0.4}
	for _, shots := range []int{1, 7, 2048} {
		counts := sim.NewSampler(5, 6).Counts(probs, shots)
		if len(counts) != len(probs) {
			t.Fatalf("counts length %d, want %d", len(counts), len(probs))
		}
		total := 0
		for _, c := range counts {
			total += c
		}
		if total != shots {
			t.Errorf("shots=%d: counts sum to %d", shots, total)
		}
	}
}

func TestCountsSkipZeroProbabilityBins(t *testing.T) {
	// Zero-probability bins share a CDF value with their predecessor;
	// no shot may ever land in one.
	probs := []float64{0.5, 0, 0, 0.5, 0}
	counts := sim.NewSampler(11, 12).Counts(probs, 4096)
	for _, i := range []int{1, 2, 4} {
		if counts[i] != 0 {
			t.Errorf("zero-probability bin %d received %d counts", i, counts[i])
		}
	}
}

func TestCountsDegenerateDistribution(t *testing.T) {
	probs := []float64{0, 0, 1, 0}
	counts := sim.NewSampler(1, 2).Counts(probs, 100)
	if counts[2] != 100 {
		t.Errorf("point mass: counts = %v, want all 100 in bin 2", counts)
	}
}

func TestSamplerSeedDeterminism(t *testing.T) {
	probs := []float64{0.1, 0.2, 0.3, 0.4}
	a := sim.NewSampler(42, 43).Counts(probs, 1024)
	b := sim.NewSampler(42, 43).Counts(probs, 1024)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at bin %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := sim.NewSampler(42, 44).Counts(probs, 1024)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Log("note: different seeds produced identical histograms (possible but unlikely)")
	}
}

func TestCountsConvergeToDistribution(t *testing.T) {
	probs := []float64{0.1, 0.2, 0.3, 0.4}
	const shots = 1 << 16
	counts := sim.NewSampler(9, 10).Counts(probs, shots)
	for i, p := range probs {
		got := float64(counts[i]) / shots
		// Binomial sigma ~ sqrt(p(1-p)/shots) <= 0.002; 5-sigma bound.
		if math.Abs(got-p) > 0.01 {
			t.Errorf("bin %d frequency %g, want ~%g", i, got, p)
		}
	}
}

func TestOneMatchesSupport(t *testing.T) {
	probs := []float64{0, 0.5, 0.5, 0}
	s := sim.NewSampler(3, 4)
	for i := 0; i < 200; i++ {
		k := s.One(probs)
		if k != 1 && k != 2 {
			t.Fatalf("One drew %d, outside the support {1,2}", k)
		}
	}
}

func TestMixInto(t *testing.T) {
	dst := []float64{0.1, 0.2}
	sim.MixInto(dst, []float64{0.5, 0.5}, 0.2)
	if math.Abs(dst[0]-0.2) > 1e-12 || math.Abs(dst[1]-0.3) > 1e-12 {
		t.Errorf("MixInto = %v, want [0.2 0.3]", dst)
	}
}

func TestCDFIntoMatchesCDF(t *testing.T) {
	cases := [][]float64{
		{1},
		{0.1, 0.4, 0.0, 0.3, 0.2},
		{0, 0, 0},
		{1e-320, 1, 1e-320},
		{-1e-17, 0.5, 0.5},
		{0.2002, 0.2002, 0.2, 0.2, 0.2},
	}
	buf := make([]float64, 0, 2) // force at least one growth
	for _, probs := range cases {
		want := sim.CDF(probs)
		buf = sim.CDFInto(buf, probs)
		if len(buf) != len(want) {
			t.Fatalf("CDFInto length %d, want %d", len(buf), len(want))
		}
		for i := range want {
			if math.Float64bits(buf[i]) != math.Float64bits(want[i]) {
				t.Errorf("probs=%v: CDFInto[%d] = %v, CDF = %v (bit mismatch)", probs, i, buf[i], want[i])
			}
		}
	}
}

// samplerTestDists mirrors the adversarial gallery of the internal
// tests at the public API level: zero bins everywhere, point masses,
// denormal-adjacent weights, drifted normalization.
func samplerTestDists(rng *rand.Rand) [][]float64 {
	dists := [][]float64{
		{1},
		{0.5, 0.5},
		{0.1, 0.4, 0.0, 0.3, 0.2},
		{0, 0, 1, 0},
		{1, 0, 0, 0},
		{0, 0, 0, 1},
		{0.5, 0, 0, 0.5, 0},
		{0, 0, 0},
		{1e-320, 1, 1e-320},
		{5e-324, 5e-324, 1},
		{0.2002, 0.2002, 0.2, 0.2, 0.2},
		{-1e-17, 0.5, 0.5},
	}
	for _, n := range []int{2, 17, 256, 1024} {
		probs := make([]float64, n)
		for i := range probs {
			if rng.Float64() < 0.4 {
				continue
			}
			probs[i] = rng.Float64()
		}
		dists = append(dists, probs)
	}
	return dists
}

// TestCountsIntoMatchesCounts is the histogram-level equality property
// the bit-exactness contract rests on: for identical seeds, the guide-
// table and sorted-merge samplers produce count arrays exactly equal to
// the binary-search reference, across zero bins, point masses, and
// denormal-adjacent weights.
func TestCountsIntoMatchesCounts(t *testing.T) {
	rng := rand.New(rand.NewPCG(101, 103))
	sc := sim.GetSampleScratch()
	defer sim.PutSampleScratch(sc)
	for di, probs := range samplerTestDists(rng) {
		for _, shots := range []int{0, 1, 7, 2048} {
			seed1, seed2 := rng.Uint64(), rng.Uint64()
			want := sim.NewSampler(seed1, seed2).Counts(probs, shots)

			got := make([]int, len(probs))
			sim.NewSampler(seed1, seed2).CountsInto(sc, probs, shots, got)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("dist %d shots %d: CountsInto[%d] = %d, Counts = %d", di, shots, i, got[i], want[i])
				}
			}
		}
	}
}

// TestReseedMatchesFreshSampler pins the pooled-sampler contract: a
// reseeded sampler's draw stream is bit-identical to a fresh one.
func TestReseedMatchesFreshSampler(t *testing.T) {
	s := sim.NewSampler(1, 2)
	probs := []float64{0.25, 0.25, 0.25, 0.25}
	_ = s.Counts(probs, 100) // advance the state
	s.Reseed(42, 43)
	got := s.Counts(probs, 256)
	want := sim.NewSampler(42, 43).Counts(probs, 256)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reseeded sampler diverged at bin %d: %d vs %d", i, got[i], want[i])
		}
	}
}

// TestCountsIntoZeroAllocWarm enforces the zero-alloc contract of the
// pooled sampling stage: with warm scratch buffers, CountsInto does
// not allocate.
func TestCountsIntoZeroAllocWarm(t *testing.T) {
	probs := make([]float64, 256)
	for i := range probs {
		probs[i] = 1.0 / 256
	}
	s := sim.NewSampler(9, 10)
	sc := sim.GetSampleScratch()
	defer sim.PutSampleScratch(sc)
	out := make([]int, len(probs))
	s.CountsInto(sc, probs, 2048, out) // warm the guide/CDF buffers
	if n := testing.AllocsPerRun(20, func() { s.CountsInto(sc, probs, 2048, out) }); n != 0 {
		t.Errorf("warm CountsInto allocates %v times per run, want 0", n)
	}
}
