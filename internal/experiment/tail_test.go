package experiment

import (
	"context"
	"reflect"
	"runtime/debug"
	"slices"
	"testing"

	"qfarith/internal/backend"
	"qfarith/internal/metrics"
	"qfarith/internal/noise"
	"qfarith/internal/qft"
	"qfarith/internal/sim"
)

// correctSet returns the expected output values for the operands,
// built from the allocating map forms and sorted as metrics.Score reads
// them.
func (cfg PointConfig) correctSet(xs, ys []int) []int {
	g := cfg.Geometry
	var set map[int]bool
	switch g.Op {
	case OpAdd:
		set = metrics.CorrectSums(xs, ys, g.OutBits)
	case OpSub:
		set = metrics.CorrectDiffs(xs, ys, g.OutBits)
	case OpMulSigned:
		set = metrics.CorrectSignedProducts(xs, ys, g.XBits, g.YBits)
	default:
		set = metrics.CorrectProducts(xs, ys, g.OutBits)
	}
	sorted := make([]int, 0, len(set))
	for v := range set {
		sorted = append(sorted, v)
	}
	slices.Sort(sorted)
	return sorted
}

// TestRunPointSamplerEquivalence is the bit-exactness contract of the
// instance tail: on every instance of a point, for the distributions a
// noisy run produces, the pooled guide-table tail returns the same
// InstanceResult as the allocating binary-search oracle —
// sim.Sampler.Counts scored by metrics.Score — with the same seeds.
func TestRunPointSamplerEquivalence(t *testing.T) {
	for _, geo := range []Geometry{AddGeometry(3, 4), MulGeometry(3, 3), SubGeometry(3, 4)} {
		cfg := PointConfig{
			Geometry:     geo,
			Depth:        qft.Full,
			Model:        noise.PaperModel(0.01, 0.01),
			OrderX:       1,
			OrderY:       2,
			Instances:    6,
			Shots:        512,
			Trajectories: 6,
			RowSeed:      11,
			PointSeed:    777,
		}
		b, err := backend.New(backend.DefaultName)
		if err != nil {
			t.Fatal(err)
		}
		res := geo.BuildCircuit(cfg.Depth)
		for idx := 0; idx < cfg.Instances; idx++ {
			xs, ys := cfg.instanceOperands(idx)
			dist, diag, err := b.Run(context.Background(), backend.PointSpec{
				Circuit: res, Model: cfg.Model, Initial: cfg.initialTerms(nil, xs, ys),
				Measure: geo.OutReg, Trajectories: cfg.Trajectories,
				Seed1: SplitSeed(cfg.PointSeed, uint64(idx)), Seed2: mixtureSeed2,
			})
			if err != nil {
				t.Fatal(err)
			}
			want := metrics.Score(sim.NewSampler(cfg.sampleSeeds(idx)).Counts(dist, cfg.Shots), cfg.correctSet(xs, ys))
			want.Fidelity = metrics.ClassicalFidelity(diag.Ideal, dist)
			if got := cfg.SampleAndScore(idx, xs, ys, dist, diag.Ideal); !reflect.DeepEqual(got, want) {
				t.Errorf("%v instance %d: pooled tail %+v, oracle %+v", geo.Op, idx, got, want)
			}
		}
	}
}

// TestSampleAndScoreZeroAlloc pins the tentpole: a warm instance tail
// allocates nothing. GC is disabled so sync.Pool cannot be drained
// between iterations.
func TestSampleAndScoreZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; alloc contract is checked in the non-race run")
	}
	cfg := PointConfig{
		Geometry:  AddGeometry(3, 4),
		OrderX:    1,
		OrderY:    2,
		Shots:     2048,
		RowSeed:   11,
		PointSeed: 41,
	}
	dist := make([]float64, 1<<uint(len(cfg.Geometry.OutReg)))
	for i := range dist {
		dist[i] = 1 / float64(len(dist))
	}
	xs, ys := cfg.instanceOperands(0)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cfg.SampleAndScore(0, xs, ys, dist, dist) // warm the pool
	allocs := testing.AllocsPerRun(20, func() {
		cfg.SampleAndScore(0, xs, ys, dist, dist)
	})
	if allocs != 0 {
		t.Errorf("warm SampleAndScore allocates %.1f times per run, want 0", allocs)
	}
}
