// Benchmarks regenerating every table and figure of the paper, plus
// microbenchmarks of the underlying engine. Each figure panel has one
// bench that runs a representative sweep point at a reduced statistical
// budget (the full-budget sweeps live behind `qfarith fig3` / `fig4`);
// the benchmark REPORTS the success rate as a custom metric so `go test
// -bench` output doubles as a small-scale reproduction table.
package qfarith_test

import (
	"context"
	"fmt"
	"runtime/debug"
	"testing"

	"qfarith/internal/arith"
	"qfarith/internal/backend"
	"qfarith/internal/experiment"
	"qfarith/internal/noise"
	"qfarith/internal/qft"
	"qfarith/internal/qint"
	"qfarith/internal/sim"
	"qfarith/internal/transpile"
)

// benchBudget keeps bench iterations affordable on one core.
var benchBudget = experiment.Budget{Instances: 4, Shots: 512, Trajectories: 8}

// --------------------------------------------------------------- Table I

// BenchmarkTable1GateCounts regenerates Table I (both operations, all
// depths) per iteration and validates the counts against the paper.
func BenchmarkTable1GateCounts(b *testing.B) {
	want := map[string][2]int{
		"qfa-1": {163, 98}, "qfa-2": {199, 122}, "qfa-3": {229, 142},
		"qfa-4": {253, 158}, "qfa-7": {289, 182},
		"qfm-1": {1032, 744}, "qfm-2": {1248, 936}, "qfm-full": {1464, 1128},
	}
	for i := 0; i < b.N; i++ {
		for _, d := range []int{1, 2, 3, 4, 7} {
			c := arith.NewQFA(7, 8, arith.Config{Depth: d, AddCut: arith.FullAdd})
			one, two := transpile.PaperCounts(c)
			k := fmt.Sprintf("qfa-%d", d)
			if w := want[k]; one != w[0] || two != w[1] {
				b.Fatalf("%s: (%d,%d) != %v", k, one, two, w)
			}
		}
		for _, d := range []int{1, 2, qft.Full} {
			c := arith.NewQFM(4, 4, arith.Config{Depth: d, AddCut: arith.FullAdd})
			one, two := transpile.PaperCounts(c)
			k := fmt.Sprintf("qfm-%d", d)
			if d == qft.Full {
				k = "qfm-full"
			}
			if w := want[k]; one != w[0] || two != w[1] {
				b.Fatalf("%s: (%d,%d) != %v", k, one, two, w)
			}
		}
	}
}

// --------------------------------------------------------------- figures

// figPoint runs one representative point of a figure panel: the
// "current hardware" rate on that panel's axis (0.2% for 1q, 1.0% for
// 2q) at AQFT depth 3 for addition and depth 2 for multiplication.
func figPoint(b *testing.B, geo experiment.Geometry, axis experiment.ErrorAxis, ox, oy int) {
	depth := 3
	if geo.Op == experiment.OpMul {
		depth = 2
	}
	model := noise.PaperModel(0.002, 0)
	if axis == experiment.Axis2Q {
		model = noise.PaperModel(0, 0.010)
	}
	var last experiment.PointResult
	for i := 0; i < b.N; i++ {
		cfg := experiment.PointConfig{
			Geometry: geo, Depth: depth, Model: model,
			OrderX: ox, OrderY: oy,
			Instances:    benchBudget.Instances,
			Shots:        benchBudget.Shots,
			Trajectories: benchBudget.Trajectories,
			RowSeed:      77, PointSeed: uint64(i) + 1,
		}
		last = benchRunPoint(b, cfg, 0)
	}
	b.ReportMetric(last.Stats.SuccessRate, "success%")
	b.ReportMetric(float64(last.Native2q), "cx_gates")
}

// benchRunPoint runs one point through experiment.RunPoint on a fresh
// trajectory runner, so every iteration pays the same compile and
// engine set-up a sweep's first visit to the point pays.
func benchRunPoint(b *testing.B, cfg experiment.PointConfig, addCut int) experiment.PointResult {
	r := backend.NewRunner(backend.NewTrajectoryBackend(), cfg.Workers)
	pr, err := experiment.RunPoint(context.Background(), r, cfg, experiment.PointOptions{AddCut: addCut})
	if err != nil {
		b.Fatal(err)
	}
	return pr
}

// Fig. 3 — QFA success rates (panels a–f).
func BenchmarkFig3a_QFA_1q_11(b *testing.B) {
	figPoint(b, experiment.PaperAddGeometry(), experiment.Axis1Q, 1, 1)
}
func BenchmarkFig3b_QFA_2q_11(b *testing.B) {
	figPoint(b, experiment.PaperAddGeometry(), experiment.Axis2Q, 1, 1)
}
func BenchmarkFig3c_QFA_1q_12(b *testing.B) {
	figPoint(b, experiment.PaperAddGeometry(), experiment.Axis1Q, 1, 2)
}
func BenchmarkFig3d_QFA_2q_12(b *testing.B) {
	figPoint(b, experiment.PaperAddGeometry(), experiment.Axis2Q, 1, 2)
}
func BenchmarkFig3e_QFA_1q_22(b *testing.B) {
	figPoint(b, experiment.PaperAddGeometry(), experiment.Axis1Q, 2, 2)
}
func BenchmarkFig3f_QFA_2q_22(b *testing.B) {
	figPoint(b, experiment.PaperAddGeometry(), experiment.Axis2Q, 2, 2)
}

// Fig. 4 — QFM success rates (panels a–f).
func BenchmarkFig4a_QFM_1q_11(b *testing.B) {
	figPoint(b, experiment.PaperMulGeometry(), experiment.Axis1Q, 1, 1)
}
func BenchmarkFig4b_QFM_2q_11(b *testing.B) {
	figPoint(b, experiment.PaperMulGeometry(), experiment.Axis2Q, 1, 1)
}
func BenchmarkFig4c_QFM_1q_12(b *testing.B) {
	figPoint(b, experiment.PaperMulGeometry(), experiment.Axis1Q, 1, 2)
}
func BenchmarkFig4d_QFM_2q_12(b *testing.B) {
	figPoint(b, experiment.PaperMulGeometry(), experiment.Axis2Q, 1, 2)
}
func BenchmarkFig4e_QFM_1q_22(b *testing.B) {
	figPoint(b, experiment.PaperMulGeometry(), experiment.Axis1Q, 2, 2)
}
func BenchmarkFig4f_QFM_2q_22(b *testing.B) {
	figPoint(b, experiment.PaperMulGeometry(), experiment.Axis2Q, 2, 2)
}

// BenchmarkAblateAddCut is the E6 ablation: QFA with the addition-step
// rotation cutoff the paper defers to future work.
func BenchmarkAblateAddCut(b *testing.B) {
	var last experiment.PointResult
	for i := 0; i < b.N; i++ {
		cfg := experiment.PointConfig{
			Geometry: experiment.PaperAddGeometry(),
			Depth:    qft.Full,
			Model:    noise.PaperModel(0, 0.01),
			OrderX:   2, OrderY: 2,
			Instances:    benchBudget.Instances,
			Shots:        benchBudget.Shots,
			Trajectories: benchBudget.Trajectories,
			RowSeed:      7, PointSeed: uint64(i) + 1,
		}
		last = benchRunPoint(b, cfg, 3)
	}
	b.ReportMetric(last.Stats.SuccessRate, "success%")
}

// ------------------------------------------------------ transpile cache

// BenchmarkPanelTranspileCache measures the circuit-construction cost of
// a fig3-shaped panel (7 rates x 5 depths over the paper QFA geometry).
// Every rate column reuses the same five circuits, so the runner's
// transpile cache collapses 35 transpile calls to 5; the two
// sub-benchmarks quantify that saving.
func BenchmarkPanelTranspileCache(b *testing.B) {
	geo := experiment.PaperAddGeometry()
	rates := 7
	depths := []int{1, 2, 3, 4, qft.Full}
	b.Run("uncached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for r := 0; r < rates; r++ {
				for _, d := range depths {
					if geo.BuildCircuit(d) == nil {
						b.Fatal("nil circuit")
					}
				}
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cache := backend.NewTranspileCache()
			for r := 0; r < rates; r++ {
				for _, d := range depths {
					key := backend.CircuitKey{
						Family: geo.Op.String(),
						XBits:  geo.XBits, YBits: geo.YBits,
						Depth: d, AddCut: arith.FullAdd,
					}
					res := cache.Get(key, func() *transpile.Result { return geo.BuildCircuit(d) })
					if res == nil {
						b.Fatal("nil circuit")
					}
				}
			}
			if hits, misses := cache.Stats(); misses != len(depths) || hits != rates*len(depths)-len(depths) {
				b.Fatalf("cache stats (%d hits, %d misses) off-plan", hits, misses)
			}
		}
	})
}

// ----------------------------------------------------------- microbench

func BenchmarkQFTApply8(b *testing.B) {
	c := qft.New(8, qft.Full)
	st := sim.NewState(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.ApplyCircuit(c)
	}
}

func BenchmarkQFAApplyPaperGeometry(b *testing.B) {
	c := arith.NewQFA(7, 8, arith.DefaultConfig())
	st := sim.NewState(15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.ApplyCircuit(c)
	}
}

func BenchmarkQFMApplyPaperGeometry(b *testing.B) {
	c := arith.NewQFM(4, 4, arith.DefaultConfig())
	st := sim.NewState(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.ApplyCircuit(c)
	}
}

// BenchmarkNoisyTrajectoryQFA is one noisy trajectory through the
// mixture entry: Mixture with K = 1 (the ideal stratum plus one
// conditional trajectory) on |0…0⟩ — keyed blocks, one key value. The
// engine is warmed once first, so the timed calls (and allocs/op) are
// the steady state, not the lazy plan build and first pool fills.
func BenchmarkNoisyTrajectoryQFA(b *testing.B) {
	benchOneTrajectory(b, experiment.PaperAddGeometry(), 1, 2)
}

func BenchmarkNoisyTrajectoryQFM(b *testing.B) {
	benchOneTrajectory(b, experiment.PaperMulGeometry(), 3, 4)
}

func benchOneTrajectory(b *testing.B, geo experiment.Geometry, seed1, seed2 uint64) {
	res := geo.BuildCircuit(qft.Full)
	engine := noise.NewEngine(res, noise.PaperModel(0.002, 0.01))
	out := make([]float64, 1<<uint(len(geo.OutReg)))
	rng := sim.NewSampler(seed1, seed2).Rand()
	opts := noise.MixtureOpts{Trajectories: 1, Measure: geo.OutReg}
	engine.Mixture(out, nil, opts, rng) // warm the plan and pools
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.Mixture(out, nil, opts, rng)
	}
}

// BenchmarkTrajectoryMixture is the trajectory-engine hot path as the
// experiment layer drives it: one Mixture call per iteration (ideal
// stratum + K conditional trajectories) on the paper geometries at the
// current-hardware noise point. ReportAllocs makes steady-state scratch
// allocations visible: divide allocs/op by K+1 for the per-trajectory
// figure the fast-path work targets at zero. Each engine is warmed once
// before the timer starts, so the rows report the steady state. The
// |0…0⟩ rows take keyed blocks (one key value).
func BenchmarkTrajectoryMixture(b *testing.B) {
	bench := func(b *testing.B, geo experiment.Geometry, depth, traj int, initial []sim.Amp) {
		res := geo.BuildCircuit(depth)
		engine := noise.NewEngine(res, noise.PaperModel(0.002, 0.01))
		out := make([]float64, 1<<uint(len(geo.OutReg)))
		rng := sim.NewSampler(21, 42).Rand()
		opts := noise.MixtureOpts{Trajectories: traj, Measure: geo.OutReg}
		engine.Mixture(out, initial, opts, rng) // warm the plan and pools
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			engine.Mixture(out, initial, opts, rng)
		}
	}
	b.Run("qfa-d3-k32", func(b *testing.B) {
		bench(b, experiment.PaperAddGeometry(), 3, 32, nil)
	})
	b.Run("qfa-full-k32", func(b *testing.B) {
		bench(b, experiment.PaperAddGeometry(), qft.Full, 32, nil)
	})
	b.Run("qfm-d2-k32", func(b *testing.B) {
		bench(b, experiment.PaperMulGeometry(), 2, 32, nil)
	})
	b.Run("qfm-full-k32", func(b *testing.B) {
		bench(b, experiment.PaperMulGeometry(), qft.Full, 32, nil)
	})

	// The fig3 workload's shape, full-depth adder at K = 24, on the two
	// layouts: a wide input spanning all 128 addend values, too many for
	// keyed blocks, runs on one block of 2^15 amplitudes; the 2:2 input
	// on its 2 live blocks of 2^8.
	geo := experiment.PaperAddGeometry()
	var wide, pairs []sim.Amp
	for x := 0; x < 128; x++ {
		wide = append(wide, sim.Amp{Index: x | (37*x+5)%256<<uint(len(geo.XReg)), Value: 1})
	}
	for _, x := range []int{19, 100} {
		for _, y := range []int{7, 200} {
			pairs = append(pairs, sim.Amp{Index: x | y<<uint(len(geo.XReg)), Value: 0.5})
		}
	}
	b.Run("dense-qfa-wide-k24", func(b *testing.B) {
		bench(b, geo, qft.Full, 24, wide)
	})
	b.Run("factored-qfa-22-k24", func(b *testing.B) {
		bench(b, geo, qft.Full, 24, pairs)
	})
}

// BenchmarkTrajectoryMixtureSteadyState is BenchmarkTrajectoryMixture's
// qfa-d3 case with the GC disabled for the timed region: without
// collections emptying the sync.Pools mid-run, the warm per-trajectory
// loop must report exactly 0 allocs/op (any nonzero value here is a
// scratch-reuse regression; TestMixtureSteadyStateZeroAlloc enforces the
// same contract as a test).
func BenchmarkTrajectoryMixtureSteadyState(b *testing.B) {
	geo := experiment.PaperAddGeometry()
	res := geo.BuildCircuit(3)
	engine := noise.NewEngine(res, noise.PaperModel(0.002, 0.01))
	out := make([]float64, 1<<uint(len(geo.OutReg)))
	rng := sim.NewSampler(21, 42).Rand()
	opts := noise.MixtureOpts{Trajectories: 32, Measure: geo.OutReg}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	engine.Mixture(out, nil, opts, rng) // warm the pools
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.Mixture(out, nil, opts, rng)
	}
}

func BenchmarkTranspileQFM(b *testing.B) {
	c := arith.NewQFM(4, 4, arith.DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		transpile.Transpile(c)
	}
}

func BenchmarkStatePrepare8(b *testing.B) {
	q := qint.NewUniform(8, 7, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qint.Prepare(q)
	}
}

// BenchmarkSampler2048Shots is the production shot-sampling stage as
// runInstance drives it: warm scratch, guide-table resolution, counts
// written in place. The hard acceptance here is 0 B/op and 0 allocs/op
// at steady state (GC off so the pool cannot drain mid-run).
func BenchmarkSampler2048Shots(b *testing.B) {
	probs := make([]float64, 256)
	for i := range probs {
		probs[i] = 1.0 / 256
	}
	s := sim.NewSampler(9, 10)
	sc := sim.GetSampleScratch()
	defer sim.PutSampleScratch(sc)
	out := make([]int, len(probs))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	s.CountsInto(sc, probs, 2048, out) // warm the scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.CountsInto(sc, probs, 2048, out)
	}
}

// BenchmarkSamplerMerge races the bin-resolution strategies on the same
// 256-bin / 2048-shot workload: the per-shot binary search (reference)
// and the guide-table stage the production tail uses. Both produce
// bit-identical histograms; the numbers here justify which one
// runInstance runs.
func BenchmarkSamplerMerge(b *testing.B) {
	probs := make([]float64, 256)
	for i := range probs {
		probs[i] = 1.0 / 256
	}
	const shots = 2048
	b.Run("reference-binsearch", func(b *testing.B) {
		s := sim.NewSampler(9, 10)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Counts(probs, shots)
		}
	})
	b.Run("guide", func(b *testing.B) {
		s := sim.NewSampler(9, 10)
		sc := sim.GetSampleScratch()
		defer sim.PutSampleScratch(sc)
		out := make([]int, len(probs))
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		s.CountsInto(sc, probs, shots, out)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.CountsInto(sc, probs, shots, out)
		}
	})
}

// BenchmarkInstanceTail measures the complete post-backend instance
// tail — reseed, 2048 shots, score, fidelity — through the experiment
// layer's pooled scratch, i.e. exactly what each operand instance pays
// after its trajectory mixture returns. Must be 0 allocs/op warm.
func BenchmarkInstanceTail(b *testing.B) {
	cfg := experiment.PointConfig{
		Geometry: experiment.PaperAddGeometry(),
		OrderX:   1, OrderY: 2,
		Shots:   2048,
		RowSeed: 77, PointSeed: 41,
	}
	dist := make([]float64, 1<<uint(len(cfg.Geometry.OutReg)))
	for i := range dist {
		dist[i] = 1 / float64(len(dist))
	}
	xs, ys := cfg.InstanceOperands(0)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cfg.SampleAndScore(0, xs, ys, dist, dist) // warm the pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.SampleAndScore(0, xs, ys, dist, dist)
	}
}
