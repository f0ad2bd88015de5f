// The shot-sampling/scoring tail of an operand instance: everything
// between the backend returning a measurement distribution and the
// instance's InstanceResult. The tail is allocation-free at steady
// state — sampler, sampling scratch, histogram, correct-set, and
// input-term buffers are all pooled per instance — and is
// instrumented end to end (qfarith_sample_seconds).
package experiment

import (
	"sync"

	"qfarith/internal/backend"
	"qfarith/internal/metrics"
	"qfarith/internal/sim"
	"qfarith/internal/telemetry"
)

// instanceScratch pools every per-instance buffer of the run/sample/
// score tail: the sparse input terms, the shot histogram, the sorted
// correct-set, a reseedable sampler, and the sampling scratch.
type instanceScratch struct {
	terms   []backend.Amp
	counts  []int
	correct []int
	sampler *sim.Sampler
	sample  *sim.SampleScratch
}

var instancePool = sync.Pool{New: func() any {
	return &instanceScratch{
		sampler: sim.NewSampler(0, 0),
		sample:  sim.GetSampleScratch(),
	}
}}

func getInstanceScratch() *instanceScratch   { return instancePool.Get().(*instanceScratch) }
func putInstanceScratch(sc *instanceScratch) { instancePool.Put(sc) }

// countsBuf returns the scratch's histogram buffer resized to n.
func (sc *instanceScratch) countsBuf(n int) []int {
	if cap(sc.counts) < n {
		sc.counts = make([]int, n)
	}
	return sc.counts[:n]
}

// scorerRun carries one point's additional-scorer state: the resolved
// scorers and a per-scorer value matrix sized for the point's instance
// count. Values are stored row-major — instance idx's values for scorer
// i occupy vals[i][idx*nv : (idx+1)*nv] — so each instance goroutine
// writes a disjoint contiguous range without synchronization, and
// ScoreInstance fills its slot directly with no per-instance
// allocation. A nil *scorerRun (the default, Scorers empty) keeps the
// tail on the historical margin-only path untouched.
type scorerRun struct {
	scorers   []metrics.Scorer
	vals      [][]float64
	instances int
}

// newScorerRun resolves cfg.Scorers and sizes the value matrix, or
// returns nil when no additional scorers are requested.
func (cfg PointConfig) newScorerRun() (*scorerRun, error) {
	if len(cfg.Scorers) == 0 {
		return nil, nil
	}
	ss, err := metrics.ResolveScorers(cfg.Scorers)
	if err != nil {
		return nil, err
	}
	sr := &scorerRun{scorers: ss, vals: make([][]float64, len(ss)), instances: cfg.Instances}
	for i, s := range ss {
		sr.vals[i] = make([]float64, s.NumValues()*cfg.Instances)
	}
	return sr, nil
}

// scoreInstance evaluates every scorer on one instance's evidence, each
// in a single pass over the shared histogram, timed under
// qfarith_score_seconds.
func (sr *scorerRun) scoreInstance(idx int, in metrics.ScoreInput) {
	sp := telemetry.StartSpan(scoreSec)
	for i, s := range sr.scorers {
		nv := s.NumValues()
		s.ScoreInstance(sr.vals[i][idx*nv:(idx+1)*nv], in)
	}
	sp.End()
}

// aggregate reduces the value matrix into named columns, transposing
// each scorer's rows into the column-major layout Aggregate specifies.
// Runs once per point; the transient buffers are negligible beside the
// point's own result slice.
func (sr *scorerRun) aggregate() []metrics.MetricValue {
	var out []metrics.MetricValue
	for i, s := range sr.scorers {
		nv := s.NumValues()
		cm := make([]float64, nv*sr.instances)
		for inst := 0; inst < sr.instances; inst++ {
			for j := 0; j < nv; j++ {
				cm[j*sr.instances+inst] = sr.vals[i][inst*nv+j]
			}
		}
		cols := s.Columns()
		dst := make([]float64, len(cols))
		s.Aggregate(dst, cm, sr.instances)
		for k, c := range cols {
			out = append(out, metrics.MetricValue{Name: c, Value: dst[k]})
		}
	}
	return out
}

// sampleAndScore runs the shot-sampling and scoring tail of one operand
// instance against its measurement distribution: reseed the pooled
// sampler with the instance's historical seed derivation, draw
// cfg.Shots shots through the guide table, and score the histogram with
// the paper's metric plus the classical ideal-vs-noisy fidelity.
// Additional scorers (srun non-nil) then read the same histogram once
// each. dist and ideal are only read.
func (cfg PointConfig) sampleAndScore(sc *instanceScratch, idx int, xs, ys []int, dist, ideal []float64, srun *scorerRun) metrics.InstanceResult {
	sp := telemetry.StartSpan(sampleSec)
	sc.sampler.Reseed(cfg.sampleSeeds(idx))
	counts := sc.countsBuf(len(dist))
	sc.sampler.CountsInto(sc.sample, dist, cfg.Shots, counts)
	correct := cfg.correctSorted(sc, xs, ys)
	ir := metrics.Score(counts, correct)
	shotsTotal.Add(uint64(cfg.Shots))
	ir.Fidelity = metrics.ClassicalFidelity(ideal, dist)
	sp.End()
	if srun != nil {
		srun.scoreInstance(idx, metrics.ScoreInput{
			Counts: counts, Dist: dist, Ideal: ideal,
			Correct: correct, Shots: cfg.Shots,
		})
	}
	return ir
}

// sampleSeeds derives instance idx's shot-sampler seeds.
func (cfg PointConfig) sampleSeeds(idx int) (uint64, uint64) {
	return SplitSeed(cfg.PointSeed, uint64(idx)^0xabcdef), uint64(idx)
}

// SampleAndScore is the exported form of the instance tail for
// benchmarks and custom backends: identical semantics, pooled buffers
// drawn from (and returned to) the package pool around the call.
// Margin-only — additional scorers aggregate per point and have no
// single-instance form here.
func (cfg PointConfig) SampleAndScore(idx int, xs, ys []int, dist, ideal []float64) metrics.InstanceResult {
	sc := getInstanceScratch()
	defer putInstanceScratch(sc)
	return cfg.sampleAndScore(sc, idx, xs, ys, dist, ideal, nil)
}

// InstanceOperands exposes the deterministic per-instance operand draw
// so external benchmarks can reconstruct the exact tail workload an
// instance index produces.
func (cfg PointConfig) InstanceOperands(idx int) (xs, ys []int) {
	return cfg.instanceOperands(idx)
}

// correctSorted writes the instance's expected-output set into the
// scratch's correct buffer, sorted and deduplicated for Score.
func (cfg PointConfig) correctSorted(sc *instanceScratch, xs, ys []int) []int {
	if cap(sc.correct) == 0 {
		sc.correct = make([]int, 0, 8)
	}
	g := cfg.Geometry
	switch g.Op {
	case OpAdd:
		sc.correct = metrics.CorrectSumsInto(sc.correct, xs, ys, g.OutBits)
	case OpSub:
		sc.correct = metrics.CorrectDiffsInto(sc.correct, xs, ys, g.OutBits)
	case OpMulSigned:
		sc.correct = metrics.CorrectSignedProductsInto(sc.correct, xs, ys, g.XBits, g.YBits)
	default:
		sc.correct = metrics.CorrectProductsInto(sc.correct, xs, ys, g.OutBits)
	}
	return sc.correct
}
