// The pluggable success-metric seam: a Scorer turns one operand
// instance's measurement data into per-instance values and aggregates
// them into per-point CSV columns. The paper's margin statistic is the
// frozen default (the experiment layer keeps its historical fast path,
// pinned bit-identical to the registered scorer by tests); additional
// scorers ride beside it, each making one pass over the same shot
// histogram, so a single sweep can emit every metric without
// re-sampling or re-simulating anything.
package metrics

import (
	"fmt"
	"sort"
	"sync"
)

// ScoreInput is the complete per-instance evidence a Scorer may read:
// the sampled shot histogram, the simulated noisy distribution, the
// error-free reference distribution, and the sorted deduplicated
// correct-output set. All slices are borrowed — a Scorer must not
// retain or mutate them.
type ScoreInput struct {
	// Counts is the shot histogram over output values (len 2^outBits).
	Counts []int
	// Dist is the simulated noisy output distribution (same indexing).
	Dist []float64
	// Ideal is the error-free output distribution (same indexing).
	Ideal []float64
	// Correct is the expected-output set, ascending and deduplicated.
	Correct []int
	// Shots is the number of shots in Counts.
	Shots int
}

// Scorer is a pluggable per-point success metric. Implementations must
// be stateless (one instance serves concurrent sweeps), must not
// allocate in ScoreInstance (the instance tail is zero-alloc warm), and
// should read Counts in a single pass.
type Scorer interface {
	// Name is the registry key ("margin", "xeb", "roundtrip", ...).
	Name() string
	// Columns names the per-point CSV columns this scorer contributes,
	// in emission order.
	Columns() []string
	// NumValues is the number of per-instance values ScoreInstance
	// produces. It may differ from len(Columns()): aggregation can
	// derive several columns from one value stream (the margin scorer
	// derives six columns from two values).
	NumValues() int
	// ScoreInstance writes the instance's values into dst, which holds
	// exactly NumValues() slots. It must not allocate or retain in.
	ScoreInstance(dst []float64, in ScoreInput)
	// Aggregate reduces the point's value matrix into one number per
	// column: vals is column-major — vals[j*instances+i] is value j of
	// instance i — and dst holds len(Columns()) slots.
	Aggregate(dst []float64, vals []float64, instances int)
}

// MetricValue is one aggregated scorer column of a point, as recorded
// in checkpoints and emitted into CSVs.
type MetricValue struct {
	Name  string
	Value float64
}

var (
	scorerMu  sync.RWMutex
	scorerReg = map[string]Scorer{}
)

// RegisterScorer adds a scorer to the registry. Panics on a duplicate
// or empty name — registration is an init-time act and a collision is a
// programming error.
func RegisterScorer(s Scorer) {
	name := s.Name()
	if name == "" {
		panic("metrics: scorer with empty name")
	}
	scorerMu.Lock()
	defer scorerMu.Unlock()
	if _, dup := scorerReg[name]; dup {
		panic("metrics: duplicate scorer " + name)
	}
	scorerReg[name] = s
}

// LookupScorer returns the registered scorer with the given name.
func LookupScorer(name string) (Scorer, bool) {
	scorerMu.RLock()
	defer scorerMu.RUnlock()
	s, ok := scorerReg[name]
	return s, ok
}

// ScorerNames lists the registered scorers, sorted.
func ScorerNames() []string {
	scorerMu.RLock()
	defer scorerMu.RUnlock()
	names := make([]string, 0, len(scorerReg))
	for n := range scorerReg {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ResolveScorers maps names to registered scorers, preserving order,
// with a single error naming the first unknown scorer.
func ResolveScorers(names []string) ([]Scorer, error) {
	out := make([]Scorer, 0, len(names))
	for _, n := range names {
		s, ok := LookupScorer(n)
		if !ok {
			return nil, fmt.Errorf("metrics: unknown scorer %q (registered: %v)", n, ScorerNames())
		}
		out = append(out, s)
	}
	return out, nil
}

func init() {
	RegisterScorer(marginScorer{})
	RegisterScorer(xebScorer{})
	RegisterScorer(roundtripScorer{})
}

// ---------------------------------------------------------------- margin

// marginScorer is the paper's metric as a Scorer: per instance it
// records the margin (min correct − max incorrect counts) and the
// classical ideal-vs-noisy fidelity; aggregation reproduces
// Aggregate's six statistics column for column. The experiment layer's
// frozen fast path (Score + ClassicalFidelity + Aggregate) is the
// reference implementation; TestMarginScorerMatchesFrozenPath pins this
// scorer bit-identical to it.
type marginScorer struct{}

func (marginScorer) Name() string { return "margin" }

func (marginScorer) Columns() []string {
	return []string{"success_pct", "lower_bar_pct", "upper_bar_pct", "margin_mean", "margin_sigma", "mean_fidelity"}
}

func (marginScorer) NumValues() int { return 2 }

func (marginScorer) ScoreInstance(dst []float64, in ScoreInput) {
	ir := Score(in.Counts, in.Correct)
	dst[0] = float64(ir.Margin)
	dst[1] = ClassicalFidelity(in.Ideal, in.Dist)
}

func (marginScorer) Aggregate(dst []float64, vals []float64, instances int) {
	margins := vals[:instances]
	fids := vals[instances : 2*instances]
	results := make([]InstanceResult, instances)
	for i := range results {
		m := int(margins[i])
		results[i] = InstanceResult{Success: m >= 0, Margin: m, Fidelity: fids[i]}
	}
	st := Aggregate(results)
	dst[0], dst[1], dst[2] = st.SuccessRate, st.LowerBar, st.UpperBar
	dst[3], dst[4], dst[5] = st.MarginMean, st.MarginSigma, st.MeanFidelity
}

// ---------------------------------------------------------------- xeb

// xebScorer is the linear cross-entropy benchmarking fidelity of the
// pyqrack QFT noise benchmark: the least-squares slope of the observed
// distribution against the ideal one around the uniform baseline,
// Σ(p−u)(q−u) / Σ(p−u)², with p the ideal probabilities, q the
// observed shot frequencies and u = 1/M. 1 for noiseless sampling of
// the ideal distribution, 0 for a fully depolarized (uniform) output.
// Unlike the margin metric it degrades smoothly at high error rates,
// and unlike fidelity it is linear in the noisy distribution, so
// finite-shot sampling noise averages out across instances.
type xebScorer struct{}

func (xebScorer) Name() string      { return "xeb" }
func (xebScorer) Columns() []string { return []string{"xeb"} }
func (xebScorer) NumValues() int    { return 1 }

func (xebScorer) ScoreInstance(dst []float64, in ScoreInput) {
	dst[0] = LinearXEB(in.Ideal, in.Counts, in.Shots)
}

func (xebScorer) Aggregate(dst []float64, vals []float64, instances int) {
	dst[0] = mean(vals[:instances])
}

// LinearXEB returns the linear cross-entropy fidelity between the ideal
// distribution and a shot histogram: Σ(p_i−u)(q_i−u) / Σ(p_i−u)² with
// u = 1/M the uniform probability, q_i = counts_i/shots. One pass over
// counts, no allocation. A degenerate ideal (uniform, so the
// denominator vanishes) or an empty histogram returns 0 by definition.
func LinearXEB(ideal []float64, counts []int, shots int) float64 {
	m := len(counts)
	if m == 0 || shots <= 0 {
		return 0
	}
	u := 1 / float64(m)
	inv := 1 / float64(shots)
	var num, den float64
	for v, c := range counts {
		p := -u
		if v < len(ideal) {
			p = ideal[v] - u
		}
		num += p * (float64(c)*inv - u)
		den += p * p
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// ------------------------------------------------------------ roundtrip

// roundtripScorer is the QFT·QFT⁻¹ round-trip health check generalized
// to any workload: the fraction of shots landing in the expected-output
// set. For a transform-and-invert circuit the expected set is the input
// state itself, making this exactly the identity-success probability of
// the snippet-3 health check; for QFA/QFS/QFM it is the probability
// mass on the correct arithmetic results — a smoother companion to the
// all-or-nothing margin success. Reported in percent.
type roundtripScorer struct{}

func (roundtripScorer) Name() string      { return "roundtrip" }
func (roundtripScorer) Columns() []string { return []string{"roundtrip_pct"} }
func (roundtripScorer) NumValues() int    { return 1 }

func (roundtripScorer) ScoreInstance(dst []float64, in ScoreInput) {
	dst[0] = 100 * CorrectMass(in.Counts, in.Correct, in.Shots)
}

func (roundtripScorer) Aggregate(dst []float64, vals []float64, instances int) {
	dst[0] = mean(vals[:instances])
}

// CorrectMass returns the fraction of shots whose outcome lies in the
// sorted deduplicated correct set. One pass over the correct set, no
// allocation; entries beyond the histogram range are ignored.
func CorrectMass(counts []int, correct []int, shots int) float64 {
	if shots <= 0 {
		return 0
	}
	hit := 0
	for _, v := range correct {
		if v >= 0 && v < len(counts) {
			hit += counts[v]
		}
	}
	return float64(hit) / float64(shots)
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}
