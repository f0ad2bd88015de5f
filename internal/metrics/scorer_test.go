package metrics_test

import (
	"math"
	"math/rand/v2"
	"testing"

	"qfarith/internal/metrics"
)

// randomInput builds a randomized per-instance evidence bundle: a shot
// histogram with its implied size, a noisy and an ideal distribution,
// and a sorted correct set drawn from the histogram's range.
func randomInput(rng *rand.Rand) metrics.ScoreInput {
	n := 2 + rng.IntN(128)
	counts := make([]int, n)
	shots := 0
	for i := range counts {
		if rng.IntN(3) == 0 {
			counts[i] = rng.IntN(200)
			shots += counts[i]
		}
	}
	if shots == 0 {
		counts[0] = 7
		shots = 7
	}
	dist := make([]float64, n)
	ideal := make([]float64, n)
	var sd, si float64
	for i := range dist {
		dist[i] = rng.Float64()
		ideal[i] = rng.Float64() * rng.Float64()
		sd += dist[i]
		si += ideal[i]
	}
	for i := range dist {
		dist[i] /= sd
		ideal[i] /= si
	}
	k := 1 + rng.IntN(4)
	if k > n {
		k = n
	}
	correct := make([]int, 0, k)
	for len(correct) < k {
		v := rng.IntN(n)
		pos, dup := 0, false
		for pos < len(correct) && correct[pos] < v {
			pos++
		}
		if pos < len(correct) && correct[pos] == v {
			dup = true
		}
		if !dup {
			correct = append(correct, 0)
			copy(correct[pos+1:], correct[pos:])
			correct[pos] = v
		}
	}
	return metrics.ScoreInput{Counts: counts, Dist: dist, Ideal: ideal, Correct: correct, Shots: shots}
}

// TestMarginScorerMatchesFrozenPath is the refactor's pin: the
// registered "margin" scorer must reproduce the experiment layer's
// historical Score + ClassicalFidelity + Aggregate path
// bit-identically, per instance and per aggregated column, over
// randomized evidence.
func TestMarginScorerMatchesFrozenPath(t *testing.T) {
	s, ok := metrics.LookupScorer("margin")
	if !ok {
		t.Fatal("margin scorer not registered")
	}
	if s.NumValues() != 2 || len(s.Columns()) != 6 {
		t.Fatalf("margin shape: %d values, %d columns", s.NumValues(), len(s.Columns()))
	}
	rng := rand.New(rand.NewPCG(97, 101))
	for trial := 0; trial < 200; trial++ {
		instances := 1 + rng.IntN(12)
		vals := make([]float64, 2*instances)
		results := make([]metrics.InstanceResult, instances)
		for i := 0; i < instances; i++ {
			in := randomInput(rng)
			var dst [2]float64
			s.ScoreInstance(dst[:], in)
			ir := metrics.Score(in.Counts, in.Correct)
			ir.Fidelity = metrics.ClassicalFidelity(in.Ideal, in.Dist)
			if dst[0] != float64(ir.Margin) || dst[1] != ir.Fidelity {
				t.Fatalf("trial %d inst %d: scorer (%v, %v) vs frozen (%d, %v)",
					trial, i, dst[0], dst[1], ir.Margin, ir.Fidelity)
			}
			vals[0*instances+i] = dst[0]
			vals[1*instances+i] = dst[1]
			results[i] = ir
		}
		var agg [6]float64
		s.Aggregate(agg[:], vals, instances)
		want := metrics.Aggregate(results)
		got := [6]float64{agg[0], agg[1], agg[2], agg[3], agg[4], agg[5]}
		ref := [6]float64{want.SuccessRate, want.LowerBar, want.UpperBar,
			want.MarginMean, want.MarginSigma, want.MeanFidelity}
		if got != ref {
			t.Fatalf("trial %d: aggregate %v vs frozen %v", trial, got, ref)
		}
	}
}

// TestScorerZeroAlloc is the warm-path gate every registered scorer
// must pass: once dst is sized, ScoreInstance may not allocate — the
// instance tail stays allocation-free with any -scorers combination.
func TestScorerZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 11))
	in := randomInput(rng)
	for _, name := range metrics.ScorerNames() {
		s, _ := metrics.LookupScorer(name)
		dst := make([]float64, s.NumValues())
		s.ScoreInstance(dst, in) // warm
		allocs := testing.AllocsPerRun(100, func() {
			s.ScoreInstance(dst, in)
		})
		if allocs != 0 {
			t.Errorf("scorer %q: %.1f allocs per ScoreInstance, want 0", name, allocs)
		}
	}
}

func TestLinearXEB(t *testing.T) {
	// Sampling a delta ideal perfectly: XEB = 1.
	ideal := []float64{1, 0, 0, 0}
	if got := metrics.LinearXEB(ideal, []int{100, 0, 0, 0}, 100); math.Abs(got-1) > 1e-12 {
		t.Errorf("perfect sampling: %v, want 1", got)
	}
	// Fully depolarized (uniform) counts: XEB = 0.
	if got := metrics.LinearXEB(ideal, []int{25, 25, 25, 25}, 100); math.Abs(got) > 1e-12 {
		t.Errorf("uniform counts: %v, want 0", got)
	}
	// Uniform ideal has a vanishing denominator: defined as 0.
	u := []float64{0.25, 0.25, 0.25, 0.25}
	if got := metrics.LinearXEB(u, []int{100, 0, 0, 0}, 100); got != 0 {
		t.Errorf("degenerate ideal: %v, want 0", got)
	}
	// Empty histogram and zero shots: 0, not NaN or panic.
	if got := metrics.LinearXEB(ideal, nil, 100); got != 0 {
		t.Errorf("empty counts: %v, want 0", got)
	}
	if got := metrics.LinearXEB(ideal, []int{1, 0, 0, 0}, 0); got != 0 {
		t.Errorf("zero shots: %v, want 0", got)
	}
	// A histogram wider than the ideal treats missing ideal entries as
	// probability 0.
	short := []float64{1}
	got := metrics.LinearXEB(short, []int{50, 50}, 100)
	// u = 1/2; p = (1/2, -1/2); q-u = (0, 0) → num 0, den 1/2 → 0.
	if math.Abs(got) > 1e-12 {
		t.Errorf("short ideal: %v, want 0", got)
	}
}

func TestCorrectMass(t *testing.T) {
	counts := []int{10, 0, 30, 60}
	if got := metrics.CorrectMass(counts, []int{2, 3}, 100); got != 0.9 {
		t.Errorf("mass = %v, want 0.9", got)
	}
	// Out-of-range correct entries are ignored.
	if got := metrics.CorrectMass(counts, []int{0, 99}, 100); got != 0.1 {
		t.Errorf("out-of-range mass = %v, want 0.1", got)
	}
	if got := metrics.CorrectMass(counts, []int{0}, 0); got != 0 {
		t.Errorf("zero shots mass = %v, want 0", got)
	}
}

func TestScorerRegistry(t *testing.T) {
	names := metrics.ScorerNames()
	for _, want := range []string{"margin", "roundtrip", "xeb"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("scorer %q not registered (have %v)", want, names)
		}
	}
	if _, ok := metrics.LookupScorer("nope"); ok {
		t.Error("LookupScorer(nope) = ok")
	}
	if _, err := metrics.ResolveScorers([]string{"xeb", "nope"}); err == nil {
		t.Error("ResolveScorers with unknown name: no error")
	}
	ss, err := metrics.ResolveScorers([]string{"roundtrip", "xeb"})
	if err != nil || len(ss) != 2 || ss[0].Name() != "roundtrip" || ss[1].Name() != "xeb" {
		t.Errorf("ResolveScorers order: %v, %v", ss, err)
	}
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration must panic")
		}
	}()
	metrics.RegisterScorer(dupScorer{})
}

// dupScorer collides with the built-in "margin" registration.
type dupScorer struct{}

func (dupScorer) Name() string                                { return "margin" }
func (dupScorer) Columns() []string                           { return nil }
func (dupScorer) NumValues() int                              { return 0 }
func (dupScorer) ScoreInstance([]float64, metrics.ScoreInput) {}
func (dupScorer) Aggregate([]float64, []float64, int)         {}
