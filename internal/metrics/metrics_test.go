package metrics_test

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"qfarith/internal/metrics"
)

func TestScoreSingleCorrectOutput(t *testing.T) {
	counts := make([]int, 16)
	counts[5] = 1800
	counts[3] = 200
	counts[9] = 48
	r := metrics.Score(counts, []int{5})
	if !r.Success || r.Margin != 1600 {
		t.Fatalf("got %+v, want success with margin 1600", r)
	}
}

func TestScoreFailsWhenIncorrectDominates(t *testing.T) {
	counts := make([]int, 16)
	counts[5] = 500
	counts[3] = 900
	r := metrics.Score(counts, []int{5})
	if r.Success || r.Margin != -400 {
		t.Fatalf("got %+v, want failure with margin -400", r)
	}
}

func TestScoreSuperposedOutputs(t *testing.T) {
	// Four correct outputs; failure requires an incorrect output with
	// more counts than ANY single correct output.
	counts := make([]int, 256)
	correct := []int{10, 20, 30, 40}
	counts[10], counts[20], counts[30], counts[40] = 600, 500, 450, 300
	counts[99] = 299
	if r := metrics.Score(counts, correct); !r.Success || r.Margin != 1 {
		t.Fatalf("got %+v, want success margin 1", r)
	}
	counts[99] = 301 // now out-counts the weakest correct output
	if r := metrics.Score(counts, correct); r.Success || r.Margin != -1 {
		t.Fatalf("got %+v, want failure margin -1", r)
	}
}

func TestScoreTieIsSuccess(t *testing.T) {
	// Paper: unsuccessful iff an incorrect output has MORE counts; an
	// exact tie therefore still succeeds (margin 0).
	counts := make([]int, 8)
	counts[1] = 400
	counts[2] = 400
	r := metrics.Score(counts, []int{1})
	if !r.Success || r.Margin != 0 {
		t.Fatalf("got %+v, want tie-success with margin 0", r)
	}
}

func TestScoreZeroCorrectCounts(t *testing.T) {
	// The correct output never appeared: worst case failure.
	counts := make([]int, 8)
	counts[0] = 2048
	r := metrics.Score(counts, []int{5})
	if r.Success || r.Margin != -2048 {
		t.Fatalf("got %+v", r)
	}
}

func TestAggregateBasics(t *testing.T) {
	results := []metrics.InstanceResult{
		{Success: true, Margin: 100},
		{Success: true, Margin: 100},
		{Success: true, Margin: 100},
		{Success: false, Margin: -100},
	}
	st := metrics.Aggregate(results)
	if st.Instances != 4 || st.Successes != 3 {
		t.Fatalf("instances/successes = %d/%d", st.Instances, st.Successes)
	}
	if math.Abs(st.SuccessRate-75) > 1e-12 {
		t.Errorf("success rate = %g, want 75", st.SuccessRate)
	}
	if math.Abs(st.MarginMean-50) > 1e-12 {
		t.Errorf("margin mean = %g, want 50", st.MarginMean)
	}
	// sigma = sqrt(E[m^2]-E[m]^2) = sqrt(10000-2500) ≈ 86.6; no
	// successful margin (100) is within sigma... 100 > 86.6 so lower bar
	// counts 0; the failed margin -100 >= -86.6 is false so upper 0.
	if st.LowerBar != 0 || st.UpperBar != 0 {
		t.Errorf("bars = %g/%g, want 0/0", st.LowerBar, st.UpperBar)
	}
}

func TestAggregateErrorBars(t *testing.T) {
	results := []metrics.InstanceResult{
		{Success: true, Margin: 5},     // fragile success
		{Success: true, Margin: 500},   // solid success
		{Success: false, Margin: -5},   // near-miss failure
		{Success: false, Margin: -500}, // hard failure
	}
	st := metrics.Aggregate(results)
	// sigma ≈ 353.6; margins 5 and -5 both fall inside one sigma.
	if st.LowerBar != 25 {
		t.Errorf("lower bar = %g%%, want 25%%", st.LowerBar)
	}
	if st.UpperBar != 25 {
		t.Errorf("upper bar = %g%%, want 25%%", st.UpperBar)
	}
}

func TestAggregateEmpty(t *testing.T) {
	st := metrics.Aggregate(nil)
	if st.Instances != 0 || st.SuccessRate != 0 {
		t.Errorf("empty aggregate = %+v", st)
	}
}

func TestAggregateAllIdenticalMargins(t *testing.T) {
	// Zero variance: sigma 0; every success has margin <= 0+... margin
	// m <= sigma=0 only when m <= 0. Solid successes stay out of the bar.
	results := make([]metrics.InstanceResult, 10)
	for i := range results {
		results[i] = metrics.InstanceResult{Success: true, Margin: 42}
	}
	st := metrics.Aggregate(results)
	if st.MarginSigma != 0 || st.LowerBar != 0 || st.SuccessRate != 100 {
		t.Errorf("got %+v", st)
	}
}

func TestCorrectSumsDedup(t *testing.T) {
	// (1+3) and (2+2) collide at 4: the set has 3 elements, not 4.
	s := metrics.CorrectSums([]int{1, 2}, []int{3, 2}, 4)
	if len(s) != 3 || !s[4] || !s[3] || !s[5] {
		t.Errorf("sums = %v", s)
	}
}

func TestCorrectSumsModular(t *testing.T) {
	s := metrics.CorrectSums([]int{200}, []int{100}, 8)
	if !s[(200+100)&255] || len(s) != 1 {
		t.Errorf("modular sum set = %v", s)
	}
}

func TestCorrectProducts(t *testing.T) {
	s := metrics.CorrectProducts([]int{3, 5}, []int{7}, 8)
	if len(s) != 2 || !s[21] || !s[35] {
		t.Errorf("products = %v", s)
	}
	// Zero operand collapses the set.
	s = metrics.CorrectProducts([]int{3, 5}, []int{0}, 8)
	if len(s) != 1 || !s[0] {
		t.Errorf("products with zero = %v", s)
	}
}

func TestTopOutcomes(t *testing.T) {
	counts := []int{5, 100, 100, 7, 0, 3}
	top := metrics.TopOutcomes(counts, 3)
	if len(top) != 3 || top[0] != 1 || top[1] != 2 || top[2] != 3 {
		t.Errorf("top = %v", top)
	}
	if got := metrics.TopOutcomes(counts, 100); len(got) != len(counts) {
		t.Errorf("k clamp failed: %v", got)
	}
}

func TestScorePropertySuccessIffMarginNonNegative(t *testing.T) {
	prop := func(c0, c1, c2, c3 uint16) bool {
		counts := []int{int(c0), int(c1), int(c2), int(c3)}
		r := metrics.Score(counts, []int{0, 2})
		return r.Success == (r.Margin >= 0)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// scoreMap is the paper's metric over the correct set as a map, the
// independent oracle Score's sorted-slice walk is checked against.
func scoreMap(counts []int, correct map[int]bool) metrics.InstanceResult {
	minCorrect := math.MaxInt
	maxIncorrect := 0
	for v, c := range counts {
		if correct[v] {
			minCorrect = min(minCorrect, c)
		} else {
			maxIncorrect = max(maxIncorrect, c)
		}
	}
	if minCorrect == math.MaxInt {
		minCorrect = 0 // no correct output within the histogram range
	}
	margin := minCorrect - maxIncorrect
	return metrics.InstanceResult{Success: margin >= 0, Margin: margin}
}

// TestScoreMatchesMapOracle is the equivalence property the pooled
// instance tail relies on: over random histograms and random correct
// sets, Score on the sorted-slice form must reproduce the map-form
// oracle exactly.
func TestScoreMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(51, 53))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.IntN(300)
		counts := make([]int, n)
		for i := range counts {
			if rng.IntN(3) == 0 {
				counts[i] = rng.IntN(100)
			}
		}
		k := 1 + rng.IntN(5)
		if k > n {
			k = n
		}
		correctMap := make(map[int]bool, k)
		var sorted []int
		for len(correctMap) < k {
			v := rng.IntN(n)
			if !correctMap[v] {
				correctMap[v] = true
				sorted = append(sorted, v)
			}
		}
		slices.Sort(sorted)
		want := scoreMap(counts, correctMap)
		got := metrics.Score(counts, sorted)
		if got != want {
			t.Fatalf("trial %d: Score = %+v, oracle = %+v (counts=%v correct=%v)",
				trial, got, want, counts, sorted)
		}
	}
}

func TestScoreEdgeCases(t *testing.T) {
	// All bins correct: maxIncorrect stays 0.
	all := metrics.Score([]int{5, 7, 3}, []int{0, 1, 2})
	if !all.Success || all.Margin != 3 {
		t.Errorf("all-correct: %+v, want success margin 3", all)
	}
	// Correct values beyond the histogram range are ignored, like map
	// entries no outcome reaches.
	out := metrics.Score([]int{5, 7}, []int{1, 99})
	want := scoreMap([]int{5, 7}, map[int]bool{1: true, 99: true})
	if out != want {
		t.Errorf("out-of-range correct: Score %+v, oracle %+v", out, want)
	}
	// Duplicate entries collapse like map keys.
	dup := metrics.Score([]int{5, 7, 2}, []int{1, 1, 2})
	wantDup := scoreMap([]int{5, 7, 2}, map[int]bool{1: true, 2: true})
	if dup != wantDup {
		t.Errorf("duplicate correct: Score %+v, oracle %+v", dup, wantDup)
	}
	defer func() {
		if recover() == nil {
			t.Error("empty correct set must panic")
		}
	}()
	metrics.Score([]int{1}, nil)
}

// TestCorrectIntoMatchesMapForms pins the pooled correct-set builders
// against the map-returning originals.
func TestCorrectIntoMatchesMapForms(t *testing.T) {
	rng := rand.New(rand.NewPCG(61, 63))
	buf := make([]int, 0, 1)
	for trial := 0; trial < 200; trial++ {
		w := 3 + rng.IntN(8)
		xs := []int{rng.IntN(1 << w)}
		ys := []int{rng.IntN(1 << w)}
		if rng.IntN(2) == 0 {
			xs = append(xs, rng.IntN(1<<w))
		}
		if rng.IntN(2) == 0 {
			ys = append(ys, rng.IntN(1<<w))
		}
		check := func(name string, got []int, want map[int]bool) {
			if len(got) != len(want) {
				t.Fatalf("trial %d %s: %v vs map %v", trial, name, got, want)
			}
			for i, v := range got {
				if !want[v] {
					t.Fatalf("trial %d %s: value %d not in map %v", trial, name, v, want)
				}
				if i > 0 && got[i-1] >= v {
					t.Fatalf("trial %d %s: not sorted/deduped: %v", trial, name, got)
				}
			}
		}
		buf = metrics.CorrectSumsInto(buf, xs, ys, w)
		check("sums", buf, metrics.CorrectSums(xs, ys, w))
		buf = metrics.CorrectProductsInto(buf, xs, ys, w)
		check("products", buf, metrics.CorrectProducts(xs, ys, w))
	}
}
