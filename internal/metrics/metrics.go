// Package metrics implements the paper's tomography-flavoured success
// metric and its error-bar statistics (Sec. 4):
//
//   - An arithmetic *instance* (one random choice of operands, simulated
//     for a fixed number of shots) is *successful* when the binary
//     outputs with the highest frequencies match those anticipated from
//     the inputs — concretely, when no incorrect output possesses more
//     counts than any one of the correct outputs.
//   - Each instance records the margin: min(correct counts) −
//     max(incorrect counts). The standard deviation σ of margins across
//     instances yields the plot's asymmetric error bars: the lower bar
//     counts successful instances within one σ of failing, the upper bar
//     counts failed instances within one σ of succeeding.
package metrics

import (
	"math"
	"sort"
)

// InstanceResult scores a single instance's measurement histogram.
type InstanceResult struct {
	Success bool
	// Margin is min(correct) - max(incorrect) in counts. Positive iff
	// the instance succeeds (ties count as failures-by-margin zero...
	// see Score for the exact tie rule).
	Margin int
	// Fidelity optionally records the classical fidelity between the
	// instance's ideal and noisy output distributions (0 when unset) —
	// the smoother metric the paper's conclusions point to.
	Fidelity float64
}

// Score evaluates one instance: counts is the output histogram and
// correct the expected-correct output values, sorted ascending (the
// Correct*Into builders' form; duplicates a caller failed to collapse
// count once, and values beyond the histogram range are ignored).
// Following the paper, an instance is unsuccessful iff any incorrect
// output possesses MORE counts than any one of the correct outputs; an
// exact tie therefore still counts as success, with margin zero.
//
// Score only reads its arguments and retains neither, so both may be
// pooled buffers the caller recycles immediately after the call.
func Score(counts []int, correct []int) InstanceResult {
	if len(correct) == 0 {
		panic("metrics: no correct outputs specified")
	}
	minCorrect := math.MaxInt
	maxIncorrect := 0
	ci := 0
	for v, c := range counts {
		if ci < len(correct) && correct[ci] == v {
			for ci < len(correct) && correct[ci] == v {
				ci++ // tolerate duplicates a caller failed to collapse
			}
			if c < minCorrect {
				minCorrect = c
			}
		} else if c > maxIncorrect {
			maxIncorrect = c
		}
	}
	if minCorrect == math.MaxInt {
		minCorrect = 0 // no correct output within the histogram range
	}
	margin := minCorrect - maxIncorrect
	return InstanceResult{Success: margin >= 0, Margin: margin}
}

// PointStats aggregates the instances of one plotted point.
type PointStats struct {
	Instances int
	Successes int
	// SuccessRate in percent, the figures' vertical axis.
	SuccessRate float64
	// MarginMean and MarginSigma summarize the margin distribution.
	MarginMean  float64
	MarginSigma float64
	// LowerBar counts successful instances whose margin is within one
	// sigma of failure (margin <= sigma); UpperBar counts failed
	// instances within one sigma of success (margin >= -sigma). Both are
	// expressed in percent of instances, matching the paper's bars.
	LowerBar float64
	UpperBar float64
	// MeanFidelity averages the instances' ideal-vs-noisy distribution
	// fidelity, when recorded.
	MeanFidelity float64
	// Extra holds aggregated columns from additional scorers, in the
	// order the sweep requested them. Empty (and absent from JSON
	// checkpoints) when only the default margin scoring ran, so
	// margin-only payloads stay byte-identical to historical ones.
	Extra []MetricValue `json:",omitempty"`
}

// Aggregate computes the paper's per-point statistics from instance
// results.
func Aggregate(results []InstanceResult) PointStats {
	var st PointStats
	st.Instances = len(results)
	if st.Instances == 0 {
		return st
	}
	var sum, sumSq, fid float64
	for _, r := range results {
		if r.Success {
			st.Successes++
		}
		m := float64(r.Margin)
		sum += m
		sumSq += m * m
		fid += r.Fidelity
	}
	n := float64(st.Instances)
	st.SuccessRate = 100 * float64(st.Successes) / n
	st.MarginMean = sum / n
	st.MeanFidelity = fid / n
	variance := sumSq/n - st.MarginMean*st.MarginMean
	if variance < 0 {
		variance = 0
	}
	st.MarginSigma = math.Sqrt(variance)
	var lower, upper int
	for _, r := range results {
		m := float64(r.Margin)
		if r.Success && m <= st.MarginSigma {
			lower++
		}
		if !r.Success && m >= -st.MarginSigma {
			upper++
		}
	}
	st.LowerBar = 100 * float64(lower) / n
	st.UpperBar = 100 * float64(upper) / n
	return st
}

// CorrectSums returns the deduplicated set of expected outputs for an
// addition instance: (x_a + y_b) mod 2^w over all superposed operand
// pairs.
func CorrectSums(xs, ys []int, w int) map[int]bool {
	mask := 1<<uint(w) - 1
	out := make(map[int]bool, len(xs)*len(ys))
	for _, x := range xs {
		for _, y := range ys {
			out[(x+y)&mask] = true
		}
	}
	return out
}

// CorrectProducts returns the deduplicated set of expected outputs for a
// multiplication instance: (x_a · y_b) mod 2^w.
func CorrectProducts(xs, ys []int, w int) map[int]bool {
	mask := 1<<uint(w) - 1
	out := make(map[int]bool, len(xs)*len(ys))
	for _, x := range xs {
		for _, y := range ys {
			out[(x*y)&mask] = true
		}
	}
	return out
}

// CorrectSumsInto is the pooled-buffer companion of CorrectSums: it
// writes the sorted, deduplicated expected sums into dst (reusing its
// capacity, growing only when needed) and returns the slice, ready for
// Score. The operand superpositions are tiny (the paper sweeps
// orders up to 2:2, i.e. at most four products), so the sort is
// effectively free.
func CorrectSumsInto(dst []int, xs, ys []int, w int) []int {
	mask := 1<<uint(w) - 1
	dst = dst[:0]
	for _, x := range xs {
		for _, y := range ys {
			dst = append(dst, (x+y)&mask)
		}
	}
	return sortDedup(dst)
}

// CorrectProductsInto is CorrectSumsInto for multiplication instances.
func CorrectProductsInto(dst []int, xs, ys []int, w int) []int {
	mask := 1<<uint(w) - 1
	dst = dst[:0]
	for _, x := range xs {
		for _, y := range ys {
			dst = append(dst, (x*y)&mask)
		}
	}
	return sortDedup(dst)
}

// sortDedup sorts dst ascending and removes adjacent duplicates in
// place. Insertion sort: the inputs are at most a handful of values.
func sortDedup(dst []int) []int {
	for i := 1; i < len(dst); i++ {
		v := dst[i]
		j := i - 1
		for j >= 0 && dst[j] > v {
			dst[j+1] = dst[j]
			j--
		}
		dst[j+1] = v
	}
	out := dst[:0]
	for i, v := range dst {
		if i == 0 || v != dst[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// TopOutcomes returns the k most frequent outcome values in counts,
// ties broken by value, for diagnostic rendering. k is clamped to
// [0, len(counts)]: a non-positive k yields an empty slice.
func TopOutcomes(counts []int, k int) []int {
	if k <= 0 {
		return nil
	}
	idx := make([]int, len(counts))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if counts[idx[a]] != counts[idx[b]] {
			return counts[idx[a]] > counts[idx[b]]
		}
		return idx[a] < idx[b]
	})
	if k > len(idx) {
		k = len(idx)
	}
	return idx[:k]
}
