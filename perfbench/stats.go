package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail percentile resting on fewer samples is mostly noise.
const minBeyond = 10

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count). It returns NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs exactly as
// Python's statistics.quantiles(xs, n=4) computes them (the default
// "exclusive" method), so the spreads this program prints match the
// ones an external check computes from the same values. ok is false
// for fewer than two values.
func quartiles(xs []float64) (q1, q3 float64, ok bool) {
	if len(xs) < 2 {
		return 0, 0, false
	}
	s := sortedCopy(xs)
	q := func(i int) float64 {
		const n = 4
		ld := len(s)
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3), true
}

// lowerQuartile and upperQuartile return q1 and q3 of xs, or the
// median when there are fewer than two values.
func lowerQuartile(xs []float64) float64 {
	if q1, _, ok := quartiles(xs); ok {
		return q1
	}
	return median(xs)
}

func upperQuartile(xs []float64) float64 {
	if _, q3, ok := quartiles(xs); ok {
		return q3
	}
	return median(xs)
}

// relIQR is the distance between the quartiles as a share of the
// median.
func relIQR(xs []float64) float64 {
	q1, q3, ok := quartiles(xs)
	if !ok {
		return math.NaN()
	}
	return (q3 - q1) / median(xs)
}

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs and
// whether at least minBeyond samples lie above it. Callers report the
// value only when ok is true.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), false
	}
	s := sortedCopy(xs)
	k := int(math.Ceil(p * float64(n)))
	if k < 1 {
		k = 1
	}
	return s[k-1], n-k >= minBeyond
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
