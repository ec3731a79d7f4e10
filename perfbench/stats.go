package main

import (
	"math"
	"sort"
)

// tailBeyond is how many samples a reported tail percentile must leave
// above it: a percentile read off fewer samples is one outlier away from
// a different number.
const tailBeyond = 10

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle sample, or the mean of the two middle samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles by the method of
// Python's statistics.quantiles(xs, n=4) (the default "exclusive"
// method), so spreads computed here and by an outside script agree.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// percentileRank is the 1-based nearest rank of percentile p in n
// samples.
func percentileRank(n int, p float64) int {
	r := int(math.Ceil(p * float64(n)))
	return min(max(r, 1), n)
}

// percentile is the nearest-rank p-th percentile (p in (0, 1]).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	return s[percentileRank(len(s), p)-1]
}

// samplesBeyond counts the samples ranked above percentile p in n.
func samplesBeyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - percentileRank(n, p)
}

// tailSupported reports whether n samples leave at least tailBeyond
// samples above percentile p.
func tailSupported(n int, p float64) bool { return samplesBeyond(n, p) >= tailBeyond }

// minSamplesForTail is the smallest sample count that supports
// percentile p.
func minSamplesForTail(p float64) int {
	n := 1
	for !tailSupported(n, p) {
		n++
	}
	return n
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
