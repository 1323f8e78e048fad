package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie above a reported percentile: a p90
// read from fewer than 100 rounds rests on a handful of values, so it is
// not reported at all.
const minTail = 10

// percentile returns the nearest-rank p-th percentile of xs (0 < p <= 100)
// together with the number of samples it was chosen from. ok is false when
// fewer than minTail samples lie above the chosen rank, or xs is empty.
func percentile(xs []float64, p float64) (v float64, n int, ok bool) {
	n = len(xs)
	if n == 0 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s[rank-1], n, n-rank >= minTail
}

// median is the middle sample, or the mean of the two middle samples for an
// even count; 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0 (a layer that did no work this round).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
