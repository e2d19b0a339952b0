package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle value of vs (mean of the two middle values
// for an even count), 0 for an empty slice. vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile is the nearest-rank percentile of an ascending-sorted
// slice: the smallest value with at least p% of the samples at or
// below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankOf(len(sorted), p)-1]
}

// rankOf is the 1-based nearest rank of percentile p among n samples.
// The small slack keeps 99.9% of 10000 at rank 9990 despite rounding.
func rankOf(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(r, 1), n)
}

// tailLadder lists the percentiles a tail may be reported at.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// tailPercentile picks the highest ladder percentile that still has at
// least ten samples beyond it — a tail read from fewer is one stall,
// not a distribution. With too few samples even for p75 it stays at
// the median.
func tailPercentile(n int) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder[1:] {
		if n-rankOf(n, p) >= 10 {
			best = p
		}
	}
	return best
}

// spread is the interquartile range of vs as a share of its median,
// with the quartiles of Python's statistics.quantiles(vs, n=4) (the
// exclusive method) so the number agrees with the one the driver
// computes. Fewer than two values have no spread.
func spread(vs []float64) float64 {
	n := len(vs)
	med := median(vs)
	if n < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	quart := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		d := i*(n+1) - j*4
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return math.Abs(quart(3)-quart(1)) / math.Abs(med)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
