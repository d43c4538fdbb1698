package main

import (
	"math"
	"sort"
	"time"
)

// quartiles returns the first quartile, the median and the third
// quartile of xs. The quartiles follow Python's
// statistics.quantiles(xs, n=4) (its default "exclusive" method) and the
// median statistics.median, so a spread printed here is the one a reader
// recomputes from the same values. An empty xs gives NaNs.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	if n%2 == 1 {
		med = s[n/2]
	} else {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	m := n + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), med, q(3)
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 {
	_, med, _ := quartiles(xs)
	return med
}

// mad returns the median absolute deviation of xs from their median.
func mad(xs []float64) float64 {
	med := median(xs)
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - med)
	}
	return median(dev)
}

// spread is the interquartile range of xs as a share of their median:
// the run-to-run noise a bound must exceed.
func spread(xs []float64) float64 {
	q1, med, q3 := quartiles(xs)
	return (q3 - q1) / med
}

// rank returns the 1-based nearest-rank position of quantile p among n
// sorted samples. The tolerance keeps p·n from rounding up past an exact
// integer (0.99·1000 is 990.0000000000001 in floating point).
func rank(p float64, n int) int {
	return min(max(int(math.Ceil(p*float64(n)-1e-9)), 1), n)
}

// percentile returns the nearest-rank p-quantile of sorted durations.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(p, len(sorted))-1]
}

// tailLadder is the set of tail percentiles a latency report may quote.
var tailLadder = []float64{0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999}

// tailQuantile returns the highest quantile of tailLadder that leaves at
// least minBeyond of n samples above it, or 0 when even the median does
// not: a tail percentile resting on fewer samples is one outlier wide.
func tailQuantile(n, minBeyond int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if n-rank(p, n) >= minBeyond {
			best = p
		}
	}
	return best
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
