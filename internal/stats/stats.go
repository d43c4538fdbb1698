// Package stats provides the descriptive statistics used throughout the
// meshlab analyses: summaries, quantiles, empirical CDFs, histograms, and
// binned aggregation. Every figure in the reproduction is ultimately a CDF,
// a quantile series, or a binned summary produced by this package.
package stats

import (
	"errors"
	"math"
	"sort"
	"unsafe"
)

// ErrEmpty is returned by operations that are undefined on empty samples.
var ErrEmpty = errors.New("stats: empty sample")

// Summary holds the moments and extremes of a sample.
type Summary struct {
	N      int
	Mean   float64
	Std    float64 // population standard deviation
	Min    float64
	Max    float64
	Median float64
}

// Summarize computes a Summary of xs. It returns ErrEmpty for an empty
// sample.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	s.Std = math.Sqrt(ss / float64(len(xs)))
	s.Median = Quantile(xs, 0.5)
	return s, nil
}

// Mean returns the arithmetic mean of xs, or NaN for an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Std returns the population standard deviation of xs, or NaN for an empty
// sample.
func Std(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics (type-7, the common default).
// It does not modify xs. It returns NaN for an empty sample and panics if q
// is outside [0, 1]. Already-sorted input (common for CDF-shaped data,
// e.g. snr.PenaltyResult.Diffs or a pre-sorted bin) is read in place —
// no copy, no re-sort.
func Quantile(xs []float64, q float64) float64 {
	if q < 0 || q > 1 {
		panic("stats: quantile out of [0,1]")
	}
	if len(xs) == 0 {
		return math.NaN()
	}
	if sort.Float64sAreSorted(xs) {
		return quantileSorted(xs, q)
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 0.5-quantile of xs.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Quartiles returns the lower quartile, median, and upper quartile of xs.
// Sorted input is read in place without a copy.
func Quartiles(xs []float64) (q1, med, q3 float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	sorted := xs
	if !sort.Float64sAreSorted(xs) {
		sorted = make([]float64, len(xs))
		copy(sorted, xs)
		sort.Float64s(sorted)
	}
	return quantileSorted(sorted, 0.25), quantileSorted(sorted, 0.5), quantileSorted(sorted, 0.75)
}

// CDF is an empirical cumulative distribution function over a sample.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from xs. The input is copied; input that
// is already sorted (snr.PenaltyResult.Diffs, routing improvement tables
// after their single sort) skips the O(n log n) re-sort.
func NewCDF(xs []float64) *CDF {
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	if !sort.Float64sAreSorted(sorted) {
		sort.Float64s(sorted)
	}
	return &CDF{sorted: sorted}
}

// NewCDFInPlace is NewCDF without the copy: it sorts xs in place and the
// CDF aliases it, for a caller that has no further use for xs's order.
func NewCDFInPlace(xs []float64) *CDF {
	SortFloat64s(xs)
	return &CDF{sorted: xs}
}

// radixMin is the length below which SortFloat64s defers to
// sort.Float64s: the radix passes' fixed cost does not pay off there.
const radixMin = 1 << 10

// radixBits is the width of one radix digit; six digits cover 64 bits.
const radixBits = 11

// SortFloat64s sorts xs in place into the order sort.Float64s gives:
// NaNs first, then ascending. −0 and +0 are equal in that order; here
// every −0 precedes every +0. Large slices take an LSD radix sort on the
// float64 bits, mapped so that unsigned order is numeric order, with one
// scratch buffer as long as xs; small ones take sort.Float64s.
func SortFloat64s(xs []float64) {
	if len(xs) < radixMin {
		sort.Float64s(xs)
		return
	}
	nan := 0
	for i, x := range xs {
		if math.IsNaN(x) {
			xs[i], xs[nan] = xs[nan], x
			nan++
		}
	}
	// The keys live in xs's own memory: a []uint64 view of the non-NaN
	// tail, so no NaN payload ever passes through a float register.
	rest := xs[nan:]
	keys := unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(rest))), len(rest))
	for i, b := range keys {
		if b>>63 == 1 {
			keys[i] = ^b // negative: larger magnitude sorts first
		} else {
			keys[i] = b | 1<<63
		}
	}
	radixSortKeys(keys)
	for i, k := range keys {
		if k>>63 == 1 {
			keys[i] = k &^ (1 << 63)
		} else {
			keys[i] = ^k
		}
	}
}

// radixSortKeys sorts keys ascending: one counting pass builds every
// digit's histogram, and each digit whose values are not all equal
// scatters the keys stably between keys and a scratch buffer.
func radixSortKeys(keys []uint64) {
	const digits = (64 + radixBits - 1) / radixBits
	const mask = 1<<radixBits - 1
	var counts [digits][1 << radixBits]int
	for _, k := range keys {
		for d := range digits {
			counts[d][k>>(d*radixBits)&mask]++
		}
	}
	src, dst := keys, make([]uint64, len(keys))
	for d := range digits {
		shift := d * radixBits
		c := &counts[d]
		if c[keys[0]>>shift&mask] == len(keys) {
			continue // every key shares this digit
		}
		pos := 0
		for b, n := range c {
			c[b] = pos
			pos += n
		}
		for _, k := range src {
			b := k >> shift & mask
			dst[c[b]] = k
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
}

// N returns the sample size.
func (c *CDF) N() int { return len(c.sorted) }

// At returns P(X <= x).
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	// sort.SearchFloat64s returns the first index with sorted[i] >= x; we
	// want the count of values <= x, so search for the first value > x.
	i := sort.Search(len(c.sorted), func(i int) bool { return c.sorted[i] > x })
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the q-quantile of the underlying sample.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	if q < 0 || q > 1 {
		panic("stats: quantile out of [0,1]")
	}
	return quantileSorted(c.sorted, q)
}

// Point is a single (X, Y) sample of a curve, typically a CDF evaluated at X
// or a series keyed by X.
type Point struct {
	X float64
	Y float64
}

// Points samples the CDF at n evenly spaced values spanning [min, max] and
// returns (x, P(X<=x)) pairs. For n < 2 or an empty sample it returns nil.
func (c *CDF) Points(n int) []Point {
	if len(c.sorted) == 0 || n < 2 {
		return nil
	}
	lo, hi := c.sorted[0], c.sorted[len(c.sorted)-1]
	pts := make([]Point, n)
	for i := 0; i < n; i++ {
		x := lo + (hi-lo)*float64(i)/float64(n-1)
		pts[i] = Point{X: x, Y: c.At(x)}
	}
	return pts
}

// Values returns the sorted underlying sample. The caller must not modify
// the returned slice.
func (c *CDF) Values() []float64 { return c.sorted }

// Histogram counts samples into integer-keyed buckets; it is used for
// figures like 7.1 (number of APs visited).
type Histogram struct {
	Counts map[int]int
	Total  int
}

// NewHistogram builds a Histogram over integer observations.
func NewHistogram(xs []int) *Histogram {
	h := &Histogram{Counts: make(map[int]int)}
	for _, x := range xs {
		h.Counts[x]++
		h.Total++
	}
	return h
}

// Sorted returns the (value, count) pairs in increasing value order.
func (h *Histogram) Sorted() []Point {
	keys := make([]int, 0, len(h.Counts))
	for k := range h.Counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	pts := make([]Point, len(keys))
	for i, k := range keys {
		pts[i] = Point{X: float64(k), Y: float64(h.Counts[k])}
	}
	return pts
}

// Binned aggregates (x, y) observations into fixed-width x bins; it backs
// figures like 4.5 (throughput vs SNR) and 5.4 (improvement vs path length).
type Binned struct {
	Width float64
	bins  map[int][]float64
}

// NewBinned creates a Binned aggregator with the given bin width. A width
// of 1 with integer x values gives exact per-value grouping.
func NewBinned(width float64) *Binned {
	if width <= 0 {
		panic("stats: non-positive bin width")
	}
	return &Binned{Width: width, bins: make(map[int][]float64)}
}

// Add records observation y at coordinate x.
func (b *Binned) Add(x, y float64) {
	b.bins[int(math.Floor(x/b.Width))] = append(b.bins[int(math.Floor(x/b.Width))], y)
}

// BinRow is the aggregate of one bin.
type BinRow struct {
	X      float64 // bin center
	N      int
	Mean   float64
	Std    float64
	Median float64
	Q1, Q3 float64
	Max    float64
	Min    float64
}

// Rows returns per-bin aggregates in increasing x order.
func (b *Binned) Rows() []BinRow {
	keys := make([]int, 0, len(b.bins))
	for k := range b.bins {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	rows := make([]BinRow, 0, len(keys))
	for _, k := range keys {
		ys := b.bins[k]
		// One in-place sort per bin; Summarize's median and Quartiles
		// then both take the sorted-input fast path instead of each
		// copy-and-sorting the bin again.
		sort.Float64s(ys)
		s, err := Summarize(ys)
		if err != nil {
			continue
		}
		q1, med, q3 := Quartiles(ys)
		rows = append(rows, BinRow{
			X:      (float64(k) + 0.5) * b.Width,
			N:      s.N,
			Mean:   s.Mean,
			Std:    s.Std,
			Median: med,
			Q1:     q1,
			Q3:     q3,
			Min:    s.Min,
			Max:    s.Max,
		})
	}
	return rows
}

// Pearson returns the Pearson correlation coefficient of the paired samples
// xs and ys. It returns NaN if the lengths differ, the sample is empty, or
// either side has zero variance.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) == 0 {
		return math.NaN()
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Spearman returns the Spearman rank correlation of the paired samples.
func Spearman(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) == 0 {
		return math.NaN()
	}
	return Pearson(ranks(xs), ranks(ys))
}

// ranks assigns average ranks (1-based) to xs, averaging ties. Sorted
// input keeps the identity permutation — only the sort is skipped, the
// tie-averaging walk is shared.
func ranks(xs []float64) []float64 {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	if !sort.Float64sAreSorted(xs) {
		sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	}
	r := make([]float64, len(xs))
	for i := 0; i < len(idx); {
		j := i
		for j < len(idx) && xs[idx[j]] == xs[idx[i]] {
			j++
		}
		// average rank for the tie group [i, j)
		avg := (float64(i) + float64(j-1)) / 2.0
		for k := i; k < j; k++ {
			r[idx[k]] = avg + 1
		}
		i = j
	}
	return r
}

// MostFrequent returns the most frequently occurring value among xs along
// with its count, breaking ties toward the smaller value so results are
// deterministic. It returns (0, 0) for an empty sample.
func MostFrequent(xs []float64) (value float64, count int) {
	if len(xs) == 0 {
		return 0, 0
	}
	counts := make(map[float64]int, len(xs))
	for _, x := range xs {
		counts[x]++
	}
	first := true
	for v, c := range counts {
		if first || c > count || (c == count && v < value) {
			value, count = v, c
			first = false
		}
	}
	return value, count
}

// FractionAtMost returns the fraction of xs that are <= limit.
func FractionAtMost(xs []float64, limit float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	n := 0
	for _, x := range xs {
		if x <= limit {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}
