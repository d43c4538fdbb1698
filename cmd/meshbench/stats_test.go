package main

import (
	"math"
	"testing"
	"time"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4) and
	// statistics.median, the tools the benchmark's spreads are checked
	// with.
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.1, 1.2, 9.9, 4.4}, 1.675, 3.75, 8.525},
		{[]float64{5, 1}, 0, 3, 6},
		{[]float64{2.5, 2.5, 7}, 2.5, 2.5, 7},
		{[]float64{4.2}, 4.2, 4.2, 4.2},
	} {
		q1, m, q3 := quartiles(c.xs)
		for _, p := range [][2]float64{{q1, c.q1}, {m, c.m}, {q3, c.q3}} {
			if math.Abs(p[0]-p[1]) > 1e-9 {
				t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
				break
			}
		}
	}
	if q1, m, q3 := quartiles(nil); !math.IsNaN(q1) || !math.IsNaN(m) || !math.IsNaN(q3) {
		t.Errorf("quartiles(nil) = %v %v %v, want NaNs", q1, m, q3)
	}
}

func TestSpreadAndMAD(t *testing.T) {
	xs := []float64{10, 10, 10, 10, 10, 10, 10, 10, 11, 30}
	if got := mad(xs); got != 0 {
		t.Errorf("mad = %v, want 0: one outlier moves neither median", got)
	}
	if got, want := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 5.5/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n, beyond int
		want      float64
	}{
		{9, 10, 0},         // not even the median leaves ten above it
		{20, 10, 0.5},      // ten above the median, one above p90
		{100, 10, 0.9},     // p99 leaves one
		{1000, 10, 0.99},   // p99 leaves exactly ten
		{9999, 10, 0.99},   // p99.9 leaves nine
		{10000, 10, 0.999}, // p99.9 leaves exactly ten
		{30000, 300, 0.99}, // p99.9 would rest on 30
	} {
		if got := tailQuantile(c.n, c.beyond); got != c.want {
			t.Errorf("tailQuantile(%d, %d) = %v, want %v", c.n, c.beyond, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var xs []time.Duration
	for i := 1; i <= 1000; i++ {
		xs = append(xs, time.Duration(i))
	}
	for p, want := range map[float64]time.Duration{0.5: 500, 0.99: 990, 0.999: 999, 1: 1000, 0: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(1..1000, %v) = %v, want %v", p, got, want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %v", got)
	}
}

func TestWindowedP99IgnoresOneBadWindow(t *testing.T) {
	lat := make([]time.Duration, 5*window)
	for i := range lat {
		lat[i] = time.Millisecond
	}
	for i := 2 * window; i < 3*window; i += 10 {
		lat[i] = time.Second // a stall spoils the third window's tail
	}
	if got := windowedP99(lat); got != time.Millisecond {
		t.Errorf("windowedP99 = %v, want 1ms: one bad window of five", got)
	}
	short := []time.Duration{3, 1, 2}
	if got := windowedP99(short); got != 3 {
		t.Errorf("windowedP99 of a partial window = %v, want its p99 3", got)
	}
}
