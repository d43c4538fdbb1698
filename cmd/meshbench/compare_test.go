package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	steady := []float64{10, 10.1, 9.9, 10, 10.05, 9.95, 10, 10.1, 9.9, 10}
	scaled := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{6, 14, 8, 12, 10, 7, 13, 9, 11, 10}
	for _, c := range []struct {
		name        string
		a, b        []float64
		lowerBetter bool
		want        verdict
	}{
		{"same", steady, steady, true, unchanged},
		{"within bound", steady, scaled(steady, 1.05), true, unchanged},
		{"slower beyond bound", steady, scaled(steady, 1.2), true, regressed},
		{"faster beyond bound", steady, scaled(steady, 0.8), true, improved},
		{"higher-better drop", steady, scaled(steady, 0.8), false, regressed},
		{"higher-better rise", steady, scaled(steady, 1.2), false, improved},
		{"noise wider than bound", steady, noisy, true, unresolved},
		{"noisy but disjoint", noisy, scaled(noisy, 3), true, regressed},
		{"noisy but disjoint and better", scaled(noisy, 3), noisy, true, improved},
	} {
		if got := judge(c.a, c.b, 0.1, c.lowerBetter); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFlagsOnlyMoves(t *testing.T) {
	sp := &benchSpec{}
	sp.Workloads = append(sp.Workloads, struct {
		Name string `json:"name"`
	}{"w"})
	sp.EndToEnd = append(sp.EndToEnd, struct {
		metricDef
		Bound float64 `json:"bound"`
	}{metricDef{"t_s", "s", "lower"}, 0.1})
	runs := func(vals ...float64) *benchFile {
		bf := &benchFile{}
		for _, v := range vals {
			bf.Runs = append(bf.Runs, runRecord{Workload: "w", Metrics: map[string]sample{"t_s": {Value: v}}})
		}
		return bf
	}
	var out bytes.Buffer
	if flagged, reg := compare(&out, sp, runs(1, 1.01, 0.99, 1), runs(1.02, 1, 0.98, 1)); flagged != 0 || reg {
		t.Errorf("same code: %d flagged, regressed %t\n%s", flagged, reg, out.String())
	}
	out.Reset()
	if flagged, reg := compare(&out, sp, runs(1, 1.01, 0.99, 1), runs(1.5, 1.51, 1.49, 1.5)); flagged != 1 || !reg || !strings.Contains(out.String(), string(regressed)) {
		t.Errorf("50%% slower: %d flagged, regressed %t\n%s", flagged, reg, out.String())
	}
}
