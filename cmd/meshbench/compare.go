package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
)

// benchSpec is the part of BENCHMARK.json the comparison reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readSpec(root string) (*benchSpec, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var sp benchSpec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &sp, nil
}

// verdict is how a metric moved between two sets of runs.
type verdict string

const (
	unchanged  verdict = "unchanged"
	improved   verdict = "improved"
	regressed  verdict = "REGRESSED"
	unresolved verdict = "unresolved"
)

// judge compares a metric's values under a change (b) with the parent's
// (a). A median that worsens by more than bound, a share of the parent's
// median, is a regression; one that improves by more is an improvement.
// When either side's run-to-run spread exceeds the bound, a move of the
// bound's size is within the noise, so the metric is unresolved unless
// the two sets do not overlap at all.
func judge(a, b []float64, bound float64, lowerBetter bool) verdict {
	better := func(x, y []float64) bool { // every x better than every y
		if lowerBetter {
			return slices.Max(x) < slices.Min(y)
		}
		return slices.Min(x) > slices.Max(y)
	}
	if spread(a) > bound || spread(b) > bound {
		switch {
		case better(b, a):
			return improved
		case better(a, b):
			return regressed
		}
		return unresolved
	}
	change := (median(b) - median(a)) / median(a)
	if !lowerBetter {
		change = -change
	}
	switch {
	case change > bound:
		return regressed
	case change < -bound:
		return improved
	}
	return unchanged
}

// values collects one metric across the runs of a workload.
func values(bf *benchFile, workload string, trace bool, metric string) []float64 {
	var xs []float64
	for _, run := range bf.Runs {
		if run.Workload != workload || run.Trace != trace {
			continue
		}
		if s, ok := run.Metrics[metric]; ok {
			xs = append(xs, s.Value)
		}
	}
	return xs
}

// compare prints, per workload and metric, each side's median, quartiles
// and MAD, and for end-to-end metrics a verdict against the bound. It
// returns how many metrics were flagged (moved beyond the bound or
// unresolved) and whether any regressed.
func compare(w io.Writer, sp *benchSpec, a, b *benchFile) (flagged int, anyRegressed bool) {
	side := func(xs []float64) string {
		q1, med, q3 := quartiles(xs)
		return fmt.Sprintf("%10.4f [%.4f %.4f] mad %.4f n %d", med, q1, q3, mad(xs), len(xs))
	}
	for _, wl := range sp.Workloads {
		fmt.Fprintf(w, "== %s ==\n", wl.Name)
		for _, m := range sp.EndToEnd {
			xa, xb := values(a, wl.Name, false, m.Name), values(b, wl.Name, false, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Fprintf(w, "  %-20s missing (%d vs %d runs)\n", m.Name, len(xa), len(xb))
				continue
			}
			v := judge(xa, xb, m.Bound, m.Better == "lower")
			if v != unchanged {
				flagged++
			}
			anyRegressed = anyRegressed || v == regressed
			fmt.Fprintf(w, "  %-20s %-5s A %s | B %s | %+6.1f%% (bound %.0f%%) %s\n", m.Name, m.Unit,
				side(xa), side(xb), 100*(median(xb)/median(xa)-1), 100*m.Bound, v)
		}
		for _, m := range sp.PerLayer {
			xa, xb := values(a, wl.Name, true, m.Name), values(b, wl.Name, true, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			fmt.Fprintf(w, "  %-32s %-5s A %s | B %s\n", m.Name, m.Unit, side(xa), side(xb))
		}
	}
	fmt.Fprintf(w, "%d end-to-end metric(s) flagged\n", flagged)
	return flagged, anyRegressed
}
