package main

import (
	"encoding/json"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
)

// validName is the metric-name alphabet BENCHMARK.json accepts.
var validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestBenchmarkJSONDeclaresWhatRunsEmit(t *testing.T) {
	sp, err := readSpec(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	var e2e []metricDef
	largest := 0.0
	for _, m := range sp.EndToEnd {
		e2e = append(e2e, m.metricDef)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		largest = max(largest, m.Bound)
	}
	for _, m := range sp.EndToEnd {
		if m.Name == "setup_s" && m.Bound < largest {
			t.Errorf("setup_s bound %v is not the largest (%v)", m.Bound, largest)
		}
	}
	for _, c := range []struct {
		what           string
		declared, code []metricDef
	}{{"end_to_end", e2e, endToEnd}, {"per_layer", sp.PerLayer, perLayer}} {
		if !slices.Equal(c.declared, c.code) {
			t.Errorf("BENCHMARK.json %s does not match what runs emit:\n declared %v\n emitted  %v", c.what, c.declared, c.code)
		}
		seen := map[string]bool{}
		for _, m := range c.code {
			if !validName.MatchString(m.Name) || seen[m.Name] {
				t.Errorf("%s: metric name %q is malformed or repeated", c.what, m.Name)
			}
			seen[m.Name] = true
		}
	}
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !slices.Equal(names, have) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, have)
	}
}

func TestSummaryLineCarriesEveryMetric(t *testing.T) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		r := newRecorder()
		for i, d := range defs {
			r.stat(d.Name, float64(i)+0.5, 1)
		}
		r.op(nil)
		rec := &runRecord{}
		if err := r.finish(defs, rec); err != nil {
			t.Fatal(err)
		}
		line, err := summaryLine(rec, defs)
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			Correct   *bool `json:"correct"`
			Attempted *int  `json:"attempted"`
			Failed    *int  `json:"failed"`
			Metrics   map[string]struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal(line, &got); err != nil {
			t.Fatal(err)
		}
		if got.Correct == nil || !*got.Correct || got.Attempted == nil || *got.Attempted != 1 || got.Failed == nil || *got.Failed != 0 {
			t.Errorf("summary line %s lacks correct/attempted/failed", line)
		}
		if len(got.Metrics) != len(defs) {
			t.Errorf("summary line has %d metrics, want %d", len(got.Metrics), len(defs))
		}
		for i, d := range defs {
			if m, ok := got.Metrics[d.Name]; !ok || m.Unit != d.Unit || m.Value != float64(i)+0.5 {
				t.Errorf("metric %s = %+v, want %v %s", d.Name, m, float64(i)+0.5, d.Unit)
			}
		}
	}
}

func TestFinishRefusesUnmeasuredMetric(t *testing.T) {
	r := newRecorder()
	for _, d := range endToEnd[1:] {
		r.stat(d.Name, 1, 1)
	}
	if err := r.finish(endToEnd, &runRecord{}); err == nil {
		t.Errorf("a run missing %s finished", endToEnd[0].Name)
	}
	r.fail("wrong output")
	r.stat(endToEnd[0].Name, 1, 1)
	rec := &runRecord{}
	if err := r.finish(endToEnd, rec); err != nil || rec.Correct {
		t.Errorf("a run with a failed check: finish = %v, correct %t", err, rec.Correct)
	}
}
