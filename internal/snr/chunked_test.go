package snr

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"meshlab/internal/conc"
	"meshlab/internal/stats"
)

// feedGroups pushes samples through fn one per-network group at a time.
func feedGroups(t testing.TB, samples []Sample, fn func(v *GroupView)) {
	t.Helper()
	groups := 0
	if err := ForEachSampleGroup(samples, func(g []Sample) error {
		groups++
		fn(NewGroupView(g))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if groups < 2 {
		t.Fatalf("only %d sample groups; the chunked oracles need a multi-network fixture", groups)
	}
}

func TestForEachSampleGroupSplitsRuns(t *testing.T) {
	mk := func(net string) Sample { return Sample{Net: net} }
	samples := []Sample{mk("a"), mk("a"), mk("b"), mk("c"), mk("c"), mk("c")}
	var got [][2]interface{}
	if err := ForEachSampleGroup(samples, func(g []Sample) error {
		got = append(got, [2]interface{}{g[0].Net, len(g)})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := [][2]interface{}{{"a", 2}, {"b", 1}, {"c", 3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("groups = %v, want %v", got, want)
	}
	if err := ForEachSampleGroup(nil, func([]Sample) error { panic("no groups expected") }); err != nil {
		t.Fatal(err)
	}
}

// TestPenaltyAccumMatchesBatchReplay is the chunked-vs-batch oracle for
// the penalty core: group-at-a-time accumulation must reproduce the
// reference train-everything-replay-everything algorithm bit for bit —
// materialized Diffs, counted quantiles, and exact-hit fractions.
func TestPenaltyAccumMatchesBatchReplay(t *testing.T) {
	samples := simulated(t)
	const numRates = 7

	// Reference: full-table train + replay per scope (the same reference
	// TestPenaltyMatchesTableReplay pins the batch wrapper against).
	acc := NewPenaltyAccum(numRates, Scopes)
	feedGroups(t, samples, acc.ObserveGroup)
	dists := acc.FinalizeDists()

	for si, sc := range Scopes {
		tbl := Train(samples, numRates, sc)
		var want []float64
		exact := 0
		for i := range samples {
			s := &samples[i]
			pred, ok := tbl.Lookup(s)
			if !ok {
				t.Fatalf("%v: in-sample replay found an unpopulated cell", sc)
			}
			diff := s.BestTput - s.Tput[pred]
			if diff < 0 {
				diff = 0
			}
			want = append(want, diff)
			if pred == s.Popt {
				exact++
			}
		}
		sort.Float64s(want)

		d := dists[si]
		if d.Scope != sc {
			t.Fatalf("dist %d has scope %v, want %v", si, d.Scope, sc)
		}
		if d.Diffs.N() != len(want) {
			t.Fatalf("%v: chunked N = %d, reference %d", sc, d.Diffs.N(), len(want))
		}
		got := d.Diffs.Materialize()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v: materialized diff[%d] = %v, reference %v", sc, i, got[i], want[i])
			}
		}
		if wantFrac := float64(exact) / float64(len(want)); d.ExactFrac != wantFrac {
			t.Fatalf("%v: ExactFrac %v, reference %v", sc, d.ExactFrac, wantFrac)
		}
		// Counted quantiles must equal CDF quantiles over the materialized
		// slice (what fig4.4 prints).
		cdf := stats.NewCDF(want)
		for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.9, 0.95, 0.999, 1} {
			if g, w := d.Diffs.Quantile(q), cdf.Quantile(q); g != w {
				t.Fatalf("%v: Quantile(%v) = %v, CDF says %v", sc, q, g, w)
			}
		}
	}
}

// TestPenaltyAccumBudgetOracle: the accumulator fans scopes across the
// process worker budget; a single-threaded budget must produce identical
// results (the -workers 1 guarantee).
func TestPenaltyAccumBudgetOracle(t *testing.T) {
	samples := simulated(t)
	defer conc.SetBudget(0)

	run := func() []PenaltyResult {
		return Penalty(samples, 7, Scopes)
	}
	conc.SetBudget(1)
	serial := run()
	conc.SetBudget(8)
	parallel := run()
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("Penalty diverges between budget 1 and budget 8")
	}
}

func TestDistEdgeCases(t *testing.T) {
	var empty diffHist
	d := empty.freeze()
	if d.N() != 0 || !math.IsNaN(d.Quantile(0.5)) || len(d.Materialize()) != 0 {
		t.Fatalf("empty dist misbehaves: N=%d", d.N())
	}

	var one diffHist
	one.add(3.5, 1)
	d = one.freeze()
	if d.N() != 1 || d.Quantile(0) != 3.5 || d.Quantile(1) != 3.5 {
		t.Fatal("single-element dist wrong")
	}

	var h diffHist
	h.add(math.NaN(), 2)
	h.add(1.0, 1)
	h.add(2.0, 3)
	d = h.freeze()
	got := d.Materialize()
	if len(got) != 6 || !math.IsNaN(got[0]) || !math.IsNaN(got[1]) || got[2] != 1 || got[5] != 2 {
		t.Fatalf("NaN-first materialization wrong: %v", got)
	}
	// The counted quantile and the sorted-slice quantile agree even with
	// NaNs present (sort.Float64s also sorts NaNs first).
	cdf := stats.NewCDF(got)
	for _, q := range []float64{0.4, 0.6, 1} {
		g, w := d.Quantile(q), cdf.Quantile(q)
		if g != w && !(math.IsNaN(g) && math.IsNaN(w)) {
			t.Fatalf("Quantile(%v) = %v, CDF %v", q, g, w)
		}
	}
}

// TestCoverageAccumMatchesBatch: per-scope chunked coverage equals the
// batch Train+Coverage rows exactly.
func TestCoverageAccumMatchesBatch(t *testing.T) {
	samples := simulated(t)
	for _, sc := range Scopes {
		for _, minObs := range []int{1, 8} {
			want := Train(samples, 7, sc).Coverage(minObs)
			acc := NewCoverageAccum(7, sc, minObs)
			feedGroups(t, samples, acc.ObserveGroup)
			got := acc.Finalize()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v/minObs=%d: chunked coverage diverges\n got %v\nwant %v", sc, minObs, got, want)
			}
		}
	}
}

// TestTputAccumMatchesBatch: the histogram-counted Figure 4.5 core equals
// the batch counted-layout kernel bit for bit, including the interpolated
// quartiles.
func TestTputAccumMatchesBatch(t *testing.T) {
	samples := simulated(t)
	for _, minObs := range []int{1, 25} {
		want := ThroughputVsSNR(samples, 7, minObs)
		acc := NewTputAccum(7, minObs)
		feedGroups(t, samples, acc.ObserveGroup)
		got := acc.Finalize()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("minObs=%d: chunked throughput-vs-SNR diverges (%d vs %d points)", minObs, len(got), len(want))
		}
	}
	if pts := NewTputAccum(7, 1).Finalize(); pts != nil {
		t.Fatal("empty accumulator should finalize to nil")
	}
}

// TestStrategyAccumMatchesBatch: per-group strategy replay, and its batch
// wrapper ReplayStrategies, equal the map-based reference replay.
func TestStrategyAccumMatchesBatch(t *testing.T) {
	samples := simulated(t)
	want := referenceStrategies([][]Sample{samples}, 7, 35)
	acc := NewStrategyAccum(7, 35)
	feedGroups(t, samples, acc.ObserveGroup)
	if got := acc.Finalize(); !reflect.DeepEqual(got, want) {
		t.Fatal("chunked strategy replay diverges from the reference")
	}
	if got := ReplayStrategies(samples, 7, 35); !reflect.DeepEqual(got, want) {
		t.Fatal("ReplayStrategies diverges from the reference")
	}
}

// TestRateSetAccumMatchesBatch: chunked Figure 4.1 equals the batch sets.
func TestRateSetAccumMatchesBatch(t *testing.T) {
	samples := simulated(t)
	want := OptimalRateSets(samples)
	acc := NewRateSetAccum()
	feedGroups(t, samples, acc.ObserveGroup)
	if got := acc.Finalize(); !reflect.DeepEqual(got, want) {
		t.Fatal("chunked rate sets diverge from batch")
	}
}

// TestTopKAccumMatchesBatch: the chunked §4.5 candidate-set evaluation
// equals TopKCoverage at Link scope (link cells are network-local).
func TestTopKAccumMatchesBatch(t *testing.T) {
	samples := simulated(t)
	ks := []int{1, 2, 3}
	want := TopKCoverage(samples, 7, Link, ks)
	acc := NewTopKAccum(7, ks)
	feedGroups(t, samples, acc.ObserveGroup)
	if got := acc.Finalize(); !reflect.DeepEqual(got, want) {
		t.Fatal("chunked top-k coverage diverges from batch")
	}
}

func BenchmarkPenaltyChunked(b *testing.B) {
	samples := simulated(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc := NewPenaltyAccum(7, Scopes)
		_ = ForEachSampleGroup(samples, func(g []Sample) error {
			acc.ObserveGroup(NewGroupView(g))
			return nil
		})
		_ = acc.FinalizeDists()
	}
}

// feedLinkChunks pushes samples through fn as small link-aligned chunks:
// the wire layer's huge-group delivery shape (a network split into many
// chunks, links never split). maxRows is a soft bound — a chunk extends
// past it to the next link boundary.
func feedLinkChunks(t testing.TB, samples []Sample, maxRows int, fn func(v *GroupView)) {
	t.Helper()
	chunks, multiNet := 0, false
	netChunks := map[string]int{}
	if err := ForEachSampleGroup(samples, func(g []Sample) error {
		start := 0
		for i := 1; i <= len(g); i++ {
			if i == len(g) {
				fn(NewGroupView(g[start:i]))
				chunks++
				netChunks[g[0].Net]++
				break
			}
			boundary := g[i].From != g[i-1].From || g[i].To != g[i-1].To
			if i-start >= maxRows && boundary {
				fn(NewGroupView(g[start:i]))
				chunks++
				netChunks[g[0].Net]++
				start = i
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, n := range netChunks {
		if n > 1 {
			multiNet = true
		}
	}
	if !multiNet {
		t.Fatalf("no network split into multiple chunks (%d chunks total); the sub-chunk oracle is vacuous", chunks)
	}
}

// TestPenaltyAccumSubChunkOracle: feeding a network as many link-aligned
// sub-chunks must reproduce the whole-network feed exactly — the
// Network- and AP-scope banking resolves at network boundaries, the
// Link scope within each chunk.
func TestPenaltyAccumSubChunkOracle(t *testing.T) {
	samples := simulated(t)
	whole := NewPenaltyAccum(7, Scopes)
	feedGroups(t, samples, whole.ObserveGroup)
	want := whole.Finalize()

	chunked := NewPenaltyAccum(7, Scopes)
	feedLinkChunks(t, samples, 16, chunked.ObserveGroup)
	got := chunked.Finalize()
	if !reflect.DeepEqual(got, want) {
		t.Fatal("sub-chunked penalty diverges from whole-network feeding")
	}
}

// TestCoverageAccumSubChunkOracle: same property for every coverage scope.
func TestCoverageAccumSubChunkOracle(t *testing.T) {
	samples := simulated(t)
	for _, sc := range Scopes {
		want := Train(samples, 7, sc).Coverage(8)
		acc := NewCoverageAccum(7, sc, 8)
		feedLinkChunks(t, samples, 16, acc.ObserveGroup)
		if got := acc.Finalize(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: sub-chunked coverage diverges from batch", sc)
		}
	}
}

// TestStrategyAccumSubChunkOracle: links complete within chunks, so the
// online replays are unaffected by the chunking.
func TestStrategyAccumSubChunkOracle(t *testing.T) {
	samples := simulated(t)
	want := referenceStrategies([][]Sample{samples}, 7, 35)
	acc := NewStrategyAccum(7, 35)
	feedLinkChunks(t, samples, 16, acc.ObserveGroup)
	if got := acc.Finalize(); !reflect.DeepEqual(got, want) {
		t.Fatal("sub-chunked strategy replay diverges from the reference")
	}
}

// TestTopKAccumSubChunkOracle: link cells complete within chunks, so the
// candidate-set evaluation is unaffected by the chunking.
func TestTopKAccumSubChunkOracle(t *testing.T) {
	samples := simulated(t)
	want := TopKCoverage(samples, 7, Link, []int{1, 2, 3})
	acc := NewTopKAccum(7, []int{1, 2, 3})
	feedLinkChunks(t, samples, 16, acc.ObserveGroup)
	if got := acc.Finalize(); !reflect.DeepEqual(got, want) {
		t.Fatal("sub-chunked top-k coverage diverges from batch")
	}
}
