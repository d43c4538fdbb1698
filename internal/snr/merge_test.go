package snr

import (
	"math"
	"reflect"
	"testing"
)

// splitShards partitions samples into k contiguous shards aligned on
// network boundaries — the shard contract merge.go documents. Shards may
// be empty when k exceeds the network count.
func splitShards(t testing.TB, samples []Sample, k int) [][]Sample {
	t.Helper()
	var bounds []int // group start indices
	for i := 0; i < len(samples); {
		bounds = append(bounds, i)
		j := i + 1
		for j < len(samples) && samples[j].Net == samples[i].Net {
			j++
		}
		i = j
	}
	groups := len(bounds)
	if groups < 2 {
		t.Fatalf("only %d sample groups; shard oracles need a multi-network fixture", groups)
	}
	bounds = append(bounds, len(samples))
	shards := make([][]Sample, k)
	for s := 0; s < k; s++ {
		lo, hi := s*groups/k, (s+1)*groups/k
		shards[s] = samples[bounds[lo]:bounds[hi]]
	}
	return shards
}

// mergeShards feeds each shard into its own accumulator via feed, then
// folds them all into the first with merge — the shard runner's
// gather step.
func mergeShards[T any](shards [][]Sample, mk func() T, feed func(T, []Sample), merge func(dst, src T)) T {
	dst := mk()
	for _, shard := range shards {
		acc := mk()
		_ = ForEachSampleGroup(shard, func(g []Sample) error {
			feed(acc, g)
			return nil
		})
		merge(dst, acc)
	}
	return dst
}

func TestDistMerge(t *testing.T) {
	var a, b, both diffHist
	add := func(h *diffHist, v float64, n int64) { h.add(v, n) }
	for _, e := range []struct {
		v float64
		n int64
	}{{1.5, 3}, {math.NaN(), 2}, {2.25, 1}} {
		add(&a, e.v, e.n)
		add(&both, e.v, e.n)
	}
	for _, e := range []struct {
		v float64
		n int64
	}{{1.5, 1}, {4.0, 5}, {math.NaN(), 1}} {
		add(&b, e.v, e.n)
		add(&both, e.v, e.n)
	}
	da, db, want := a.freeze(), b.freeze(), both.freeze()
	da.Merge(db)
	if !reflect.DeepEqual(da.Materialize(), want.Materialize()) &&
		!materializeEqualNaN(da.Materialize(), want.Materialize()) {
		t.Fatalf("merged dist %v != combined %v", da.Materialize(), want.Materialize())
	}

	// Empty-partial identity, both directions.
	var empty diffHist
	de := empty.freeze()
	de.Merge(want)
	if !materializeEqualNaN(de.Materialize(), want.Materialize()) {
		t.Fatal("empty.Merge(x) != x")
	}
	w2 := both.freeze()
	w2.Merge(empty.freeze())
	if !materializeEqualNaN(w2.Materialize(), want.Materialize()) {
		t.Fatal("x.Merge(empty) != x")
	}
}

// materializeEqualNaN compares materialized distributions treating NaN as
// equal to NaN (reflect.DeepEqual already does, but keep the oracle
// explicit about element order).
func materializeEqualNaN(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return false
		}
	}
	return true
}

// TestPenaltyAccumMerge is the shard-vs-whole oracle for the penalty
// core: per-shard accumulators merged in shard order must reproduce the
// whole-input run bit for bit, for every scope, at several shard counts,
// with shards fed both whole-network groups and link-aligned sub-chunks
// (the latter exercises merging while Network/AP banking state is live).
func TestPenaltyAccumMerge(t *testing.T) {
	samples := simulated(t)
	whole := NewPenaltyAccum(7, Scopes)
	feedGroups(t, samples, whole.ObserveGroup)
	want := whole.Finalize()

	for _, k := range []int{1, 2, 3, 9} {
		shards := splitShards(t, samples, k)
		merged := mergeShards(shards,
			func() *PenaltyAccum { return NewPenaltyAccum(7, Scopes) },
			func(a *PenaltyAccum, g []Sample) { a.ObserveGroup(NewGroupView(g)) },
			func(dst, src *PenaltyAccum) { dst.Merge(src) })
		if got := merged.Finalize(); !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d: merged penalty diverges from whole run", k)
		}
	}

	// Sub-chunked shards: a shard's networks arrive as many link-aligned
	// chunks, so merge sees held/banked state flushed by finishNet.
	shards := splitShards(t, samples, 3)
	dst := NewPenaltyAccum(7, Scopes)
	for _, shard := range shards {
		acc := NewPenaltyAccum(7, Scopes)
		if len(shard) > 0 {
			feedLinkChunks(t, shard, 16, acc.ObserveGroup)
		}
		dst.Merge(acc)
	}
	if got := dst.Finalize(); !reflect.DeepEqual(got, want) {
		t.Fatal("sub-chunked sharded penalty diverges from whole run")
	}

	// Empty-partial identity.
	lone := NewPenaltyAccum(7, Scopes)
	feedGroups(t, samples, lone.ObserveGroup)
	lone.Merge(NewPenaltyAccum(7, Scopes))
	if got := lone.Finalize(); !reflect.DeepEqual(got, want) {
		t.Fatal("x.Merge(empty) changed the penalty result")
	}
}

func TestCoverageAccumMerge(t *testing.T) {
	samples := simulated(t)
	for _, sc := range Scopes {
		for _, minObs := range []int{1, 8} {
			want := Train(samples, 7, sc).Coverage(minObs)
			for _, k := range []int{1, 2, 4} {
				merged := mergeShards(splitShards(t, samples, k),
					func() *CoverageAccum { return NewCoverageAccum(7, sc, minObs) },
					func(a *CoverageAccum, g []Sample) { a.ObserveGroup(NewGroupView(g)) },
					func(dst, src *CoverageAccum) { dst.Merge(src) })
				if got := merged.Finalize(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%v/minObs=%d/k=%d: merged coverage diverges", sc, minObs, k)
				}
			}
			// Empty-partial identity.
			lone := NewCoverageAccum(7, sc, minObs)
			feedGroups(t, samples, lone.ObserveGroup)
			lone.Merge(NewCoverageAccum(7, sc, minObs))
			if got := lone.Finalize(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%v: x.Merge(empty) changed the coverage result", sc)
			}
		}
	}
}

func TestTputAccumMerge(t *testing.T) {
	samples := simulated(t)
	want := ThroughputVsSNR(samples, 7, 25)
	for _, k := range []int{1, 3} {
		merged := mergeShards(splitShards(t, samples, k),
			func() *TputAccum { return NewTputAccum(7, 25) },
			func(a *TputAccum, g []Sample) { a.ObserveGroup(NewGroupView(g)) },
			func(dst, src *TputAccum) { dst.Merge(src) })
		if got := merged.Finalize(); !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d: merged throughput-vs-SNR diverges", k)
		}
	}
	lone := NewTputAccum(7, 25)
	feedGroups(t, samples, lone.ObserveGroup)
	lone.Merge(NewTputAccum(7, 25))
	if got := lone.Finalize(); !reflect.DeepEqual(got, want) {
		t.Fatal("x.Merge(empty) changed the tput result")
	}
}

func TestRateSetAccumMerge(t *testing.T) {
	samples := simulated(t)
	want := OptimalRateSets(samples)
	merged := mergeShards(splitShards(t, samples, 3),
		func() *RateSetAccum { return NewRateSetAccum() },
		func(a *RateSetAccum, g []Sample) { a.ObserveGroup(NewGroupView(g)) },
		func(dst, src *RateSetAccum) { dst.Merge(src) })
	if got := merged.Finalize(); !reflect.DeepEqual(got, want) {
		t.Fatal("merged rate sets diverge from batch")
	}
	lone := NewRateSetAccum()
	feedGroups(t, samples, lone.ObserveGroup)
	lone.Merge(NewRateSetAccum())
	if got := lone.Finalize(); !reflect.DeepEqual(got, want) {
		t.Fatal("x.Merge(empty) changed the rate sets")
	}
}

func TestStrategyAccumMerge(t *testing.T) {
	samples := simulated(t)
	want := ReplayStrategies(samples, 7, 35)
	merged := mergeShards(splitShards(t, samples, 3),
		func() *StrategyAccum { return NewStrategyAccum(7, 35) },
		func(a *StrategyAccum, g []Sample) { a.ObserveGroup(NewGroupView(g)) },
		func(dst, src *StrategyAccum) { dst.Merge(src) })
	if got := merged.Finalize(); !reflect.DeepEqual(got, want) {
		t.Fatal("merged strategy replay diverges from batch")
	}
	lone := NewStrategyAccum(7, 35)
	feedGroups(t, samples, lone.ObserveGroup)
	lone.Merge(NewStrategyAccum(7, 35))
	if got := lone.Finalize(); !reflect.DeepEqual(got, want) {
		t.Fatal("x.Merge(empty) changed the strategy result")
	}
}

func TestTopKAccumMerge(t *testing.T) {
	samples := simulated(t)
	ks := []int{1, 2, 3}
	want := TopKCoverage(samples, 7, Link, ks)
	merged := mergeShards(splitShards(t, samples, 4),
		func() *TopKAccum { return NewTopKAccum(7, ks) },
		func(a *TopKAccum, g []Sample) { a.ObserveGroup(NewGroupView(g)) },
		func(dst, src *TopKAccum) { dst.Merge(src) })
	if got := merged.Finalize(); !reflect.DeepEqual(got, want) {
		t.Fatal("merged top-k coverage diverges from batch")
	}
	lone := NewTopKAccum(7, ks)
	feedGroups(t, samples, lone.ObserveGroup)
	lone.Merge(NewTopKAccum(7, ks))
	if got := lone.Finalize(); !reflect.DeepEqual(got, want) {
		t.Fatal("x.Merge(empty) changed the top-k result")
	}
}

func TestTableMerge(t *testing.T) {
	samples := simulated(t)
	for _, sc := range Scopes {
		want := Train(samples, 7, sc)
		shards := splitShards(t, samples, 3)
		merged := &Table{Scope: sc, NumRates: 7, counts: make(map[instKey]map[int][]int)}
		for _, shard := range shards {
			merged.Merge(Train(shard, 7, sc))
		}
		if !reflect.DeepEqual(merged.counts, want.counts) {
			t.Fatalf("%v: merged table diverges from whole-train", sc)
		}
	}
}
