package snr

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// viewKeys are the (scope, bySNR) orders the cores ask a view for.
var viewKeys = []struct {
	scope Scope
	bySNR bool
}{{Link, true}, {Link, false}, {AP, true}, {Network, true}, {Global, true}}

// freshOrder is the referee for a view's cached order: chunkOrder.sort of
// each network segment in turn, and the runs runEnd finds in it.
func freshOrder(group []Sample, scope Scope, bySNR bool) (idx, runs []int32) {
	idx, runs = []int32{}, []int32{}
	_ = ForEachSampleGroup(group, func(seg []Sample) error {
		lo := int32(len(idx))
		var o chunkOrder
		sorted := o.sort(seg, scope, bySNR)
		for start := 0; start < len(sorted); {
			runs = append(runs, lo+int32(start))
			start = runEnd(seg, sorted, start, scope, bySNR)
		}
		for _, i := range sorted {
			idx = append(idx, lo+i)
		}
		return nil
	})
	return idx, append(runs, int32(len(idx)))
}

// viewGroups returns the oracle's groups: the fixture's whole networks,
// one multi-network group, link-boundary sub-chunks, shuffled networks
// (links interleaved and out of time order), node ids and SNRs spanning
// more than maxCountSpan (chunkOrder's comparison-sort fallback), and the
// empty and one-sample groups.
func viewGroups(t *testing.T) map[string][]Sample {
	t.Helper()
	samples := simulated(t)
	groups := map[string][]Sample{
		"multi-network": samples,
		"empty":         {},
		"one-sample":    samples[:1],
	}
	for i, g := range networkChunks(t, samples) {
		groups[fmt.Sprintf("network-%d", i)] = g
	}
	n := 0
	feedLinkChunks(t, samples, 16, func(v *GroupView) {
		if n%7 == 0 {
			groups[fmt.Sprintf("sub-chunk-%d", n)] = v.samples
		}
		n++
	})
	for i, g := range shuffledChunks(t, samples, 5)[:2] {
		groups[fmt.Sprintf("shuffled-%d", i)] = g
	}
	wide := append([]Sample(nil), samples...)
	r := rand.New(rand.NewSource(9))
	for i := range wide {
		wide[i].From *= 3 * maxCountSpan
		if r.Intn(2) == 0 {
			wide[i].SNR -= 2 * maxCountSpan
		}
	}
	groups["wide"] = wide
	return groups
}

// TestGroupViewOrdersMatchChunkOrder is the view's oracle: every cached
// order, and its runs, equals a fresh chunkOrder.sort of each segment, and
// a second request returns the cached slices instead of sorting again.
func TestGroupViewOrdersMatchChunkOrder(t *testing.T) {
	for name, group := range viewGroups(t) {
		v := NewGroupView(group)
		for _, k := range viewKeys {
			wantIdx, wantRuns := freshOrder(group, k.scope, k.bySNR)
			idx, runs := v.cells(k.scope, k.bySNR)
			if !slices.Equal(idx, wantIdx) {
				t.Fatalf("%s, %v bySNR=%v: view order differs from chunkOrder.sort", name, k.scope, k.bySNR)
			}
			if !slices.Equal(runs, wantRuns) {
				t.Fatalf("%s, %v bySNR=%v: view runs %v, want %v", name, k.scope, k.bySNR, runs, wantRuns)
			}
			again, _ := v.cells(k.scope, k.bySNR)
			if len(idx) > 0 && &again[0] != &idx[0] {
				t.Fatalf("%s, %v bySNR=%v: a second request sorted again", name, k.scope, k.bySNR)
			}
		}
	}
}

// TestGroupViewConcurrentCores: cores asking for every order at once from
// many goroutines get the referee's orders, one sort per key (run under
// -race, this also checks the once-guards).
func TestGroupViewConcurrentCores(t *testing.T) {
	group := simulated(t)
	v := NewGroupView(group)
	var wg sync.WaitGroup
	got := make([][]int32, 4*len(viewKeys))
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k := viewKeys[g%len(viewKeys)]
			got[g], _ = v.cells(k.scope, k.bySNR)
		}()
	}
	wg.Wait()
	for g, idx := range got {
		k := viewKeys[g%len(viewKeys)]
		want, _ := freshOrder(group, k.scope, k.bySNR)
		if !slices.Equal(idx, want) {
			t.Fatalf("%v bySNR=%v: concurrent view order differs", k.scope, k.bySNR)
		}
		if first := got[g%len(viewKeys)]; &first[0] != &idx[0] {
			t.Fatalf("%v bySNR=%v: sorted more than once", k.scope, k.bySNR)
		}
	}
}

func BenchmarkGroupView(b *testing.B) {
	var groups [][]Sample
	_ = ForEachSampleGroup(simulated(b), func(g []Sample) error {
		groups = append(groups, g)
		return nil
	})
	b.ReportAllocs()
	for b.Loop() {
		for _, g := range groups {
			v := NewGroupView(g)
			for _, k := range viewKeys {
				v.cells(k.scope, k.bySNR)
			}
			v.levelsOf(gridFor(7))
		}
	}
}
