package snr

import (
	"math"
	"reflect"
	"testing"
)

// TestDiffHistSignedZeroIsOneKey: like the float64-keyed map it replaced,
// the histogram counts −0 and +0 as one value, reported as +0.
func TestDiffHistSignedZeroIsOneKey(t *testing.T) {
	var h diffHist
	h.add(math.Copysign(0, -1), 2)
	h.add(0, 3)
	h.add(1.5, 1)
	live := h.sorted()
	if len(live) != 2 || live[0].n != 5 || live[0].bits != 0 || live[1].value() != 1.5 {
		t.Fatalf("±0 not merged into one +0 key: %+v", live)
	}
	if got := h.freeze().Materialize(); len(got) != 6 || math.Signbit(got[0]) {
		t.Fatalf("materialized %v, want five +0s then 1.5", got)
	}
}

// TestDiffHistCountsNaNApart: NaNs never enter the table; they are
// counted on the side and sort first, as sort.Float64s orders them.
func TestDiffHistCountsNaNApart(t *testing.T) {
	var h diffHist
	h.add(math.NaN(), 2)
	h.add(math.Float64frombits(emptyKey), 1) // the empty-slot pattern is a NaN too
	h.add(2, 1)
	if h.nan != 3 || h.used != 1 {
		t.Fatalf("nan=%d used=%d, want 3 NaNs and one keyed value", h.nan, h.used)
	}
	d := h.freeze()
	if d.N() != 4 || !math.IsNaN(d.Quantile(0)) || d.Quantile(1) != 2 {
		t.Fatalf("NaN-first counted form wrong: %v", d.Materialize())
	}
}

// TestDiffHistGrowth: filling the table far past its initial size keeps
// every count, through merges and a snapshot round trip too.
func TestDiffHistGrowth(t *testing.T) {
	var h, o diffHist
	want := map[float64]int64{}
	for i := 0; i < 40*minSlots; i++ {
		v := float64(i%300) * 0.25
		h.add(v, int64(i%7+1))
		want[v] += int64(i%7 + 1)
	}
	for i := 0; i < 50; i++ {
		o.add(float64(1000+i), 2)
		want[float64(1000+i)] += 2
	}
	h.merge(&o)
	if len(h.slots) <= minSlots || 4*h.used > 3*len(h.slots) {
		t.Fatalf("%d keys in %d slots: table did not grow within its load bound", h.used, len(h.slots))
	}
	got := map[float64]int64{}
	prev := math.Inf(-1)
	for _, sl := range h.sorted() {
		if sl.value() <= prev {
			t.Fatalf("sorted() out of order at %v", sl.value())
		}
		prev = sl.value()
		got[sl.value()] = sl.n
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("grown table lost counts: %d keys, want %d", len(got), len(want))
	}
}

// TestChunkOrderGroupsStably: for every scope, the order groups each
// instance (and each (instance, SNR) cell) into one run and keeps chunk
// order within a run — on shuffled input, and on the comparison-sort
// fallback that a node id span beyond maxCountSpan takes.
func TestChunkOrderGroupsStably(t *testing.T) {
	chunk := shuffledChunks(t, simulated(t), 4)[0]
	wide := append([]Sample(nil), chunk...)
	for i := range wide {
		wide[i].From *= 3 * maxCountSpan
	}
	var o chunkOrder
	for name, group := range map[string][]Sample{"counting": chunk, "fallback": wide} {
		for _, sc := range Scopes {
			for _, bySNR := range []bool{false, true} {
				idx := o.sort(group, sc, bySNR)
				if len(idx) != len(group) {
					t.Fatalf("%s/%v: %d indices for %d samples", name, sc, len(idx), len(group))
				}
				type key struct {
					inst string
					snr  int
				}
				closed := map[key]bool{}
				for start := 0; start < len(idx); {
					end := runEnd(group, idx, start, sc, bySNR)
					s0 := &group[idx[start]]
					k := key{inst: sc.Key(s0)}
					if bySNR {
						k.snr = s0.SNR
					}
					if closed[k] {
						t.Fatalf("%s/%v/bySNR=%v: run %+v appears twice", name, sc, bySNR, k)
					}
					closed[k] = true
					for j := start + 1; j < end; j++ {
						if idx[j] <= idx[j-1] {
							t.Fatalf("%s/%v/bySNR=%v: run not in chunk order", name, sc, bySNR)
						}
					}
					start = end
				}
			}
		}
	}
}

// runEnd returns the end of the run that starts at idx[start]: the
// samples sharing its scope instance and, when bySNR, its SNR.
func runEnd(group []Sample, idx []int32, start int, scope Scope, bySNR bool) int {
	s0 := &group[idx[start]]
	end := start + 1
	for ; end < len(idx); end++ {
		s := &group[idx[end]]
		if bySNR && s.SNR != s0.SNR || !scope.sameInst(s, s0) {
			break
		}
	}
	return end
}

// sameInst reports whether two samples of one network train the same
// table instance under the scope.
func (s Scope) sameInst(a, b *Sample) bool {
	switch s {
	case Link:
		return a.From == b.From && a.To == b.To
	case AP:
		return a.From == b.From
	}
	return true
}
