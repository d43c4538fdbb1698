package snr

import (
	"reflect"
	"testing"
)

func TestTopKOrderingAndTies(t *testing.T) {
	mk := func(popt int) Sample {
		return Sample{Net: "n", From: 0, To: 1, SNR: 25, Popt: popt, Tput: make([]float64, 7)}
	}
	samples := []Sample{mk(3), mk(3), mk(3), mk(5), mk(5), mk(1)}
	tbl := Train(samples, 7, Link)
	rates, ok := tbl.TopK(&samples[0], 2)
	if !ok {
		t.Fatal("cell should exist")
	}
	if len(rates) != 2 || rates[0] != 3 || rates[1] != 5 {
		t.Fatalf("top-2 = %v, want [3 5]", rates)
	}
	// k larger than distinct rates: returns what exists.
	rates, _ = tbl.TopK(&samples[0], 10)
	if len(rates) != 3 {
		t.Fatalf("top-10 returned %v, want 3 distinct rates", rates)
	}
	// k < 1 clamps to 1.
	rates, _ = tbl.TopK(&samples[0], 0)
	if len(rates) != 1 || rates[0] != 3 {
		t.Fatalf("top-0 = %v, want [3]", rates)
	}
}

func TestTopKMissingCell(t *testing.T) {
	tbl := Train(nil, 7, Link)
	s := Sample{Net: "n", From: 0, To: 1, SNR: 25}
	if _, ok := tbl.TopK(&s, 2); ok {
		t.Fatal("missing cell should report !ok")
	}
}

func TestTopKTieBreaksLowIndex(t *testing.T) {
	mk := func(popt int) Sample {
		return Sample{Net: "n", From: 0, To: 1, SNR: 25, Popt: popt, Tput: make([]float64, 7)}
	}
	samples := []Sample{mk(6), mk(2)}
	tbl := Train(samples, 7, Link)
	rates, _ := tbl.TopK(&samples[0], 1)
	if rates[0] != 2 {
		t.Fatalf("tie should prefer the lower rate index, got %v", rates)
	}
}

func TestTopKCoverageMonotoneInK(t *testing.T) {
	samples := simulated(t)
	results := TopKCoverage(samples, 7, Link, []int{1, 2, 3, 7})
	prev := -1.0
	for _, r := range results {
		if r.HitFrac < prev {
			t.Fatalf("hit fraction must be non-decreasing in k: %v after %v", r.HitFrac, prev)
		}
		prev = r.HitFrac
		if r.Evaluated == 0 {
			t.Fatal("nothing evaluated")
		}
	}
	// k = numRates covers everything by construction.
	if last := results[len(results)-1]; last.HitFrac < 0.999 {
		t.Fatalf("k=numRates hit fraction %v, want 1", last.HitFrac)
	}
	// Small candidate sets should already capture most optima on
	// per-link tables (§4.5's argument).
	if results[1].HitFrac < 0.75 {
		t.Fatalf("top-2 hit fraction %v too low for per-link tables", results[1].HitFrac)
	}
}

func TestTopKProbeReduction(t *testing.T) {
	results := TopKCoverage(simulated(t), 7, Link, []int{2, 9})
	if results[0].ProbeReduction != 1-2.0/7 {
		t.Fatalf("probe reduction %v, want %v", results[0].ProbeReduction, 1-2.0/7)
	}
	if results[1].ProbeReduction != 0 {
		t.Fatalf("k beyond the rate count should save nothing, got %v", results[1].ProbeReduction)
	}
}

// referenceTopK is the Table.TopK-driven evaluation TopKAccum's dense
// kernel replaced, kept as its oracle: each chunk trains a Link-scope
// table and tests every sample's optimum against its cell's top-k list.
func referenceTopK(chunks [][]Sample, numRates int, ks []int) []TopKResult {
	hits, evaluated := make([]int, len(ks)), make([]int, len(ks))
	for _, c := range chunks {
		tbl := Train(c, numRates, Link)
		for ki, k := range ks {
			for i := range c {
				cands, ok := tbl.TopK(&c[i], k)
				if !ok {
					continue
				}
				evaluated[ki]++
				for _, ri := range cands {
					if ri == c[i].Popt {
						hits[ki]++
						break
					}
				}
			}
		}
	}
	out := make([]TopKResult, len(ks))
	for ki, k := range ks {
		out[ki] = topKResult(k, numRates, hits[ki], evaluated[ki])
	}
	return out
}

// TestTopKAccumMatchesTableTopK pins the dense rank kernel against
// Table.TopK at ks up to the full rate set, over whole-network,
// link-aligned sub-chunk, and shuffled (links interleaved) feeds.
func TestTopKAccumMatchesTableTopK(t *testing.T) {
	samples := simulated(t)
	ks := []int{1, 2, 3, 7}
	feeds := map[string][][]Sample{
		"networks": networkChunks(t, samples),
		"shuffled": shuffledChunks(t, samples, 3),
	}
	var sub [][]Sample
	feedLinkChunks(t, samples, 16, func(v *GroupView) { sub = append(sub, v.samples) })
	feeds["sub-chunks"] = sub
	for name, chunks := range feeds {
		want := referenceTopK(chunks, 7, ks)
		acc := NewTopKAccum(7, ks)
		for _, c := range chunks {
			acc.ObserveGroup(NewGroupView(c))
		}
		if got := acc.Finalize(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: dense top-k diverges from Table.TopK\n got %+v\nwant %+v", name, got, want)
		}
	}
}

// TestTopKNormalizesK: a k below 1 is a one-rate candidate set, so its
// row must report k=1's hits and probe reduction, in both the chunked
// core and the batch form; the caller's ks are not modified.
func TestTopKNormalizesK(t *testing.T) {
	samples := simulated(t)
	ks := []int{0, -2, 1}
	numRates := 7
	acc := NewTopKAccum(numRates, ks)
	feedGroups(t, samples, acc.ObserveGroup)
	for name, rows := range map[string][]TopKResult{
		"accum": acc.Finalize(),
		"batch": TopKCoverage(samples, numRates, Link, ks),
	} {
		for i, r := range rows {
			if r.K != 1 || r != rows[2] {
				t.Fatalf("%s: row %d = %+v, want the k=1 row %+v", name, i, r, rows[2])
			}
		}
		if want := 1 - 1/float64(numRates); rows[0].ProbeReduction != want {
			t.Fatalf("%s: k=0 probe reduction %v, want %v", name, rows[0].ProbeReduction, want)
		}
	}
	if ks[0] != 0 || ks[1] != -2 {
		t.Fatalf("caller's ks modified: %v", ks)
	}
}

func BenchmarkTopKAccum(b *testing.B) {
	samples := simulated(b)
	ks := []int{1, 2, 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc := NewTopKAccum(7, ks)
		_ = ForEachSampleGroup(samples, func(g []Sample) error {
			acc.ObserveGroup(NewGroupView(g))
			return nil
		})
		_ = acc.Finalize()
	}
}
