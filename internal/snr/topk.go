package snr

// This file implements the thesis's §4.5 augmented-table analysis: instead
// of trusting the single most-frequent optimal rate per (link, SNR), keep
// the top-k rates and let a probing algorithm (e.g. SampleRate) explore
// only those. The quantity of interest is how often the true optimum falls
// inside the candidate set — if it almost always does, probing overhead
// drops by the ratio of the candidate set to the full rate set, which is
// the thesis's main hope for 802.11n and its "several dozen" rates.

import (
	"slices"
	"sort"
)

// TopK returns the k most frequently optimal rate indices for the
// sample's (scope key, SNR) cell, most frequent first. ok is false when
// the cell has no data. Ties break toward the lower rate index.
func (t *Table) TopK(sm *Sample, k int) (rates []int, ok bool) {
	if k < 1 {
		k = 1
	}
	bySNR, ok := t.counts[t.Scope.instKey(sm)]
	if !ok {
		return nil, false
	}
	c, ok := bySNR[sm.SNR]
	if !ok {
		return nil, false
	}
	type rc struct{ ri, n int }
	var nonzero []rc
	for ri, n := range c {
		if n > 0 {
			nonzero = append(nonzero, rc{ri, n})
		}
	}
	if len(nonzero) == 0 {
		return nil, false
	}
	sort.Slice(nonzero, func(a, b int) bool {
		if nonzero[a].n != nonzero[b].n {
			return nonzero[a].n > nonzero[b].n
		}
		return nonzero[a].ri < nonzero[b].ri
	})
	if len(nonzero) > k {
		nonzero = nonzero[:k]
	}
	rates = make([]int, len(nonzero))
	for i, v := range nonzero {
		rates[i] = v.ri
	}
	return rates, true
}

// TopKResult summarizes the candidate-set analysis at one k.
type TopKResult struct {
	K int
	// HitFrac is the fraction of probe sets whose true optimal rate is
	// inside the top-K candidate set of their cell.
	HitFrac float64
	// Evaluated counts the probe sets with table data.
	Evaluated int
	// ProbeReduction is 1 − K/numRates: how much probing a
	// candidate-restricted prober saves versus probing every rate.
	ProbeReduction float64
}

// TopKCoverage trains a table at the given scope and evaluates, for each
// k, how often the optimum lies in the top-k candidate set (in-sample, as
// §4 does throughout). A k below 1 means 1, as in Table.TopK.
func TopKCoverage(samples []Sample, numRates int, scope Scope, ks []int) []TopKResult {
	tbl := Train(samples, numRates, scope)
	out := make([]TopKResult, 0, len(ks))
	for _, k := range normalizeKs(ks) {
		hits, evaluated := 0, 0
		for i := range samples {
			s := &samples[i]
			cands, ok := tbl.TopK(s, k)
			if !ok {
				continue
			}
			evaluated++
			if slices.Contains(cands, s.Popt) {
				hits++
			}
		}
		out = append(out, topKResult(k, numRates, hits, evaluated))
	}
	return out
}

// topKResult assembles one k's row from its counts.
func topKResult(k, numRates, hits, evaluated int) TopKResult {
	res := TopKResult{K: k, Evaluated: evaluated}
	if evaluated > 0 {
		res.HitFrac = float64(hits) / float64(evaluated)
	}
	if numRates > 0 {
		res.ProbeReduction = max(1-float64(k)/float64(numRates), 0)
	}
	return res
}
