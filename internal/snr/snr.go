// Package snr implements the thesis's §4 bit-rate analysis: how well the
// SNR of a link predicts its optimal bit rate, as a function of how
// specifically the SNR→rate look-up table is trained (globally, per
// network, per AP, or per link), what the throughput penalty of a
// suboptimal choice is, and how cheap online table-building strategies
// compare.
package snr

import (
	"fmt"
	"sort"
	"strconv"

	"meshlab/internal/dataset"
	"meshlab/internal/phy"
)

// Sample is one probe set flattened for rate analysis: the per-rate
// throughputs and the optimal rate Popt (the rate maximizing
// bitrate × success, §4.1).
type Sample struct {
	// Net is the network name; From/To identify the directed link.
	Net      string
	From, To int
	// T is the probe set's time and SNR its integer median SNR.
	T   int32
	SNR int
	// Tput is the throughput per band rate index; rates missing from the
	// probe set hold NaN-free zero (they delivered nothing).
	Tput []float64
	// Popt is the rate index with the highest throughput, and BestTput
	// that throughput.
	Popt     int
	BestTput float64
}

// Flatten converts probe data from networks (all on the same band) into
// samples, skipping probe sets where no rate delivered anything. The band
// of the first network is used for rate resolution. For a network-at-a-time
// source (e.g. a streaming wire.Reader) use Flattener, which produces the
// same samples without requiring the whole fleet in memory.
func Flatten(nets []*dataset.NetworkData) ([]Sample, error) {
	if len(nets) == 0 {
		return nil, nil
	}
	band, err := nets[0].Band()
	if err != nil {
		return nil, err
	}
	// Size the sample list and one flat throughput backing array up front:
	// per-sample Tput allocations dominated this function's cost.
	total := 0
	for _, nd := range nets {
		for _, l := range nd.Links {
			total += len(l.Sets)
		}
	}
	nr := len(band.Rates)
	out := make([]Sample, 0, total)
	flat := make([]float64, total*nr)
	off := 0
	for _, nd := range nets {
		if nd.Info.Band != band.Name {
			return nil, fmt.Errorf("snr: mixed bands %q and %q", band.Name, nd.Info.Band)
		}
		out, off = flattenNetwork(out, flat, off, nd, band)
	}
	return out, nil
}

// flattenNetwork appends one network's flattened probe sets to out, backing
// each sample's Tput row with flat[off:]. flat must have capacity for one
// row per remaining probe set. It returns the grown slice and new offset.
func flattenNetwork(out []Sample, flat []float64, off int, nd *dataset.NetworkData, band phy.Band) ([]Sample, int) {
	nr := len(band.Rates)
	for _, l := range nd.Links {
		for i := range l.Sets {
			ps := &l.Sets[i]
			row := flat[off : off+nr : off+nr]
			popt, best, ok := FlattenSet(row, ps, band)
			if !ok {
				continue
			}
			off += nr
			out = append(out, Sample{
				Net: nd.Info.Name, From: l.From, To: l.To,
				T: ps.T, SNR: int(ps.SNR),
				Tput: row, Popt: popt, BestTput: best,
			})
		}
	}
	return out, off
}

// ChunkRows is the target size, in samples, of a link-aligned sub-chunk:
// the unit in which a network too large to hold whole reaches the
// chunked §4 cores, both from a file's flat-sample section (wire) and
// from a walk that flattens each network (FlattenChunks). Chunks split
// only where a new directed link begins (the chunk contract in
// chunked.go), so a chunk can exceed ChunkRows by at most one link's
// samples. A var so tests can lower it, to a positive value, to
// exercise the splitting on small fleets.
var ChunkRows = 1 << 15

// FlattenChunks flattens one network's probe sets, link by link, into
// link-aligned chunks of about ChunkRows samples and hands each to fn in
// order; concatenated, the chunks are exactly Flatten's samples for the
// network. Every call gets at least one chunk (an empty one for a network
// without samples). Each chunk has its own backing arrays, never reused,
// because a chunked core may keep a reference to the last chunk it
// observed. fn errors abort the walk.
func FlattenChunks(nd *dataset.NetworkData, fn func(chunk []Sample) error) error {
	band, err := nd.Band()
	if err != nil {
		return err
	}
	nr := len(band.Rates)
	size := ChunkRows
	// left counts the probe sets not yet flattened: it bounds every
	// allocation by what the network can still yield.
	left := 0
	for _, l := range nd.Links {
		left += len(l.Sets)
	}
	var chunk []Sample
	var flat []float64
	emitted := false
	for _, l := range nd.Links {
		if len(chunk) >= size {
			if err := fn(chunk); err != nil {
				return err
			}
			chunk, emitted = nil, true
		}
		for i := range l.Sets {
			if len(flat) < nr {
				flat = make([]float64, min(left, size)*nr)
			}
			if chunk == nil {
				chunk = make([]Sample, 0, min(left, size))
			}
			left--
			ps := &l.Sets[i]
			row := flat[:nr:nr]
			popt, best, ok := FlattenSet(row, ps, band)
			if !ok {
				continue
			}
			flat = flat[nr:]
			chunk = append(chunk, Sample{
				Net: nd.Info.Name, From: l.From, To: l.To,
				T: ps.T, SNR: int(ps.SNR),
				Tput: row, Popt: popt, BestTput: best,
			})
		}
	}
	if len(chunk) > 0 || !emitted {
		return fn(chunk)
	}
	return nil
}

// FlattenSet is the per-probe-set kernel behind every flattened sample:
// it writes the set's throughput per band rate index into row (len
// ≥ the band's rate count, all zero on entry) and returns the optimal
// rate index and its throughput. A set where no rate delivered anything
// is discarded: ok is false and row is zero again, so the caller can
// reuse it for the next set. Rate indices must be in range for band.
func FlattenSet(row []float64, ps *dataset.ProbeSet, band phy.Band) (popt int, best float64, ok bool) {
	popt = -1
	for _, o := range ps.Obs {
		tp := band.Rates[o.RateIdx].Throughput(float64(o.Loss))
		row[o.RateIdx] = tp
		if tp > best {
			best = tp
			popt = int(o.RateIdx)
		}
	}
	if popt < 0 || best <= 0 {
		for _, o := range ps.Obs {
			row[o.RateIdx] = 0
		}
		return -1, 0, false
	}
	return popt, best, true
}

// Flattener is the incremental form of Flatten: networks are added one at
// a time and only the flattened samples are retained, so a streaming
// caller's peak memory is one network plus the samples — not the fleet.
// Adding the networks of a band in fleet order yields exactly the samples
// Flatten returns for that band.
type Flattener struct {
	band    phy.Band
	samples []Sample
}

// NewFlattener returns a Flattener for one band's networks.
func NewFlattener(band phy.Band) *Flattener {
	return &Flattener{band: band}
}

// Add flattens one network's probe sets. The network must be on the
// flattener's band.
func (f *Flattener) Add(nd *dataset.NetworkData) error {
	if nd.Info.Band != f.band.Name {
		return fmt.Errorf("snr: flattener for band %q got network %s on band %q",
			f.band.Name, nd.Info.Name, nd.Info.Band)
	}
	total := 0
	for _, l := range nd.Links {
		total += len(l.Sets)
	}
	if total == 0 {
		return nil
	}
	// One backing array per network: the Tput rows of a network's samples
	// stay contiguous, mirroring Flatten's layout at network granularity.
	flat := make([]float64, total*len(f.band.Rates))
	f.samples, _ = flattenNetwork(f.samples, flat, 0, nd, f.band)
	return nil
}

// Samples returns every sample added so far.
func (f *Flattener) Samples() []Sample { return f.samples }

// Scope is the specificity of a look-up table's training environment
// (§4.1's three options plus the global base case).
type Scope int

const (
	// Global trains one table over every link in every network.
	Global Scope = iota
	// Network trains one table per network.
	Network
	// AP trains one table per sending AP.
	AP
	// Link trains one table per directed link.
	Link
)

// String names the scope as the thesis figures do.
func (s Scope) String() string {
	switch s {
	case Global:
		return "global"
	case Network:
		return "network"
	case AP:
		return "ap"
	case Link:
		return "link"
	default:
		return fmt.Sprintf("Scope(%d)", int(s))
	}
}

// Scopes lists all four scopes in increasing specificity.
var Scopes = []Scope{Global, Network, AP, Link}

// Key returns the table-instance key a sample belongs to under the scope.
// It is called once per sample per table operation, so it avoids
// fmt.Sprintf in favor of direct string building.
func (s Scope) Key(sm *Sample) string {
	switch s {
	case Global:
		return ""
	case Network:
		return sm.Net
	case AP:
		return sm.Net + "/" + strconv.Itoa(sm.From)
	default:
		return sm.Net + "/" + strconv.Itoa(sm.From) + ">" + strconv.Itoa(sm.To)
	}
}

// instKey identifies one table instance without building a string: maps
// hash the struct directly, which keeps the per-sample Train/Lookup path
// allocation-free. Fields unused by the table's scope stay zero.
type instKey struct {
	net      string
	from, to int32
}

// instKey returns the comparable table-instance key for the scope.
func (s Scope) instKey(sm *Sample) instKey {
	switch s {
	case Global:
		return instKey{}
	case Network:
		return instKey{net: sm.Net}
	case AP:
		return instKey{net: sm.Net, from: int32(sm.From)}
	default:
		return instKey{net: sm.Net, from: int32(sm.From), to: int32(sm.To)}
	}
}

// Table is an SNR→bit-rate look-up table family: one distribution of
// observed optimal rates per (instance key, SNR).
type Table struct {
	// Scope is the training specificity.
	Scope Scope
	// NumRates is the band's rate count.
	NumRates int

	counts map[instKey]map[int][]int
}

// Train builds the look-up tables for the given scope from samples.
func Train(samples []Sample, numRates int, scope Scope) *Table {
	t := &Table{Scope: scope, NumRates: numRates, counts: make(map[instKey]map[int][]int)}
	for i := range samples {
		t.Add(&samples[i])
	}
	return t
}

// Add incorporates one sample into the table.
func (t *Table) Add(sm *Sample) { t.cell(sm)[sm.Popt]++ }

// addCounts adds per-rate optimal counts to the sample's (instance, SNR)
// cell, as if each counted sample had been added.
func (t *Table) addCounts(sm *Sample, counts []int) {
	c := t.cell(sm)
	for ri, n := range counts {
		c[ri] += n
	}
}

// cell returns the sample's (instance, SNR) count row, creating it.
func (t *Table) cell(sm *Sample) []int {
	key := t.Scope.instKey(sm)
	bySNR, ok := t.counts[key]
	if !ok {
		bySNR = make(map[int][]int)
		t.counts[key] = bySNR
	}
	c, ok := bySNR[sm.SNR]
	if !ok {
		c = make([]int, t.NumRates)
		bySNR[sm.SNR] = c
	}
	return c
}

// Lookup predicts the optimal rate index for a sample's key and SNR: the
// most frequently optimal rate seen in training, ties broken toward the
// lower rate index for determinism. ok is false when the table has no data
// for that (key, SNR).
func (t *Table) Lookup(sm *Sample) (rateIdx int, ok bool) {
	bySNR, ok := t.counts[t.Scope.instKey(sm)]
	if !ok {
		return 0, false
	}
	c, ok := bySNR[sm.SNR]
	if !ok {
		return 0, false
	}
	best, bestN := -1, 0
	for ri, n := range c {
		if n > bestN {
			best, bestN = ri, n
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// Instances returns the number of table instances (1 for Global, #networks
// for Network, …).
func (t *Table) Instances() int { return len(t.counts) }

// Entries returns the total number of (instance, SNR) cells.
func (t *Table) Entries() int {
	total := 0
	for _, bySNR := range t.counts {
		total += len(bySNR)
	}
	return total
}

// coverageNeeds returns the minimum number of distinct rates whose
// combined optimal-frequency reaches 50%, 80%, and 95% of the cell's
// observations. One ascending sort into the caller's scratch buffer
// serves all three levels; the walk runs from the largest count down.
func coverageNeeds(c []int, total int, scratch []int) (n50, n80, n95 int) {
	if total == 0 {
		return 0, 0, 0
	}
	s := scratch[:len(c)]
	copy(s, c)
	sort.Ints(s)
	need50 := 0.50 * float64(total)
	need80 := 0.80 * float64(total)
	need95 := 0.95 * float64(total)
	covered, rates := 0.0, 0
	n50, n80, n95 = -1, -1, -1
	// total is the sum of c (the caller computes it from the same cell),
	// so the descending walk always resolves every level before running
	// out of counts: covered reaches exactly float64(total) ≥ need95.
	for i := len(s) - 1; n95 < 0; i-- {
		covered += float64(s[i])
		rates++
		if n50 < 0 && covered >= need50 {
			n50 = rates
		}
		if n80 < 0 && covered >= need80 {
			n80 = rates
		}
		if n95 < 0 && covered >= need95 {
			n95 = rates
		}
	}
	return n50, n80, n95
}

// CoverageRow is one point of Figures 4.2/4.3: at a given SNR, the average
// (over table instances with data at that SNR) number of unique rates
// needed to pick the optimal rate p of the time.
type CoverageRow struct {
	SNR int
	// NeedP50, NeedP80, NeedP95 are the mean rates needed for 50%, 80%,
	// and 95% coverage.
	NeedP50, NeedP80, NeedP95 float64
	// MaxP95 is the worst instance's 95% requirement.
	MaxP95 int
	// Cells is the number of instances contributing at this SNR.
	Cells int
}

// Coverage computes the unique-rates-needed curves for a trained table.
// Cells with fewer than minObs observations are ignored (they cannot
// estimate a 95th percentile). The fold is shared with the incremental
// CoverageAccum, which produces identical rows one network group at a
// time.
func (t *Table) Coverage(minObs int) []CoverageRow {
	agg := newCoverageAgg(t.NumRates, minObs)
	for _, inst := range t.counts {
		for snrVal, c := range inst {
			agg.addCell(snrVal, c)
		}
	}
	return agg.rows()
}

// OptimalRateSets returns, per SNR, the set of rate indices that were ever
// optimal anywhere in the data (Figure 4.1). It is the batch form of
// RateSetAccum.
func OptimalRateSets(samples []Sample) map[int][]int {
	acc := NewRateSetAccum()
	acc.ObserveGroup(NewGroupView(samples))
	return acc.Finalize()
}

// PenaltyResult is the per-scope outcome of the §4.3 analysis.
type PenaltyResult struct {
	Scope Scope
	// Diffs holds, per evaluated probe set, the throughput lost by using
	// the table's prediction instead of the optimal rate (Mbit/s ≥ 0),
	// sorted ascending — the distribution is what Figure 4.4 plots, and a
	// pre-sorted sample lets stats.NewCDF skip its own sort.
	Diffs []float64
	// ExactFrac is the fraction of probe sets where the prediction was
	// exactly optimal.
	ExactFrac float64
}

// Penalty trains a table at each scope on the full sample set and replays
// every sample through it, recording the throughput difference between the
// optimal rate and the predicted rate (Figure 4.4). Training and
// evaluation use the same data, matching the thesis's in-sample
// methodology. It is the batch form of PenaltyAccum: the samples are fed
// through the incremental core one network group at a time (scopes fan
// across the process worker budget inside the core), then the counted
// distributions are materialized into sorted Diffs slices. Results come
// back in scope argument order, so the output is deterministic.
//
// The samples must be in Flatten order — each network's samples
// contiguous, each directed link's samples contiguous within it — which
// everything that produces samples in this repository (Flatten,
// Flattener, the wire section) guarantees. Reordered input would
// fragment the incremental core's per-network resolution.
func Penalty(samples []Sample, numRates int, scopes []Scope) []PenaltyResult {
	acc := NewPenaltyAccum(numRates, scopes)
	_ = ForEachSampleGroup(samples, func(group []Sample) error {
		acc.ObserveGroup(NewGroupView(group))
		return nil
	})
	return acc.Finalize()
}

// TputPoint is one (rate, SNR) cell of Figure 4.5.
type TputPoint struct {
	RateIdx int
	SNR     int
	Median  float64
	Q1, Q3  float64
	N       int
}

// ThroughputVsSNR aggregates per-rate throughput by SNR (Figure 4.5).
// Only cells with at least minObs observations are returned.
//
// Every sample contributes one observation to each rate's cell at its
// SNR, so cell sizes are a pure function of the per-SNR sample histogram.
// The cells live in one flat counted-layout buffer (rate-major, then SNR)
// instead of a map of append-grown slices: count, prefix-sum, fill, then
// one sort per cell.
func ThroughputVsSNR(samples []Sample, numRates, minObs int) []TputPoint {
	if len(samples) == 0 || numRates == 0 {
		return nil
	}
	minSNR, maxSNR := samples[0].SNR, samples[0].SNR
	for i := range samples {
		if s := samples[i].SNR; s < minSNR {
			minSNR = s
		} else if s > maxSNR {
			maxSNR = s
		}
	}
	width := maxSNR - minSNR + 1
	hist := make([]int, width)
	for i := range samples {
		hist[samples[i].SNR-minSNR]++
	}
	nCells := numRates * width
	offs := make([]int, nCells+1)
	pos := 0
	for ri := 0; ri < numRates; ri++ {
		for s := 0; s < width; s++ {
			offs[ri*width+s] = pos
			pos += hist[s]
		}
	}
	offs[nCells] = pos
	vals := make([]float64, pos)
	fill := make([]int, nCells)
	copy(fill, offs[:nCells])
	for i := range samples {
		s := &samples[i]
		base := s.SNR - minSNR
		for ri := 0; ri < numRates; ri++ {
			c := ri*width + base
			vals[fill[c]] = s.Tput[ri]
			fill[c]++
		}
	}
	occupied := 0
	for _, h := range hist {
		if h >= minObs && h > 0 {
			occupied++
		}
	}
	out := make([]TputPoint, 0, occupied*numRates)
	for ri := 0; ri < numRates; ri++ {
		for s := 0; s < width; s++ {
			cell := vals[offs[ri*width+s]:offs[ri*width+s+1]]
			if len(cell) == 0 || len(cell) < minObs {
				continue
			}
			sort.Float64s(cell)
			q := func(p float64) float64 {
				pos := p * float64(len(cell)-1)
				lo := int(pos)
				hi := lo
				if lo+1 < len(cell) {
					hi = lo + 1
				}
				frac := pos - float64(lo)
				return cell[lo]*(1-frac) + cell[hi]*frac
			}
			out = append(out, TputPoint{
				RateIdx: ri, SNR: minSNR + s,
				Median: q(0.5), Q1: q(0.25), Q3: q(0.75), N: len(cell),
			})
		}
	}
	return out
}

// Band re-exports the band a caller flattened against, for convenience in
// printing rate names.
func BandRates(band phy.Band) []string {
	names := make([]string, len(band.Rates))
	for i, r := range band.Rates {
		names[i] = r.Name
	}
	return names
}
