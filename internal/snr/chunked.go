package snr

// chunked.go implements the incremental (chunk-consuming) cores of the §4
// analyses. Each accumulator consumes sample chunks via ObserveGroup and
// retains only flat count/histogram tables — never the raw samples — so
// a streaming caller's peak memory is bounded by table size, not sample
// count. The batch entry points (Penalty, ReplayStrategies,
// OptimalRateSets) are thin wrappers over these cores, and the
// chunked-vs-batch oracle tests pin both forms bit-exact against the
// reference table replays.
//
// The chunk contract, shared by every accumulator here: chunks arrive in
// section order; one network's chunks are consecutive; and a directed
// link's samples never split across chunks. A whole network is always a
// valid chunk (ForEachSampleGroup), and both wire.SampleGroups and a
// walk's FlattenChunks split large networks into chunks of about
// ChunkRows samples at link boundaries, so no single network's samples
// ever need to be resident at once. A chunk reaches the cores as a GroupView (view.go),
// built once by the feeding goroutine and read by every core. An
// accumulator may keep a reference to the most recently observed view
// until the next ObserveGroup or Finalize call (the held-first-chunk fast
// path below), so callers must not recycle chunk backing arrays.
//
// Two facts make exact chunked results cheap. First, quantization: a
// sample's per-rate throughput is rate.Throughput(loss) where loss is
// the probe window's 1/ProbesPerRate-quantized delivery fraction, so
// each rate's throughput — and every derived penalty difference — takes
// only a few dozen distinct float64 values. A value→count histogram
// therefore reproduces the full empirical distribution exactly in
// O(distinct) memory, and quantiles computed over the counted multiset
// match quantiles over the materialized sorted slice bit for bit.
// Second, scope locality: Link-scope table cells complete within every
// chunk (links never split), AP- and Network-scope cells complete at the
// network boundary, and only the Global scope's few dozen cells span the
// fleet — so each scope trains, replays, and discards its cells at the
// earliest boundary where they are final, banking quantized penalty
// histograms where replay must wait.
//
// Within a chunk the cores walk cells instead of looking them up: the
// view hands each core its instance order, sorted once per group, in
// which each link, or each (instance, SNR) training cell, is one
// contiguous run. Values are counted by quantization level where they are
// on the grid (quant.go): the throughput rows and the penalty histograms
// and banks count in flat arrays and bytes, and the AP scope logs a split
// network's samples to replay at its boundary. Off-grid values, and every
// histogram the tables are read from, are countTables keyed by float64
// bits (dense.go). The per-sample loops build no map key, string or
// sorted copy.

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"meshlab/internal/conc"
)

// ForEachSampleGroup invokes fn once per maximal run of consecutive
// samples sharing a network name — the per-network groups the flat-sample
// wire section stores and the chunked accumulators consume. Flatten
// output keeps each network contiguous, so feeding it through this
// splitter reproduces the streaming group sequence exactly. fn errors
// abort the walk.
func ForEachSampleGroup(samples []Sample, fn func(group []Sample) error) error {
	for i := 0; i < len(samples); {
		j := i + 1
		for j < len(samples) && samples[j].Net == samples[i].Net {
			j++
		}
		if err := fn(samples[i:j]); err != nil {
			return err
		}
		i = j
	}
	return nil
}

// counted is a sorted, counted multiset of float64s: the exact empirical
// distribution of a quantized sample in O(distinct values) memory. NaNs
// are tracked separately and sort first, mirroring sort.Float64s.
type counted struct {
	nan  int64
	vals []float64 // distinct non-NaN values, ascending
	cum  []int64   // cum[i] = #values ≤ vals[i], NaNs included as a prefix
	n    int64
}

// newCounted freezes a histogram into its sorted counted form.
func newCounted(h *diffHist) *counted {
	c := &counted{nan: h.nan, n: h.nan}
	if live := h.sorted(); len(live) > 0 {
		c.vals = make([]float64, len(live))
		c.cum = make([]int64, len(live))
		run := h.nan
		for i, sl := range live {
			c.vals[i] = sl.value()
			run += sl.n
			c.cum[i] = run
		}
		c.n = run
	}
	return c
}

// at returns the i-th element (0-based) of the virtual sorted slice.
func (c *counted) at(i int64) float64 {
	if i < c.nan {
		return math.NaN()
	}
	// First distinct value whose cumulative count exceeds i.
	lo, hi := 0, len(c.vals)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if c.cum[mid] > i {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return c.vals[lo]
}

// Dist is the counted empirical distribution an incremental penalty core
// produces in place of a materialized, sorted []float64: same quantiles,
// table-sized memory. See PenaltyAccum.
type Dist struct{ c counted }

// N returns the number of observations.
func (d *Dist) N() int { return int(d.c.n) }

// Quantile returns the q-quantile, bit-identical to
// stats.NewCDF(d.Materialize()).Quantile(q).
func (d *Dist) Quantile(q float64) float64 {
	n := d.c.n
	if n == 0 {
		return math.NaN()
	}
	if q < 0 || q > 1 {
		panic("snr: quantile out of [0,1]")
	}
	if n == 1 {
		return d.c.at(0)
	}
	pos := q * float64(n-1)
	lo := int64(math.Floor(pos))
	hi := int64(math.Ceil(pos))
	if lo == hi {
		return d.c.at(lo)
	}
	frac := pos - float64(lo)
	return d.c.at(lo)*(1-frac) + d.c.at(hi)*frac
}

// Materialize expands the distribution into the ascending sorted slice the
// batch form returns (NaNs first, as sort.Float64s orders them).
func (d *Dist) Materialize() []float64 {
	out := make([]float64, 0, d.c.n)
	for i := int64(0); i < d.c.nan; i++ {
		out = append(out, math.NaN())
	}
	prev := d.c.nan
	for i, v := range d.c.vals {
		for k := prev; k < d.c.cum[i]; k++ {
			out = append(out, v)
		}
		prev = d.c.cum[i]
	}
	return out
}

// PenaltyDist is one scope's chunked §4.3 outcome: the penalty
// distribution in counted form plus the exact-hit fraction. It carries
// the same information as PenaltyResult at table-sized memory.
type PenaltyDist struct {
	Scope Scope
	// Diffs is the counted distribution of per-probe-set throughput
	// penalties (clamped at 0, ascending); Diffs.Materialize() equals the
	// batch PenaltyResult.Diffs exactly.
	Diffs *Dist
	// ExactFrac is the fraction of probe sets predicted exactly optimally.
	ExactFrac float64
}

// bankedCell is one training cell whose replay must wait until its
// training finishes (the Global scope's fleet-lifetime SNR cells and the
// Network scope's per-network cells — both "few big cells"). Each
// sample's penalty under every candidate predicted rate is banked into a
// per-rate histogram; resolution keeps only the histogram of the rate
// the finished cell actually predicts. Quantization keeps these
// histograms small.
type bankedCell struct {
	counts []int64    // per-rate optimal-rate training counts
	pend   []diffHist // per candidate rate: histogram of clamped penalties
	// dense banks the on-grid samples' penalties by level: per best
	// level index, one block of counts by (candidate, candidate level).
	// A cell sees few best levels, so a sample's penalties under every
	// candidate land in one small block. spill moves counts into pend,
	// where the off-grid samples' penalties already are.
	dense byteCounts
}

// addRow banks one on-grid sample's penalties under every candidate.
func (c *bankedCell) addRow(g *quantGrid, row []uint8, popt int) {
	lbest := g.lbest(row, popt)
	blk := c.dense.block(lbest, g.nr*levels, g.nr*levels)
	for p, d := range row[:g.nr] {
		i := p*levels + int(d)
		if blk[i] == math.MaxUint8 {
			c.spill(g, lbest, blk)
		}
		blk[i]++
	}
}

// spill moves one best level's block into the cell's histograms.
func (c *bankedCell) spill(g *quantGrid, lbest int, blk []uint8) {
	for i, n := range blk {
		if n != 0 {
			p := i / levels
			c.pend[p].add(g.penalty(p, lbest, i%levels), int64(n))
			blk[i] = 0
		}
	}
}

// fold moves all of the cell's level-banked penalties into pend.
func (c *bankedCell) fold(g *quantGrid) {
	c.dense.each(func(lbest int, blk []uint8) { c.spill(g, lbest, blk) })
	c.dense = byteCounts{}
}

// diffCount is one (dictionary id, count) entry of a compact bank: the
// AP scope has tens of thousands of small cells per large network, where
// per-cell maps would cost more than the data, so its banks are tiny
// linear-scanned slices over a scope-lifetime value dictionary.
type diffCount struct {
	id int32
	n  int32
}

// apCellKey identifies one AP-scope training cell within the current
// network.
type apCellKey struct {
	from int32
	snr  int32
}

// penaltyScopeState is one scope's accumulator state. The four scopes
// resolve at different boundaries, matching where their cells complete:
//
//   - Link: a directed link's samples never split across chunks, so every
//     chunk trains and replays its own complete cells immediately
//     (observeLocal) — nothing persists.
//   - AP and Network: cells complete when the network's last chunk
//     passes; they bank per-candidate penalties and resolve at the
//     network boundary.
//   - Global: cells span the fleet; they bank and resolve at Finalize.
type penaltyScopeState struct {
	scope Scope
	diffs levelHist
	exact int64

	// Global and Network scopes: map-banked cells keyed by SNR.
	cells map[int]*bankedCell

	// AP scope: the on-grid samples' levels in a log, and the off-grid
	// samples' penalties in dictionary+slice banks.
	apCells  map[apCellKey]int32
	apCounts []int64       // [cell*nr + ri] training counts
	apLog    rowLog        // on-grid samples, by cell
	apBanks  [][]diffCount // [cell*nr + p], off-grid samples
	dict     countTable    // penalty value → dictionary id + 1
	diffVals []float64
	nanID    int32

	rate []int64 // observeLocal's scratch: one cell's per-rate training counts

	// held defers the current network's first chunk: if the network turns
	// out to be unsplit (every network but the occasional huge one), its
	// cells are complete and the chunk takes the same fast train-and-
	// replay path the Link scope uses, skipping the banking machinery
	// entirely. Only a network that actually spans chunks banks.
	held    *GroupView
	banking bool

	curNet  string
	netSeen bool
}

// PenaltyAccum is the incremental core of Penalty: feed sample chunks in
// section order through ObserveGroup, then Finalize. A chunk is any run
// of one network's samples that never splits a directed link — a whole
// network (ForEachSampleGroup, the walk-flatten path) or a sub-chunk of
// a huge one (wire.SampleGroups splits at link boundaries) — and one
// network's chunks must arrive consecutively. No samples are retained:
// peak memory is the (instance, SNR)-shaped count and histogram tables.
type PenaltyAccum struct {
	numRates int
	states   []penaltyScopeState
	total    int64
}

// NewPenaltyAccum prepares an incremental penalty run over the scopes.
func NewPenaltyAccum(numRates int, scopes []Scope) *PenaltyAccum {
	a := &PenaltyAccum{numRates: numRates}
	for _, sc := range scopes {
		st := penaltyScopeState{scope: sc, nanID: -1, diffs: levelHist{grid: gridFor(numRates)}}
		switch sc {
		case Global, Network:
			st.cells = make(map[int]*bankedCell)
		case AP:
			st.apCells = make(map[apCellKey]int32)
		}
		a.states = append(a.states, st)
	}
	return a
}

// ObserveGroup trains (and, where cells are complete, replays) one chunk
// of samples. Scopes are processed across the process worker budget;
// their states are independent, so the result is byte-identical at any
// budget.
func (a *PenaltyAccum) ObserveGroup(v *GroupView) {
	if v.Len() == 0 || a.numRates == 0 {
		return
	}
	a.total += int64(v.Len())
	_ = conc.ForEach(len(a.states), func(si int) error {
		st := &a.states[si]
		switch st.scope {
		case Global:
			a.bankCells(st, v)
		case Network, AP:
			a.observeBoundary(st, v)
		default:
			a.observeLocal(st, v)
		}
		return nil
	})
}

// observeBoundary drives the Network/AP-scope state machine: the current
// network's first chunk is held back; an unsplit network replays it on
// the fast local path at the boundary, a split network falls back to
// banking.
func (a *PenaltyAccum) observeBoundary(st *penaltyScopeState, v *GroupView) {
	if net := v.net(); !st.netSeen || net != st.curNet {
		a.finishNet(st)
		st.curNet, st.netSeen = net, true
		st.held = v
		return
	}
	// The network spans chunks: bank the held first chunk, then this one.
	if st.held != nil {
		a.bank(st, st.held)
		st.held = nil
		st.banking = true
	}
	a.bank(st, v)
}

// bank routes a chunk to the scope's banking form.
func (a *PenaltyAccum) bank(st *penaltyScopeState, v *GroupView) {
	if st.scope == AP {
		a.bankAP(st, v)
	} else {
		a.bankCells(st, v)
	}
}

// finishNet completes the previous network: an unsplit one replays its
// held chunk locally, a split one resolves its banked cells.
func (a *PenaltyAccum) finishNet(st *penaltyScopeState) {
	if st.held != nil {
		a.observeLocal(st, st.held)
		st.held = nil
	}
	if st.banking {
		if st.scope == AP {
			a.resolveAP(st)
		} else {
			a.resolveCells(st)
		}
		st.banking = false
	}
}

// bankCells trains the state's map-banked cells (SNR-keyed: the Global
// scope fleet-wide, the Network scope within the current network) and
// banks each sample's penalty under every candidate rate. The view's
// per-network SNR runs visit each cell once per run, not once per sample.
func (a *PenaltyAccum) bankCells(st *penaltyScopeState, v *GroupView) {
	nr := a.numRates
	group := v.samples
	g := st.diffs.grid
	lv := v.levelsOf(g)
	idx, runs := v.cells(Network, true)
	for r := 1; r < len(runs); r++ {
		run := idx[runs[r-1]:runs[r]]
		snrVal := group[run[0]].SNR
		cell := st.cells[snrVal]
		if cell == nil {
			cell = &bankedCell{
				counts: make([]int64, nr),
				pend:   make([]diffHist, nr),
			}
			st.cells[snrVal] = cell
		}
		for _, i := range run {
			s := &group[i]
			cell.counts[s.Popt]++
			if row := g.row(lv, int(i)); row != nil {
				cell.addRow(g, row, s.Popt)
				continue
			}
			for p := 0; p < nr; p++ {
				diff := s.BestTput - s.Tput[p]
				if diff < 0 {
					diff = 0
				}
				cell.pend[p].add(diff, 1)
			}
		}
	}
}

// resolveCells replays the finished map-banked cells into the scope's
// penalty distribution and resets them.
func (a *PenaltyAccum) resolveCells(st *penaltyScopeState) {
	for _, cell := range st.cells {
		best, bestN := 0, int64(0)
		for ri, n := range cell.counts {
			if n > bestN {
				best, bestN = ri, n
			}
		}
		st.exact += cell.counts[best]
		st.diffs.merge(&cell.pend[best])
		cell.dense.each(func(lbest int, blk []uint8) {
			for dp, n := range blk[best*levels : (best+1)*levels] {
				if n != 0 {
					st.diffs.addLevels(best, lbest, dp, int32(n))
				}
			}
		})
	}
	if len(st.cells) > 0 {
		st.cells = make(map[int]*bankedCell)
	}
}

// diffID interns an off-grid penalty value in the scope's dictionary.
func (st *penaltyScopeState) diffID(v float64) int32 {
	if math.IsNaN(v) {
		if st.nanID < 0 {
			st.nanID = int32(len(st.diffVals))
			st.diffVals = append(st.diffVals, v)
		}
		return st.nanID
	}
	id := st.dict.cell(v)
	if *id == 0 {
		st.diffVals = append(st.diffVals, v)
		*id = int64(len(st.diffVals))
	}
	return int32(*id - 1)
}

// bankAP trains the current network's AP-scope cells and banks penalties
// into compact dictionary slices: per (cell, candidate) the realized
// penalty values are few (quantized throughputs over one AP's links at
// one SNR), so a linear-scanned slice beats a map by an order of
// magnitude in memory. The view's (AP, SNR) runs look each cell up once
// per run. An on-grid sample is only logged, its levels and cell, and
// replays under its cell's predicted rate at resolveAP: one record per
// sample instead of one bank update per candidate rate.
func (a *PenaltyAccum) bankAP(st *penaltyScopeState, v *GroupView) {
	nr := a.numRates
	group := v.samples
	g := st.diffs.grid
	lv := v.levelsOf(g)
	idx, runs := v.cells(AP, true)
	for r := 1; r < len(runs); r++ {
		run := idx[runs[r-1]:runs[r]]
		s0 := &group[run[0]]
		key := apCellKey{from: int32(s0.From), snr: int32(s0.SNR)}
		ci, ok := st.apCells[key]
		if !ok {
			ci = int32(len(st.apCells))
			st.apCells[key] = ci
			st.apCounts = append(st.apCounts, make([]int64, nr)...)
			st.apBanks = append(st.apBanks, make([][]diffCount, nr)...)
		}
		counts := st.apCounts[int(ci)*nr : int(ci+1)*nr]
		banks := st.apBanks[int(ci)*nr : int(ci+1)*nr]
		for _, i := range run {
			s := &group[i]
			counts[s.Popt]++
			if row := g.row(lv, int(i)); row != nil {
				st.apLog.add(ci, s.Popt, row)
				continue
			}
			for p := range banks {
				diff := s.BestTput - s.Tput[p]
				if diff < 0 {
					diff = 0
				}
				banks[p] = bumpDiff(banks[p], st.diffID(diff))
			}
		}
	}
}

// bumpDiff counts one more penalty of dictionary id id in a compact bank.
func bumpDiff(bank []diffCount, id int32) []diffCount {
	for bi := range bank {
		if bank[bi].id == id {
			bank[bi].n++
			return bank
		}
	}
	return append(bank, diffCount{id: id, n: 1})
}

// resolveAP replays the finished AP cells of the current network and
// resets the per-network state (the dictionary persists for the scope).
func (a *PenaltyAccum) resolveAP(st *penaltyScopeState) {
	nr := a.numRates
	best := make([]int, len(st.apCells))
	for idx := range best {
		row := st.apCounts[idx*nr : (idx+1)*nr]
		bestN := int64(0)
		for ri, n := range row {
			if n > bestN {
				best[idx], bestN = ri, n
			}
		}
		st.exact += row[best[idx]]
		for _, dc := range st.apBanks[idx*nr+best[idx]] {
			st.diffs.add(st.diffVals[dc.id], int64(dc.n))
		}
	}
	g := st.diffs.grid
	st.apLog.each(nr+1, func(cell int32, popt int, row []uint8) {
		p := best[cell]
		st.diffs.addLevels(p, g.lbest(row, popt), int(row[p]), 1)
	})
	if len(st.apCells) > 0 {
		st.apCells = make(map[apCellKey]int32)
		st.apCounts = st.apCounts[:0]
		st.apBanks = st.apBanks[:0]
		st.apLog = rowLog{}
	}
}

// observeLocal runs one non-global scope's train-and-replay over a
// chunk's completed cells. The view lays each (instance, SNR) cell out as
// one run of sample indices, so a cell trains into a per-rate scratch
// row, predicts its most frequent rate (ties toward the lower index,
// Lookup's rule), and replays its own samples into the histogram before
// the next cell starts.
func (a *PenaltyAccum) observeLocal(st *penaltyScopeState, v *GroupView) {
	if len(st.rate) != a.numRates {
		st.rate = make([]int64, a.numRates)
	}
	group := v.samples
	g := st.diffs.grid
	lv := v.levelsOf(g)
	idx, runs := v.cells(st.scope, true)
	for r := 1; r < len(runs); r++ {
		cell := idx[runs[r-1]:runs[r]]
		clear(st.rate)
		for _, i := range cell {
			st.rate[group[i].Popt]++
		}
		p, bestN := 0, int64(0)
		for ri, n := range st.rate {
			if n > bestN {
				p, bestN = ri, n
			}
		}
		st.exact += bestN
		for _, i := range cell {
			s := &group[i]
			if row := g.row(lv, int(i)); row != nil {
				st.diffs.addLevels(p, g.lbest(row, s.Popt), int(row[p]), 1)
				continue
			}
			diff := s.BestTput - s.Tput[p]
			if diff < 0 {
				diff = 0
			}
			st.diffs.add(diff, 1)
		}
	}
}

// FinalizeDists resolves the still-banked cells (the Global scope's
// fleet-lifetime cells and the last network's Network/AP cells) and
// returns every scope's counted outcome, in scope argument order. The
// accumulator must not be observed afterwards.
func (a *PenaltyAccum) FinalizeDists() []PenaltyDist {
	out := make([]PenaltyDist, len(a.states))
	_ = conc.ForEach(len(a.states), func(si int) error {
		st := &a.states[si]
		switch st.scope {
		case Global:
			a.resolveCells(st)
		case Network, AP:
			a.finishNet(st)
		}
		st.diffs.flush()
		pd := PenaltyDist{Scope: st.scope, Diffs: st.diffs.freeze()}
		if a.total > 0 {
			pd.ExactFrac = float64(st.exact) / float64(a.total)
		}
		out[si] = pd
		return nil
	})
	return out
}

// Finalize materializes FinalizeDists into the batch PenaltyResult form
// (sorted Diffs slices). Streaming callers that only need quantiles
// should use FinalizeDists and skip the O(samples) expansion.
func (a *PenaltyAccum) Finalize() []PenaltyResult {
	dists := a.FinalizeDists()
	out := make([]PenaltyResult, len(dists))
	for i, pd := range dists {
		out[i] = PenaltyResult{Scope: pd.Scope, ExactFrac: pd.ExactFrac}
		if pd.Diffs.N() > 0 {
			out[i].Diffs = pd.Diffs.Materialize()
		}
	}
	return out
}

// coverageAgg folds per-(instance, SNR) cells into the per-SNR coverage
// aggregates Figure 4.2/4.3 plot. Cell contributions are integer-valued,
// so the float sums are exact and the fold is order-independent — which
// is what lets group-at-a-time folding match the batch table walk bit for
// bit.
type coverageAgg struct {
	minObs  int
	scratch []int
	bySNR   map[int]*covCell
}

type covCell struct {
	n50, n80, n95 float64
	max95, cells  int
}

func newCoverageAgg(numRates, minObs int) *coverageAgg {
	return &coverageAgg{
		minObs:  minObs,
		scratch: make([]int, numRates),
		bySNR:   make(map[int]*covCell),
	}
}

// addCell folds one training cell's rate counts.
func (g *coverageAgg) addCell(snrVal int, c []int) {
	total := 0
	for _, n := range c {
		total += n
	}
	if total < g.minObs {
		return
	}
	a, ok := g.bySNR[snrVal]
	if !ok {
		a = &covCell{}
		g.bySNR[snrVal] = a
	}
	n50, n80, n95 := coverageNeeds(c, total, g.scratch)
	a.n50 += float64(n50)
	a.n80 += float64(n80)
	a.n95 += float64(n95)
	if n95 > a.max95 {
		a.max95 = n95
	}
	a.cells++
}

// rows renders the aggregate in ascending SNR order.
func (g *coverageAgg) rows() []CoverageRow {
	snrs := make([]int, 0, len(g.bySNR))
	for s := range g.bySNR {
		snrs = append(snrs, s)
	}
	sort.Ints(snrs)
	rows := make([]CoverageRow, 0, len(snrs))
	for _, s := range snrs {
		a := g.bySNR[s]
		rows = append(rows, CoverageRow{
			SNR:     s,
			NeedP50: a.n50 / float64(a.cells),
			NeedP80: a.n80 / float64(a.cells),
			NeedP95: a.n95 / float64(a.cells),
			MaxP95:  a.max95,
			Cells:   a.cells,
		})
	}
	return rows
}

// CoverageAccum is the incremental core of Train+Coverage for one scope,
// consuming the same link-aligned chunks PenaltyAccum does. Link-scope
// cells are complete within every chunk, so they train and fold
// per-chunk with nothing persisting; Network- and AP-scope cells
// accumulate in a per-network table (at most ~10⁴ small cells even for
// a huge network) folded at the network boundary; Global keeps its
// single SNR-keyed table (a few dozen cells) until Finalize. Peak memory
// is one network's table plus the per-SNR aggregates.
type CoverageAccum struct {
	scope    Scope
	numRates int
	agg      *coverageAgg
	table    *Table // Global: fleet-lifetime; Network/AP: split current network
	held     *GroupView
	curNet   string
	netSeen  bool

	rate []int // eachCell's scratch: one cell's per-rate training counts
}

// NewCoverageAccum prepares an incremental coverage run. minObs is the
// cell floor Table.Coverage applies.
func NewCoverageAccum(numRates int, scope Scope, minObs int) *CoverageAccum {
	a := &CoverageAccum{
		scope:    scope,
		numRates: numRates,
		agg:      newCoverageAgg(numRates, minObs),
	}
	if scope != Link {
		a.table = &Table{Scope: scope, NumRates: numRates, counts: make(map[instKey]map[int][]int)}
	}
	return a
}

// foldTable folds the pending table's cells into the aggregates and
// resets it.
func (a *CoverageAccum) foldTable() {
	for _, inst := range a.table.counts {
		for snrVal, c := range inst {
			a.agg.addCell(snrVal, c)
		}
	}
	if len(a.table.counts) > 0 {
		a.table.counts = make(map[instKey]map[int][]int)
	}
}

// ObserveGroup consumes one chunk (see PenaltyAccum for the chunk
// contract).
func (a *CoverageAccum) ObserveGroup(v *GroupView) {
	if v.Len() == 0 {
		return
	}
	switch a.scope {
	case Link:
		a.trainFold(v)
	case Global:
		a.tableAdd(v)
	default:
		// Network, AP: cells complete at the network boundary. The first
		// chunk is held back so an unsplit network (the common case)
		// trains and folds in one throwaway pass; a split network
		// accumulates the persistent per-network table instead. This is
		// the same held-first-chunk protocol PenaltyAccum.observeBoundary
		// drives (kept separate because the flush actions differ); the
		// sub-chunk oracles pin both against their batch forms, so a
		// contract change that misses one of them fails loudly.
		if net := v.net(); !a.netSeen || net != a.curNet {
			a.finishNet()
			a.curNet, a.netSeen = net, true
			a.held = v
			return
		}
		if a.held != nil {
			a.tableAdd(a.held)
			a.held = nil
		}
		a.tableAdd(v)
	}
}

// trainFold folds one complete-cell chunk straight into the aggregates.
func (a *CoverageAccum) trainFold(v *GroupView) {
	a.eachCell(v, func(s *Sample, counts []int) { a.agg.addCell(s.SNR, counts) })
}

// tableAdd accumulates a chunk into the persistent table.
func (a *CoverageAccum) tableAdd(v *GroupView) {
	a.eachCell(v, a.table.addCounts)
}

// eachCell trains one chunk a cell at a time: the view lays each
// (instance, SNR) cell out as one run of samples, whose per-rate counts
// go to fn with the run's first sample.
func (a *CoverageAccum) eachCell(v *GroupView, fn func(s *Sample, counts []int)) {
	if len(a.rate) != a.numRates {
		a.rate = make([]int, a.numRates)
	}
	group := v.samples
	idx, runs := v.cells(a.scope, true)
	for r := 1; r < len(runs); r++ {
		run := idx[runs[r-1]:runs[r]]
		clear(a.rate)
		for _, i := range run {
			a.rate[group[i].Popt]++
		}
		fn(&group[run[0]], a.rate)
	}
}

// finishNet completes the previous network: a held unsplit chunk folds
// through the throwaway path, a split network folds its table.
func (a *CoverageAccum) finishNet() {
	if a.held != nil {
		a.trainFold(a.held)
		a.held = nil
	}
	a.foldTable()
}

// Finalize returns the coverage rows, identical to
// Train(allSamples, numRates, scope).Coverage(minObs).
func (a *CoverageAccum) Finalize() []CoverageRow {
	if a.table != nil {
		a.finishNet()
		a.table = nil
	}
	return a.agg.rows()
}

// TputAccum is the incremental core of ThroughputVsSNR: per (SNR, rate)
// it keeps a quantized value→count histogram of throughputs instead of
// the materialized per-cell slices, so memory is (SNR range × rates ×
// distinct losses), independent of sample count.
type TputAccum struct {
	numRates, minObs int
	minSNR, maxSNR   int
	rows             map[int]*tputRow
	grid             *quantGrid
}

type tputRow struct {
	n     int64 // samples at this SNR (every sample hits every rate cell)
	cells []diffHist
	// levels counts on-grid throughputs by [rate*levels+level] until
	// flushLevels moves them into cells.
	levels []int64
}

// NewTputAccum prepares an incremental Figure 4.5 run.
func NewTputAccum(numRates, minObs int) *TputAccum {
	return &TputAccum{numRates: numRates, minObs: minObs, rows: make(map[int]*tputRow), grid: gridFor(numRates)}
}

// flushLevels moves every row's level counts into its value histograms,
// the form Finalize, Snapshot and Merge read.
func (a *TputAccum) flushLevels() {
	for _, row := range a.rows {
		for k, n := range row.levels {
			if n != 0 {
				row.cells[k/levels].add(a.grid.vals[k], n)
				row.levels[k] = 0
			}
		}
	}
}

// ObserveGroup consumes one chunk (any grouping works: the histogram is
// order-independent). The view's per-network SNR runs look each row up
// once per run.
func (a *TputAccum) ObserveGroup(v *GroupView) {
	if a.numRates == 0 {
		return
	}
	group := v.samples
	lv := v.levelsOf(a.grid)
	stride := a.numRates + 1
	idx, runs := v.cells(Network, true)
	for r := 1; r < len(runs); r++ {
		run := idx[runs[r-1]:runs[r]]
		snrVal := group[run[0]].SNR
		row := a.rows[snrVal]
		if row == nil {
			row = &tputRow{cells: make([]diffHist, a.numRates)}
			if a.grid != nil {
				row.levels = make([]int64, a.numRates*levels)
			}
			a.rows[snrVal] = row
			if len(a.rows) == 1 || snrVal < a.minSNR {
				a.minSNR = snrVal
			}
			if len(a.rows) == 1 || snrVal > a.maxSNR {
				a.maxSNR = snrVal
			}
		}
		row.n += int64(len(run))
		for _, i := range run {
			if lv != nil && lv[int(i)*stride] != offGrid {
				for ri, d := range lv[int(i)*stride : int(i)*stride+a.numRates] {
					row.levels[ri*levels+int(d)]++
				}
				continue
			}
			tput := group[i].Tput
			for ri := range row.cells {
				row.cells[ri].add(tput[ri], 1)
			}
		}
	}
}

// Finalize returns the per-cell quartile points, identical to
// ThroughputVsSNR over the concatenated samples.
func (a *TputAccum) Finalize() []TputPoint {
	if len(a.rows) == 0 {
		return nil
	}
	a.flushLevels()
	var out []TputPoint
	for ri := 0; ri < a.numRates; ri++ {
		for s := a.minSNR; s <= a.maxSNR; s++ {
			row := a.rows[s]
			if row == nil || row.n < int64(a.minObs) {
				continue
			}
			c := newCounted(&row.cells[ri])
			// The batch form's interpolation: hi is lo+1 whenever a next
			// element exists, even at integral positions. Replicated
			// exactly so the emitted float64s match bit for bit.
			n := c.n
			q := func(p float64) float64 {
				pos := p * float64(n-1)
				lo := int64(pos)
				hi := lo
				if lo+1 < n {
					hi = lo + 1
				}
				frac := pos - float64(lo)
				return c.at(lo)*(1-frac) + c.at(hi)*frac
			}
			out = append(out, TputPoint{
				RateIdx: ri, SNR: s,
				Median: q(0.5), Q1: q(0.25), Q3: q(0.75), N: int(n),
			})
		}
	}
	return out
}

// RateSetAccum is the incremental core of OptimalRateSets (Figure 4.1):
// the seen-set is a few hundred booleans, so it simply accumulates.
type RateSetAccum struct {
	seen map[int]map[int]bool
}

// NewRateSetAccum prepares an incremental Figure 4.1 run.
func NewRateSetAccum() *RateSetAccum {
	return &RateSetAccum{seen: make(map[int]map[int]bool)}
}

// ObserveGroup consumes one chunk of samples (any grouping). Each of the
// view's per-network SNR runs gathers its optimal rates in a bit set
// before touching the map.
func (a *RateSetAccum) ObserveGroup(v *GroupView) {
	group := v.samples
	idx, runs := v.cells(Network, true)
	for r := 1; r < len(runs); r++ {
		run := idx[runs[r-1]:runs[r]]
		snrVal := group[run[0]].SNR
		m, ok := a.seen[snrVal]
		if !ok {
			m = make(map[int]bool)
			a.seen[snrVal] = m
		}
		var bits uint64
		for _, i := range run {
			if p := group[i].Popt; uint(p) < 64 {
				bits |= 1 << p
			} else {
				m[p] = true
			}
		}
		for p := 0; bits != 0; p, bits = p+1, bits>>1 {
			if bits&1 != 0 {
				m[p] = true
			}
		}
	}
}

// Finalize returns the per-SNR ever-optimal rate sets, identical to
// OptimalRateSets over the concatenated samples.
func (a *RateSetAccum) Finalize() map[int][]int {
	out := make(map[int][]int, len(a.seen))
	for snrVal, m := range a.seen {
		var rates []int
		for ri := range m {
			rates = append(rates, ri)
		}
		sort.Ints(rates)
		out[snrVal] = rates
	}
	return out
}

// StrategyAccum is the incremental core of ReplayStrategies: links never
// split across chunks, so each chunk replays its own links to completion
// and only the integer hit/total/update counters persist.
type StrategyAccum struct {
	numRates, maxX int
	results        []StrategyResult

	// Per-link scratch, reused across links and chunks: a time-ordered
	// copy of a link's indices when the chunk has them out of order, and
	// the link's dense SNR-indexed tables.
	seq    []int32
	pred   []int32 // per SNR offset: the rate the table predicts, -1 = no data
	counts []int32 // per (SNR offset, rate): Subsampled/All training counts
}

// NewStrategyAccum prepares an incremental Figure 4.6 / Table 4.1 run.
func NewStrategyAccum(numRates, maxX int) *StrategyAccum {
	if maxX < 2 {
		maxX = 2
	}
	a := &StrategyAccum{numRates: numRates, maxX: maxX}
	for _, st := range Strategies {
		a.results = append(a.results, StrategyResult{
			Strategy: st,
			Hits:     make([]int, maxX+1),
			Total:    make([]int, maxX+1),
		})
	}
	return a
}

// ObserveGroup replays one chunk through every strategy. The chunk
// contract (see PenaltyAccum) guarantees links never split across
// chunks, so every link's online table runs its full sequence here. Links
// replay in (From, To) order; every reported field is an integer sum over
// links, so the order does not matter.
func (a *StrategyAccum) ObserveGroup(v *GroupView) {
	idx, runs := v.cells(Link, false)
	for r := 1; r < len(runs); r++ {
		a.replayLink(v.samples, idx[runs[r-1]:runs[r]])
	}
}

// replayLink replays one link, given as indices into group in chunk
// order, through every strategy. seq belongs to the view, so it is only
// read.
func (a *StrategyAccum) replayLink(group []Sample, seq []int32) {
	// Time order; the sort is stable, so equal times keep chunk order.
	for j := 1; j < len(seq); j++ {
		if group[seq[j]].T < group[seq[j-1]].T {
			a.seq = append(a.seq[:0], seq...)
			seq = a.seq
			slices.SortStableFunc(seq, func(x, y int32) int { return cmp.Compare(group[x].T, group[y].T) })
			break
		}
	}
	lo, hi := group[seq[0]].SNR, group[seq[0]].SNR
	for _, i := range seq {
		lo, hi = min(lo, group[i].SNR), max(hi, group[i].SNR)
	}
	for si := range a.results {
		a.replay(&a.results[si], group, seq, lo, hi-lo+1)
	}
}

// replay runs one strategy's online table over one time-ordered link
// whose SNRs span [lo, lo+span), predicting before updating. The table is
// dense over that range: pred holds the current prediction per SNR
// offset and, for the counting strategies, counts the per-(SNR, rate)
// training counts behind it.
func (a *StrategyAccum) replay(res *StrategyResult, group []Sample, seq []int32, lo, span int) {
	nr := a.numRates
	a.pred = resize32(a.pred, span)
	pred := a.pred
	for c := range pred {
		pred[c] = -1
	}
	var counts []int32
	if res.Strategy == Subsampled || res.Strategy == All {
		a.counts = resize32(a.counts, span*nr)
		counts = a.counts
		clear(counts)
	}
	updates, stored := 0, 0
	for x, i := range seq {
		s := &group[i]
		c := s.SNR - lo
		popt := int32(s.Popt)
		if p := pred[c]; p >= 0 {
			h := min(x, a.maxX)
			res.Total[h]++
			if p == popt {
				res.Hits[h]++
			}
		} else {
			res.Skipped++
		}
		switch res.Strategy {
		case First:
			if pred[c] < 0 {
				pred[c] = popt
				updates++
				stored++
			}
		case MostRecent:
			if pred[c] < 0 {
				stored++
			}
			pred[c] = popt
			updates++
		case Subsampled, All:
			// Subsampled counts every third probe set, plus always the
			// first sighting of an SNR so predictions become possible.
			if res.Strategy == Subsampled && x%3 != 0 && pred[c] >= 0 {
				continue
			}
			row := counts[c*nr : (c+1)*nr]
			row[popt]++
			updates++
			stored++
			// The most frequent rate, ties toward the lower index: only
			// the bumped rate can overtake the current prediction.
			if b := pred[c]; b < 0 || row[popt] > row[b] || row[popt] == row[b] && popt < b {
				pred[c] = popt
			}
		}
	}
	res.Updates += updates
	res.MemEntries += stored
}

// Finalize returns the per-strategy results, identical to
// ReplayStrategies over the concatenated samples: every reported field is
// an integer sum over per-link replays, so the per-group fold commutes.
func (a *StrategyAccum) Finalize() []StrategyResult { return a.results }

// TopKAccum is the incremental core of TopKCoverage at Link scope (the
// §4.5 extension): link cells are complete within every chunk (see
// PenaltyAccum's chunk contract), so each chunk trains its own cells,
// evaluates its own samples, and is discarded.
type TopKAccum struct {
	numRates        int
	ks              []int
	hits, evaluated []int

	// Per-chunk scratch.
	rate  []int32 // one cell's per-rate training counts
	ranks []int   // samples per rank of their optimal rate in their cell
}

// NewTopKAccum prepares an incremental top-k candidate-set run. A k below
// 1 means 1, as in Table.TopK.
func NewTopKAccum(numRates int, ks []int) *TopKAccum {
	return &TopKAccum{
		numRates:  numRates,
		ks:        normalizeKs(ks),
		hits:      make([]int, len(ks)),
		evaluated: make([]int, len(ks)),
	}
}

// normalizeKs returns a copy of ks with every k below 1 raised to 1: a
// candidate set always holds at least one rate.
func normalizeKs(ks []int) []int {
	out := make([]int, len(ks))
	for i, k := range ks {
		out[i] = max(k, 1)
	}
	return out
}

// ObserveGroup trains on and evaluates one chunk's samples. Every sample
// trains its own cell, so every sample is evaluated; its optimal rate is
// in the cell's top-k set exactly when fewer than k rates outrank it —
// more training hits, or as many at a lower index (Table.TopK's order).
// So the chunk only counts samples per rank and folds the counts into
// every k at once.
func (a *TopKAccum) ObserveGroup(v *GroupView) {
	if v.Len() == 0 || a.numRates == 0 {
		return
	}
	if len(a.rate) != a.numRates {
		a.rate = make([]int32, a.numRates)
		a.ranks = make([]int, a.numRates)
	}
	clear(a.ranks)
	group := v.samples
	idx, runs := v.cells(Link, true)
	for r := 1; r < len(runs); r++ {
		clear(a.rate)
		for _, i := range idx[runs[r-1]:runs[r]] {
			a.rate[group[i].Popt]++
		}
		for p, n := range a.rate {
			if n == 0 {
				continue
			}
			rank := 0
			for r, m := range a.rate {
				if m > n || m == n && r < p {
					rank++
				}
			}
			a.ranks[rank] += int(n)
		}
	}
	for ki, k := range a.ks {
		for _, n := range a.ranks[:min(k, a.numRates)] {
			a.hits[ki] += n
		}
		a.evaluated[ki] += v.Len()
	}
}

// Finalize returns the per-k results, identical to TopKCoverage at Link
// scope over the concatenated samples.
func (a *TopKAccum) Finalize() []TopKResult {
	out := make([]TopKResult, 0, len(a.ks))
	for ki, k := range a.ks {
		out = append(out, topKResult(k, a.numRates, a.hits[ki], a.evaluated[ki]))
	}
	return out
}
