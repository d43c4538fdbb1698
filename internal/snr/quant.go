package snr

// quant.go counts quantized throughputs and penalties densely. A
// sample's throughput at rate r is Mbps_r × (1 − loss), where loss is
// the probe window's delivery fraction, stored as a float32 and
// quantized to 1/gridSteps. So every on-grid throughput is one of
// gridSteps+1 levels per rate, and every penalty is the difference of
// two levels. The §4 cores count by level in flat arrays and convert to
// the value-keyed countTable histograms only where the values are read:
// per run or per group for the penalty banks, and before Finalize,
// Snapshot and Merge for the throughput rows. A throughput that is not
// exactly on the grid (another window size, a fuzzed file) takes the
// countTable path, and both paths meet in the same value→count form, so
// the bytes do not depend on which one counted.

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
	"sync"

	"meshlab/internal/phy"
)

// gridSteps is the probe window: probes sent per rate per report, the
// default of probe.Config.ProbesPerRate and the only window a dataset
// file records.
const gridSteps = 20

// levels is the number of throughput levels per rate.
const levels = gridSteps + 1

// offGrid marks a sample whose throughputs are not all on the grid.
const offGrid = 0xFF

// quantGrid is one band's throughput levels: vals[r*levels+d] is rate r's
// throughput when d of gridSteps probes were delivered, computed as the
// probe layer computes it.
type quantGrid struct {
	nr   int
	mbps []float64
	vals []float64
}

func newQuantGrid(band phy.Band) *quantGrid {
	g := &quantGrid{nr: len(band.Rates), vals: make([]float64, len(band.Rates)*levels)}
	for r, rate := range band.Rates {
		g.mbps = append(g.mbps, rate.Mbps)
		for d := 0; d < levels; d++ {
			loss := float32(1 - float64(d)/float64(gridSteps))
			g.vals[r*levels+d] = rate.Throughput(float64(loss))
		}
	}
	return g
}

// knownGrids holds the grid of every band the dataset layer produces.
var knownGrids = []*quantGrid{newQuantGrid(phy.BandBG), newQuantGrid(phy.BandN)}

// gridFor returns the grid of the band with numRates rates, or nil when
// no known band has that many (every value then takes the countTable
// path).
func gridFor(numRates int) *quantGrid {
	for _, g := range knownGrids {
		if g.nr == numRates {
			return g
		}
	}
	return nil
}

// level returns the level of throughput t at rate r, and whether t is
// exactly that level's value.
func (g *quantGrid) level(r int, t float64) (uint8, bool) {
	if !(t >= 0 && t <= g.mbps[r]) { // NaN fails too
		return 0, false
	}
	d := int(t/g.mbps[r]*gridSteps + 0.5)
	if d > gridSteps || math.Float64bits(g.vals[r*levels+d]) != math.Float64bits(t) {
		return 0, false
	}
	return uint8(d), true
}

// sampleLevels holds a group's levels, nr+1 bytes per sample: the level
// of each rate's throughput, then the level of BestTput at Popt. A sample
// with any value off the grid (or Popt out of range) has offGrid as its
// first byte.
type sampleLevels struct {
	once sync.Once
	grid *quantGrid
	lv   []uint8
}

// levelsOf returns the group's levels on grid g (nil when g is nil). The
// view computes them once for the first grid asked; every core of one
// band asks for the same grid.
func (v *GroupView) levelsOf(g *quantGrid) []uint8 {
	if g == nil {
		return nil
	}
	l := &v.levels
	l.once.Do(func() { l.grid, l.lv = g, quantize(v.samples, g) })
	if l.grid != g {
		return quantize(v.samples, g)
	}
	return l.lv
}

// quantize computes the levels of samples on grid g.
func quantize(samples []Sample, g *quantGrid) []uint8 {
	nr := g.nr
	stride := nr + 1
	lv := make([]uint8, len(samples)*stride)
	for i := range samples {
		s := &samples[i]
		row := lv[i*stride : (i+1)*stride]
		ok := len(s.Tput) == nr && s.Popt >= 0 && s.Popt < nr
		for r := 0; ok && r < nr; r++ {
			row[r], ok = g.level(r, s.Tput[r])
		}
		if ok {
			row[nr], ok = g.level(s.Popt, s.BestTput)
		}
		if !ok {
			row[0] = offGrid
		}
	}
	return lv
}

// penalty returns the clamped penalty under candidate rate p of a sample
// whose best throughput has level index lbest (Popt*levels + its level)
// and whose throughput at p has level dp, computed as the cores compute
// it from the samples' float64 throughputs. Equal (p, lbest, dp) are
// equal penalties.
func (g *quantGrid) penalty(p, lbest, dp int) float64 {
	diff := g.vals[lbest] - g.vals[p*levels+dp]
	if diff < 0 {
		diff = 0
	}
	return diff
}

// row returns sample i's levels from a view's levels lv, or nil when lv
// is nil or the sample is off the grid.
func (g *quantGrid) row(lv []uint8, i int) []uint8 {
	if lv == nil {
		return nil
	}
	stride := g.nr + 1
	row := lv[i*stride : (i+1)*stride]
	if row[0] == offGrid {
		return nil
	}
	return row
}

// lbest returns the best throughput's level index of a sample's levels.
func (g *quantGrid) lbest(row []uint8, popt int) int { return popt*levels + int(row[g.nr]) }

// byteCounts holds small counts in uint8 cells, in fixed-length blocks
// allocated on a block's first use. A block about to overflow is spilled
// by its owner into a value histogram, so the cells stay exact; the
// common values fill bytes, not table slots.
type byteCounts struct {
	index []int32 // per block id: 1 + the block's offset in cells, 0 if unused
	cells []uint8
	size  int // block length
}

// block returns block id's cells, allocating it. ids is the number of
// block ids and size the block length; both are fixed on first use.
func (c *byteCounts) block(id, ids, size int) []uint8 {
	if c.index == nil {
		c.index, c.size = make([]int32, ids), size
	}
	off := int(c.index[id]) - 1
	if off < 0 {
		off = len(c.cells)
		c.cells = slices.Grow(c.cells, size)[:off+size]
		c.index[id] = int32(off + 1)
	}
	return c.cells[off : off+size]
}

// each calls fn with every allocated block.
func (c *byteCounts) each(fn func(id int, blk []uint8)) {
	for id, off := range c.index {
		if off != 0 {
			fn(id, c.cells[off-1:int(off)-1+c.size])
		}
	}
}

// levelHist is a penalty histogram that counts on-grid penalties by level
// in byteCounts blocks, one per (candidate p, best level index), and every
// other value in its diffHist. flush spills the blocks into the diffHist,
// which is read only after one.
type levelHist struct {
	diffHist
	grid  *quantGrid
	dense byteCounts // block p*nr*levels + lbest, cell dp
}

// addLevels counts n penalties under candidate p of samples whose best
// level index is lbest and whose level at p is dp.
func (h *levelHist) addLevels(p, lbest, dp int, n int32) {
	nl := h.grid.nr * levels
	blk := h.dense.block(p*nl+lbest, h.grid.nr*nl, levels)
	if int32(blk[dp])+n > math.MaxUint8 {
		h.spill(p, lbest, blk)
		if n > math.MaxUint8 {
			h.add(h.grid.penalty(p, lbest, dp), int64(n))
			return
		}
	}
	blk[dp] += uint8(n)
}

// spill moves one block's counts into the value histogram.
func (h *levelHist) spill(p, lbest int, blk []uint8) {
	for dp, n := range blk {
		if n != 0 {
			h.add(h.grid.penalty(p, lbest, dp), int64(n))
			blk[dp] = 0
		}
	}
}

// flush spills every block.
func (h *levelHist) flush() {
	if h.grid == nil {
		return
	}
	nl := h.grid.nr * levels
	h.dense.each(func(id int, blk []uint8) { h.spill(id/nl, id%nl, blk) })
}

// rowLog records on-grid samples for a later replay: per sample its cell,
// its Popt and its levels. Records are fixed-size and fill fixed-size
// blocks, so the log never copies itself as it grows.
type rowLog struct {
	blocks [][]byte
}

// minLogBlock and logBlock bound the size of a rowLog block.
const (
	minLogBlock = 1 << 12
	logBlock    = 1 << 20
)

// add appends one sample's record.
func (l *rowLog) add(cell int32, popt int, row []uint8) {
	rec := 5 + len(row)
	if n := len(l.blocks); n == 0 || len(l.blocks[n-1])+rec > cap(l.blocks[n-1]) {
		// Blocks double up to logBlock, so a small network logs small.
		size := logBlock
		if n < bits.Len(logBlock/minLogBlock) {
			size = minLogBlock << n
		}
		l.blocks = append(l.blocks, make([]byte, 0, size-size%rec))
	}
	b := &l.blocks[len(l.blocks)-1]
	*b = binary.LittleEndian.AppendUint32(*b, uint32(cell))
	*b = append(append(*b, uint8(popt)), row...)
}

// each calls fn for every record in log order; rowLen is the length of
// the rows added.
func (l *rowLog) each(rowLen int, fn func(cell int32, popt int, row []uint8)) {
	rec := 5 + rowLen
	for _, b := range l.blocks {
		for off := 0; off < len(b); off += rec {
			fn(int32(binary.LittleEndian.Uint32(b[off:])), int(b[off+4]), b[off+5:off+rec])
		}
	}
}
