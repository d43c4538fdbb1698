package snr

// dense.go holds the two building blocks beneath the chunked §4 cores'
// value histograms and instance orders:
//
//   - countTable, an open-addressed float64→count table that backs every
//     value histogram (diffHist): the form the cores' tables are read,
//     merged and snapshotted in, and the counter for values off the
//     quantization grid (quant.go counts the on-grid ones by level and
//     spills them here).
//   - chunkOrder, a stable counting sort that groups one network's samples
//     by table instance (and optionally SNR). GroupView (view.go) sorts
//     each group's SNR order with it once, derives the other instance
//     orders from dense link and AP ids, and is refereed against it.

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
)

// countSlot is one countTable entry.
type countSlot struct {
	bits uint64 // math.Float64bits of the key; emptyKey when unused
	n    int64
}

// value returns the slot's key.
func (s countSlot) value() float64 { return math.Float64frombits(s.bits) }

// emptyKey marks an unused slot. It is a NaN bit pattern, and NaN is never
// a key (diffHist counts NaNs apart), so no key collides with it.
const emptyKey = ^uint64(0)

// minSlots is a table's size at its first insertion.
const minSlots = 8

// countTable is an open-addressed, linearly probed float64→int64 table.
// Keys compare as a Go map's float64 keys do — −0 and +0 are one key,
// stored as +0 — except that NaN is not a valid key. The zero value is an
// empty table.
type countTable struct {
	slots []countSlot // nil or a power-of-two length
	shift uint8       // 64 − log2(len(slots)): home keeps the hash's top bits
	used  int
}

// cell returns the counter for the non-NaN key v, inserting it at zero
// when absent. The pointer is valid until the table's next insertion.
func (t *countTable) cell(v float64) *int64 {
	if v == 0 {
		v = 0 // canonical +0
	}
	return t.cellBits(math.Float64bits(v))
}

// cellBits is cell keyed by canonical bits.
func (t *countTable) cellBits(b uint64) *int64 {
	if t.slots == nil {
		t.resize(minSlots)
	}
	for {
		mask := len(t.slots) - 1
		for i := t.home(b); ; i = (i + 1) & mask {
			s := &t.slots[i]
			if s.bits == b {
				return &s.n
			}
			if s.bits != emptyKey {
				continue
			}
			// Absent: insert, keeping the load at or under 3/4.
			if 4*(t.used+1) > 3*len(t.slots) {
				t.resize(2 * len(t.slots))
				break // probe the grown table
			}
			s.bits = b
			t.used++
			return &s.n
		}
	}
}

// home is a key's first probe position (Fibonacci hashing).
func (t *countTable) home(b uint64) int {
	return int((b * 0x9E3779B97F4A7C15) >> t.shift)
}

// resize rehashes the table into n slots.
func (t *countTable) resize(n int) {
	old := t.slots
	t.slots = make([]countSlot, n)
	for i := range t.slots {
		t.slots[i].bits = emptyKey
	}
	t.shift = uint8(64 - bits.TrailingZeros(uint(n)))
	mask := n - 1
	for _, s := range old {
		if s.bits == emptyKey {
			continue
		}
		i := t.home(s.bits)
		for t.slots[i].bits != emptyKey {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

// sorted returns the occupied slots in ascending key order.
func (t *countTable) sorted() []countSlot {
	live := make([]countSlot, 0, t.used)
	for _, s := range t.slots {
		if s.bits != emptyKey {
			live = append(live, s)
		}
	}
	slices.SortFunc(live, func(a, b countSlot) int { return cmp.Compare(a.value(), b.value()) })
	return live
}

// diffHist accumulates a value→count histogram with NaN tracking.
type diffHist struct {
	countTable
	nan int64
}

func (h *diffHist) add(v float64, n int64) {
	if math.IsNaN(v) {
		h.nan += n
		return
	}
	*h.cell(v) += n
}

func (h *diffHist) freeze() *Dist { return &Dist{c: *newCounted(h)} }

// sampleField selects one of the small integer sample fields chunkOrder
// sorts by.
type sampleField uint8

const (
	fieldSNR sampleField = iota
	fieldTo
	fieldFrom
)

func (f sampleField) of(s *Sample) int {
	switch f {
	case fieldSNR:
		return s.SNR
	case fieldTo:
		return s.To
	}
	return s.From
}

// maxCountSpan bounds one counting-sort pass's key range. Wire-format
// node ids are u16 and SNRs a few dozen dB, so real data never exceeds
// it; a wider in-memory field falls back to a stable comparison sort.
const maxCountSpan = 1 << 16

// chunkOrder orders one network's samples by table instance: least-
// significant-digit counting-sort passes over SNR (optional), To and From
// leave every instance — and, with SNR, every (instance, SNR) training
// cell — a contiguous run of indices. The passes are stable, so samples
// sharing a key keep their chunk order. The buffers are reused across
// chunks.
type chunkOrder struct {
	idx, tmp, count []int32
}

// sort returns the group's sample indices ordered by the scope's instance
// key (From for AP; From, To for Link; nothing for Network and Global,
// whose instance is the whole network) and, when bySNR, by SNR within an
// instance. The slice is valid until the next sort.
func (o *chunkOrder) sort(group []Sample, scope Scope, bySNR bool) []int32 {
	o.idx = resize32(o.idx, len(group))
	for i := range o.idx {
		o.idx[i] = int32(i)
	}
	if len(group) == 0 {
		return o.idx
	}
	if bySNR {
		o.pass(group, fieldSNR)
	}
	if scope == Link {
		o.pass(group, fieldTo)
	}
	if scope == Link || scope == AP {
		o.pass(group, fieldFrom)
	}
	return o.idx
}

// pass stably reorders o.idx by one field.
func (o *chunkOrder) pass(group []Sample, f sampleField) {
	lo, hi := f.of(&group[0]), f.of(&group[0])
	for i := range group {
		v := f.of(&group[i])
		lo, hi = min(lo, v), max(hi, v)
	}
	if lo == hi {
		return
	}
	if uint(hi-lo) >= maxCountSpan {
		slices.SortStableFunc(o.idx, func(a, b int32) int {
			return cmp.Compare(f.of(&group[a]), f.of(&group[b]))
		})
		return
	}
	// count[k] becomes the first output position of key k.
	o.count = resize32(o.count, hi-lo+2)
	clear(o.count)
	for _, i := range o.idx {
		o.count[f.of(&group[i])-lo+1]++
	}
	for k := 1; k < len(o.count); k++ {
		o.count[k] += o.count[k-1]
	}
	o.tmp = resize32(o.tmp, len(o.idx))
	for _, i := range o.idx {
		k := f.of(&group[i]) - lo
		o.tmp[o.count[k]] = i
		o.count[k]++
	}
	o.idx, o.tmp = o.tmp, o.idx
}

// resize32 returns s with length n, reallocating only when it must grow.
func resize32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}
