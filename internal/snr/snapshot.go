package snr

// snapshot.go gives every chunked §4 core a versioned binary
// Snapshot(w)/Restore(r) of its partial state, so a streaming run can be
// checkpointed at a network boundary and resumed byte-identically in a
// fresh process.
//
// The boundary contract: Snapshot must be called between networks — after
// the last chunk of one network and before the first chunk of the next.
// At such a boundary the Network- and AP-scope state machines are flushed
// first (finishNet), which is result-neutral: the identical flush would
// run the moment the next network's first chunk arrived, so running it
// early changes no downstream number. After the flush, only state that
// genuinely spans networks remains — the per-scope penalty histograms and
// exact counters, the Global scope's banked cells and fleet-lifetime
// coverage table, and the whole-fleet count tables — and that is what
// serializes. The AP scope's value dictionary is deliberately not
// serialized: post-flush its banks are empty, so no dictionary id is
// referenced, and a restored run simply re-interns values as they recur
// (ids differ, realized values do not). Restore resets the
// boundary-tracking fields (curNet/netSeen/held) to their pre-first-chunk
// zero state, which behaves identically going forward.
//
// Every decode-side count is validated by binio against the remaining
// input, and structural parameters (rate counts, scopes, ks) must match
// the restoring accumulator's construction — a mismatch is a contextual
// error, never a partial restore that later panics.

import (
	"cmp"
	"fmt"
	"io"
	"maps"
	"slices"

	"meshlab/internal/binio"
)

// Per-core snapshot format versions. Bump on any layout change; Restore
// rejects versions it does not know.
const (
	penaltySnapV1  = 1
	coverageSnapV1 = 1
	tputSnapV1     = 1
	rateSetSnapV1  = 1
	strategySnapV1 = 1
	topkSnapV1     = 1
)

// writeHist serializes a diffHist with sorted keys, so snapshot bytes are
// deterministic for a given state.
func writeHist(w *binio.Writer, h *diffHist) {
	live := h.sorted()
	w.Int(len(live))
	for _, sl := range live {
		w.F64(sl.value())
		w.I64(sl.n)
	}
	w.I64(h.nan)
}

// readHist decodes into h (which must be zero).
func readHist(r *binio.Reader, h *diffHist) {
	n := r.Count(16)
	if r.Err() != nil {
		return
	}
	for i := 0; i < n; i++ {
		v := r.F64()
		c := r.I64()
		if r.Err() != nil {
			return
		}
		h.add(v, c)
	}
	h.nan += r.I64()
}

// bankCodec encodes SNR-keyed banked cells in ascending key order: each
// cell's per-rate counts, then its per-rate pending histograms.
func bankCodec(nr int) binio.Codec[map[int]*bankedCell] {
	return binio.MapOf(binio.IntCodec, binio.Codec[*bankedCell]{
		Min: 24 * nr,
		Write: func(w *binio.Writer, cell *bankedCell) {
			for _, c := range cell.counts {
				w.I64(c)
			}
			for p := range cell.pend {
				writeHist(w, &cell.pend[p])
			}
		},
		Read: func(r *binio.Reader) *bankedCell {
			cell := &bankedCell{counts: make([]int64, nr), pend: make([]diffHist, nr)}
			for ri := range cell.counts {
				cell.counts[ri] = r.I64()
			}
			for p := range cell.pend {
				readHist(r, &cell.pend[p])
			}
			return cell
		},
	})
}

// Snapshot serializes the penalty core's partial state. Must be called
// at a network boundary (see the file comment); the receiver remains
// valid and may continue observing afterwards.
func (a *PenaltyAccum) Snapshot(w io.Writer) error {
	bw := binio.NewWriter(w)
	bw.U8(penaltySnapV1)
	bw.Int(a.numRates)
	bw.I64(a.total)
	bw.Int(len(a.states))
	for si := range a.states {
		st := &a.states[si]
		if st.scope == Network || st.scope == AP {
			// Boundary flush: identical to what the next network's first
			// chunk would trigger, so result-neutral here.
			a.finishNet(st)
		}
		bw.U8(uint8(st.scope))
		st.diffs.flush()
		writeHist(bw, &st.diffs.diffHist)
		bw.I64(st.exact)
		if st.scope == Global {
			for _, cell := range st.cells {
				cell.fold(st.diffs.grid)
			}
			bankCodec(a.numRates).Write(bw, st.cells)
		}
	}
	return bw.Err()
}

// Restore loads a Snapshot into a freshly constructed accumulator with
// the same rate count and scopes.
func (a *PenaltyAccum) Restore(r io.Reader) error {
	br := binio.NewReader(r)
	if v := br.U8(); br.Err() == nil && v != penaltySnapV1 {
		return fmt.Errorf("snr: penalty snapshot version %d, want %d", v, penaltySnapV1)
	}
	if nr := br.Int(); br.Err() == nil && nr != a.numRates {
		return fmt.Errorf("snr: penalty snapshot has %d rates, accumulator %d", nr, a.numRates)
	}
	total := br.I64()
	ns := br.Int()
	if err := br.Err(); err != nil {
		return fmt.Errorf("snr: penalty snapshot: %w", err)
	}
	if ns != len(a.states) {
		return fmt.Errorf("snr: penalty snapshot has %d scopes, accumulator %d", ns, len(a.states))
	}
	a.total = total
	for si := range a.states {
		st := &a.states[si]
		if sc := Scope(br.U8()); br.Err() == nil && sc != st.scope {
			return fmt.Errorf("snr: penalty snapshot scope %v at slot %d, accumulator %v", sc, si, st.scope)
		}
		st.diffs = levelHist{grid: st.diffs.grid}
		readHist(br, &st.diffs.diffHist)
		st.exact = br.I64()
		if st.scope == Global {
			cells := bankCodec(a.numRates).Read(br)
			if br.Err() == nil {
				st.cells = cells
			}
		}
		st.held = nil
		st.banking = false
		st.curNet, st.netSeen = "", false
		if err := br.Err(); err != nil {
			return fmt.Errorf("snr: penalty snapshot scope %v: %w", st.scope, err)
		}
	}
	return nil
}

// instKeyCodec encodes a table instance as its network name and the
// from and to APs, ordered by name, then from, then to.
var instKeyCodec = binio.Codec[instKey]{
	Min: 24,
	Write: func(w *binio.Writer, k instKey) {
		w.String(k.net)
		w.I64(int64(k.from))
		w.I64(int64(k.to))
	},
	Read: func(r *binio.Reader) instKey {
		return instKey{net: r.String(), from: int32(r.I64()), to: int32(r.I64())}
	},
	Compare: func(a, b instKey) int {
		return cmp.Or(cmp.Compare(a.net, b.net), cmp.Compare(a.from, b.from), cmp.Compare(a.to, b.to))
	},
}

// tableCodec encodes a count table's cells: per instance, per SNR, the
// nr per-rate counts.
func tableCodec(nr int) binio.Codec[map[instKey]map[int][]int] {
	return binio.MapOf(instKeyCodec, binio.MapOf(binio.IntCodec, binio.Codec[[]int]{
		Min: 8 * nr,
		Write: func(w *binio.Writer, row []int) {
			for _, c := range row {
				w.Int(c)
			}
		},
		Read: func(r *binio.Reader) []int {
			row := make([]int, nr)
			for ri := range row {
				row[ri] = r.Int()
			}
			return row
		},
	}))
}

// writeTable serializes a count table: its presence, scope and rate
// count, then its cells.
func writeTable(w *binio.Writer, t *Table) {
	w.Bool(t != nil)
	if t == nil {
		return
	}
	w.U8(uint8(t.Scope))
	w.Int(t.NumRates)
	tableCodec(t.NumRates).Write(w, t.counts)
}

// readTable decodes into t, replacing its counts; the stored scope and
// rate count must match t's.
func readTable(r *binio.Reader, t *Table) error {
	present := r.Bool()
	if err := r.Err(); err != nil {
		return err
	}
	if present != (t != nil) {
		return fmt.Errorf("snr: table presence mismatch (snapshot %v, accumulator %v)", present, t != nil)
	}
	if t == nil {
		return nil
	}
	if sc := Scope(r.U8()); r.Err() == nil && sc != t.Scope {
		return fmt.Errorf("snr: table scope %v, accumulator %v", sc, t.Scope)
	}
	if nr := r.Int(); r.Err() == nil && nr != t.NumRates {
		return fmt.Errorf("snr: table has %d rates, accumulator %d", nr, t.NumRates)
	}
	if counts := tableCodec(t.NumRates).Read(r); r.Err() == nil {
		t.counts = counts
	}
	return r.Err()
}

// covCellCodec encodes SNR-keyed coverage aggregates in ascending key
// order: each cell's three needed-rate sums, max95 and cell count.
var covCellCodec = binio.MapOf(binio.IntCodec, binio.Codec[*covCell]{
	Min: 40,
	Write: func(w *binio.Writer, c *covCell) {
		w.F64(c.n50)
		w.F64(c.n80)
		w.F64(c.n95)
		w.Int(c.max95)
		w.Int(c.cells)
	},
	Read: func(r *binio.Reader) *covCell {
		return &covCell{n50: r.F64(), n80: r.F64(), n95: r.F64(), max95: r.Int(), cells: r.Int()}
	},
})

// Snapshot serializes the coverage core's partial state at a network
// boundary.
func (a *CoverageAccum) Snapshot(w io.Writer) error {
	if a.scope == Network || a.scope == AP {
		a.finishNet()
	}
	bw := binio.NewWriter(w)
	bw.U8(coverageSnapV1)
	bw.U8(uint8(a.scope))
	bw.Int(a.numRates)
	bw.Int(a.agg.minObs)
	writeTable(bw, a.table)
	covCellCodec.Write(bw, a.agg.bySNR)
	return bw.Err()
}

// Restore loads a Snapshot into a freshly constructed accumulator with
// the same scope, rate count, and cell floor.
func (a *CoverageAccum) Restore(r io.Reader) error {
	br := binio.NewReader(r)
	if v := br.U8(); br.Err() == nil && v != coverageSnapV1 {
		return fmt.Errorf("snr: coverage snapshot version %d, want %d", v, coverageSnapV1)
	}
	if sc := Scope(br.U8()); br.Err() == nil && sc != a.scope {
		return fmt.Errorf("snr: coverage snapshot scope %v, accumulator %v", sc, a.scope)
	}
	if nr := br.Int(); br.Err() == nil && nr != a.numRates {
		return fmt.Errorf("snr: coverage snapshot has %d rates, accumulator %d", nr, a.numRates)
	}
	if mo := br.Int(); br.Err() == nil && mo != a.agg.minObs {
		return fmt.Errorf("snr: coverage snapshot minObs %d, accumulator %d", mo, a.agg.minObs)
	}
	if err := readTable(br, a.table); err != nil {
		return fmt.Errorf("snr: coverage snapshot: %w", err)
	}
	bySNR := covCellCodec.Read(br)
	if err := br.Err(); err != nil {
		return fmt.Errorf("snr: coverage snapshot: %w", err)
	}
	a.agg.bySNR = bySNR
	a.held = nil
	a.curNet, a.netSeen = "", false
	return nil
}

// rowCodec encodes SNR-keyed throughput rows in ascending key order:
// each row's sample count, then its per-rate histograms.
func (a *TputAccum) rowCodec() binio.Codec[map[int]*tputRow] {
	return binio.MapOf(binio.IntCodec, binio.Codec[*tputRow]{
		Min: 8 + 16*a.numRates,
		Write: func(w *binio.Writer, row *tputRow) {
			w.I64(row.n)
			for ri := range row.cells {
				writeHist(w, &row.cells[ri])
			}
		},
		Read: func(r *binio.Reader) *tputRow {
			row := &tputRow{n: r.I64(), cells: make([]diffHist, a.numRates)}
			if a.grid != nil {
				row.levels = make([]int64, a.numRates*levels)
			}
			for ri := range row.cells {
				readHist(r, &row.cells[ri])
			}
			return row
		},
	})
}

// Snapshot serializes the throughput-vs-SNR core's partial state (any
// boundary — its histogram is order-independent).
func (a *TputAccum) Snapshot(w io.Writer) error {
	a.flushLevels()
	bw := binio.NewWriter(w)
	bw.U8(tputSnapV1)
	bw.Int(a.numRates)
	bw.Int(a.minObs)
	a.rowCodec().Write(bw, a.rows)
	return bw.Err()
}

// Restore loads a Snapshot into a freshly constructed accumulator.
func (a *TputAccum) Restore(r io.Reader) error {
	br := binio.NewReader(r)
	if v := br.U8(); br.Err() == nil && v != tputSnapV1 {
		return fmt.Errorf("snr: tput snapshot version %d, want %d", v, tputSnapV1)
	}
	if nr := br.Int(); br.Err() == nil && nr != a.numRates {
		return fmt.Errorf("snr: tput snapshot has %d rates, accumulator %d", nr, a.numRates)
	}
	if mo := br.Int(); br.Err() == nil && mo != a.minObs {
		return fmt.Errorf("snr: tput snapshot minObs %d, accumulator %d", mo, a.minObs)
	}
	rows := a.rowCodec().Read(br)
	if err := br.Err(); err != nil {
		return fmt.Errorf("snr: tput snapshot: %w", err)
	}
	a.rows, a.minSNR, a.maxSNR = rows, 0, 0
	if snrs := slices.Sorted(maps.Keys(rows)); len(snrs) > 0 {
		a.minSNR, a.maxSNR = snrs[0], snrs[len(snrs)-1]
	}
	return nil
}

// rateSetCodec encodes SNR-keyed rate sets in ascending key order, each
// set as the ascending list of its rate indices.
var rateSetCodec = binio.MapOf(binio.IntCodec, binio.Codec[map[int]bool]{
	Min: 8,
	Write: func(w *binio.Writer, set map[int]bool) {
		binio.ListOf(binio.IntCodec).Write(w, slices.Sorted(maps.Keys(set)))
	},
	Read: func(r *binio.Reader) map[int]bool {
		rates := binio.ListOf(binio.IntCodec).Read(r)
		set := make(map[int]bool, len(rates))
		for _, ri := range rates {
			set[ri] = true
		}
		return set
	},
})

// Snapshot serializes the optimal-rate-set core's partial state.
func (a *RateSetAccum) Snapshot(w io.Writer) error {
	bw := binio.NewWriter(w)
	bw.U8(rateSetSnapV1)
	rateSetCodec.Write(bw, a.seen)
	return bw.Err()
}

// Restore loads a Snapshot into a freshly constructed accumulator.
func (a *RateSetAccum) Restore(r io.Reader) error {
	br := binio.NewReader(r)
	if v := br.U8(); br.Err() == nil && v != rateSetSnapV1 {
		return fmt.Errorf("snr: rate-set snapshot version %d, want %d", v, rateSetSnapV1)
	}
	seen := rateSetCodec.Read(br)
	if err := br.Err(); err != nil {
		return fmt.Errorf("snr: rate-set snapshot: %w", err)
	}
	a.seen = seen
	return nil
}

// The strategy-replay and top-k cores hold only fixed-shape counters, so
// each describes its state once, as binio cells, and its Merge, Snapshot
// and Restore are loops over them.

// state lists the strategy core's construction (version, rate count,
// history cap, strategy count), then each strategy's counters. Strategy
// and the per-link scratch are not state.
func (a *StrategyAccum) state() []binio.Cell {
	cells := []binio.Cell{
		binio.Param("version", uint8(strategySnapV1), binio.U8Codec),
		binio.Param("rates", a.numRates, binio.IntCodec),
		binio.Param("maxX", a.maxX, binio.IntCodec),
		binio.Param("strategies", len(a.results), binio.IntCodec),
	}
	for i := range a.results {
		res := &a.results[i]
		cells = append(cells, binio.Counts(&res.Hits), binio.Counts(&res.Total),
			binio.Counter(&res.Updates), binio.Counter(&res.MemEntries), binio.Counter(&res.Skipped))
	}
	return cells
}

// state lists the top-k core's construction (version, rate count, the k
// sequence), then its per-k counters.
func (a *TopKAccum) state() []binio.Cell {
	cells := []binio.Cell{
		binio.Param("version", uint8(topkSnapV1), binio.U8Codec),
		binio.Param("rates", a.numRates, binio.IntCodec),
		binio.Param("ks", len(a.ks), binio.IntCodec),
	}
	for _, k := range a.ks {
		cells = append(cells, binio.Param("k", k, binio.IntCodec))
	}
	return append(cells, binio.Counts(&a.hits), binio.Counts(&a.evaluated))
}

// Merge folds another strategy partial into this one. Both accumulators
// must share numRates and maxX.
func (a *StrategyAccum) Merge(o *StrategyAccum) { mergeCells(a.state(), o.state()) }

// Snapshot serializes the strategy-replay core's partial state.
func (a *StrategyAccum) Snapshot(w io.Writer) error {
	return binio.WriteCells(binio.NewWriter(w), a.state())
}

// Restore loads a Snapshot into a freshly constructed accumulator with
// the same rate count and history cap.
func (a *StrategyAccum) Restore(r io.Reader) error { return restoreCells(r, "strategy", a.state()) }

// Merge folds another top-k partial into this one. Both accumulators must
// share numRates and the same k sequence.
func (a *TopKAccum) Merge(o *TopKAccum) { mergeCells(a.state(), o.state()) }

// Snapshot serializes the top-k core's partial state.
func (a *TopKAccum) Snapshot(w io.Writer) error {
	return binio.WriteCells(binio.NewWriter(w), a.state())
}

// Restore loads a Snapshot into a freshly constructed accumulator with
// the same rate count and k sequence.
func (a *TopKAccum) Restore(r io.Reader) error { return restoreCells(r, "top-k", a.state()) }

// mergeCells merges two cores' state lists. The lists differ only when
// the cores were built differently, which is a caller's bug.
func mergeCells(dst, src []binio.Cell) {
	if err := binio.MergeCells(dst, src); err != nil {
		panic("snr: " + err.Error())
	}
}

func restoreCells(r io.Reader, what string, cells []binio.Cell) error {
	if err := binio.ReadCells(binio.NewReader(r), cells); err != nil {
		return fmt.Errorf("snr: %s snapshot: %w", what, err)
	}
	return nil
}
