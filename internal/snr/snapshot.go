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
	"fmt"
	"io"
	"sort"

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

// writeCells serializes SNR-keyed banked cells in ascending key order.
func writeCells(w *binio.Writer, nr int, cells map[int]*bankedCell) {
	keys := make([]int, 0, len(cells))
	for k := range cells {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	w.Int(len(keys))
	for _, k := range keys {
		cell := cells[k]
		w.Int(k)
		for _, c := range cell.counts {
			w.I64(c)
		}
		for p := range cell.pend {
			writeHist(w, &cell.pend[p])
		}
	}
}

func readCells(r *binio.Reader, nr int) map[int]*bankedCell {
	n := r.Count(8)
	if r.Err() != nil {
		return nil
	}
	cells := make(map[int]*bankedCell, n)
	for i := 0; i < n; i++ {
		k := r.Int()
		cell := &bankedCell{counts: make([]int64, nr), pend: make([]diffHist, nr)}
		for ri := 0; ri < nr; ri++ {
			cell.counts[ri] = r.I64()
		}
		for p := 0; p < nr; p++ {
			readHist(r, &cell.pend[p])
		}
		if r.Err() != nil {
			return nil
		}
		cells[k] = cell
	}
	return cells
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
			writeCells(bw, a.numRates, st.cells)
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
			cells := readCells(br, a.numRates)
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

// writeTable serializes a count table with fully sorted keys.
func writeTable(w *binio.Writer, t *Table) {
	w.Bool(t != nil)
	if t == nil {
		return
	}
	w.U8(uint8(t.Scope))
	w.Int(t.NumRates)
	keys := make([]instKey, 0, len(t.counts))
	for k := range t.counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.net != b.net {
			return a.net < b.net
		}
		if a.from != b.from {
			return a.from < b.from
		}
		return a.to < b.to
	})
	w.Int(len(keys))
	for _, k := range keys {
		w.String(k.net)
		w.I64(int64(k.from))
		w.I64(int64(k.to))
		inner := t.counts[k]
		snrs := make([]int, 0, len(inner))
		for s := range inner {
			snrs = append(snrs, s)
		}
		sort.Ints(snrs)
		w.Int(len(snrs))
		for _, s := range snrs {
			w.Int(s)
			for _, c := range inner[s] {
				w.I64(int64(c))
			}
		}
	}
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
	n := r.Count(8)
	if err := r.Err(); err != nil {
		return err
	}
	counts := make(map[instKey]map[int][]int, n)
	for i := 0; i < n; i++ {
		k := instKey{net: r.String(), from: int32(r.I64()), to: int32(r.I64())}
		m := r.Count(8)
		if r.Err() != nil {
			return r.Err()
		}
		inner := make(map[int][]int, m)
		for j := 0; j < m; j++ {
			s := r.Int()
			row := make([]int, t.NumRates)
			for ri := range row {
				row[ri] = int(r.I64())
			}
			if r.Err() != nil {
				return r.Err()
			}
			inner[s] = row
		}
		counts[k] = inner
	}
	t.counts = counts
	return r.Err()
}

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
	snrs := make([]int, 0, len(a.agg.bySNR))
	for s := range a.agg.bySNR {
		snrs = append(snrs, s)
	}
	sort.Ints(snrs)
	bw.Int(len(snrs))
	for _, s := range snrs {
		c := a.agg.bySNR[s]
		bw.Int(s)
		bw.F64(c.n50)
		bw.F64(c.n80)
		bw.F64(c.n95)
		bw.Int(c.max95)
		bw.Int(c.cells)
	}
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
	n := br.Count(8)
	if err := br.Err(); err != nil {
		return fmt.Errorf("snr: coverage snapshot: %w", err)
	}
	bySNR := make(map[int]*covCell, n)
	for i := 0; i < n; i++ {
		s := br.Int()
		c := &covCell{n50: br.F64(), n80: br.F64(), n95: br.F64(), max95: br.Int(), cells: br.Int()}
		if err := br.Err(); err != nil {
			return fmt.Errorf("snr: coverage snapshot: %w", err)
		}
		bySNR[s] = c
	}
	a.agg.bySNR = bySNR
	a.held = nil
	a.curNet, a.netSeen = "", false
	return br.Err()
}

// Snapshot serializes the throughput-vs-SNR core's partial state (any
// boundary — its histogram is order-independent).
func (a *TputAccum) Snapshot(w io.Writer) error {
	a.flushLevels()
	bw := binio.NewWriter(w)
	bw.U8(tputSnapV1)
	bw.Int(a.numRates)
	bw.Int(a.minObs)
	snrs := make([]int, 0, len(a.rows))
	for s := range a.rows {
		snrs = append(snrs, s)
	}
	sort.Ints(snrs)
	bw.Int(len(snrs))
	for _, s := range snrs {
		row := a.rows[s]
		bw.Int(s)
		bw.I64(row.n)
		for ri := range row.cells {
			writeHist(bw, &row.cells[ri])
		}
	}
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
	n := br.Count(8)
	if err := br.Err(); err != nil {
		return fmt.Errorf("snr: tput snapshot: %w", err)
	}
	rows := make(map[int]*tputRow, n)
	minSNR, maxSNR := 0, 0
	for i := 0; i < n; i++ {
		s := br.Int()
		row := &tputRow{n: br.I64(), cells: make([]diffHist, a.numRates)}
		if a.grid != nil {
			row.levels = make([]int64, a.numRates*levels)
		}
		for ri := 0; ri < a.numRates; ri++ {
			readHist(br, &row.cells[ri])
		}
		if err := br.Err(); err != nil {
			return fmt.Errorf("snr: tput snapshot: %w", err)
		}
		rows[s] = row
		if i == 0 || s < minSNR {
			minSNR = s
		}
		if i == 0 || s > maxSNR {
			maxSNR = s
		}
	}
	a.rows = rows
	a.minSNR, a.maxSNR = minSNR, maxSNR
	return br.Err()
}

// Snapshot serializes the optimal-rate-set core's partial state.
func (a *RateSetAccum) Snapshot(w io.Writer) error {
	bw := binio.NewWriter(w)
	bw.U8(rateSetSnapV1)
	snrs := make([]int, 0, len(a.seen))
	for s := range a.seen {
		snrs = append(snrs, s)
	}
	sort.Ints(snrs)
	bw.Int(len(snrs))
	for _, s := range snrs {
		bw.Int(s)
		rates := make([]int, 0, len(a.seen[s]))
		for ri := range a.seen[s] {
			rates = append(rates, ri)
		}
		sort.Ints(rates)
		bw.Int(len(rates))
		for _, ri := range rates {
			bw.Int(ri)
		}
	}
	return bw.Err()
}

// Restore loads a Snapshot into a freshly constructed accumulator.
func (a *RateSetAccum) Restore(r io.Reader) error {
	br := binio.NewReader(r)
	if v := br.U8(); br.Err() == nil && v != rateSetSnapV1 {
		return fmt.Errorf("snr: rate-set snapshot version %d, want %d", v, rateSetSnapV1)
	}
	n := br.Count(8)
	if err := br.Err(); err != nil {
		return fmt.Errorf("snr: rate-set snapshot: %w", err)
	}
	seen := make(map[int]map[int]bool, n)
	for i := 0; i < n; i++ {
		s := br.Int()
		m := br.Count(8)
		if err := br.Err(); err != nil {
			return fmt.Errorf("snr: rate-set snapshot: %w", err)
		}
		rates := make(map[int]bool, m)
		for j := 0; j < m; j++ {
			rates[br.Int()] = true
		}
		if err := br.Err(); err != nil {
			return fmt.Errorf("snr: rate-set snapshot: %w", err)
		}
		seen[s] = rates
	}
	a.seen = seen
	return br.Err()
}

// writeIntSlice serializes a fixed-shape int slice.
func writeIntSlice(w *binio.Writer, vs []int) {
	w.Int(len(vs))
	for _, v := range vs {
		w.I64(int64(v))
	}
}

// readIntSliceInto decodes into dst, whose length must match the stored
// one.
func readIntSliceInto(r *binio.Reader, dst []int, what string) error {
	n := r.Count(8)
	if err := r.Err(); err != nil {
		return err
	}
	if n != len(dst) {
		return fmt.Errorf("snr: %s has %d entries, accumulator %d", what, n, len(dst))
	}
	for i := range dst {
		dst[i] = int(r.I64())
	}
	return r.Err()
}

// Snapshot serializes the strategy-replay core's partial state.
func (a *StrategyAccum) Snapshot(w io.Writer) error {
	bw := binio.NewWriter(w)
	bw.U8(strategySnapV1)
	bw.Int(a.numRates)
	bw.Int(a.maxX)
	bw.Int(len(a.results))
	for i := range a.results {
		res := &a.results[i]
		writeIntSlice(bw, res.Hits)
		writeIntSlice(bw, res.Total)
		bw.Int(res.Updates)
		bw.Int(res.MemEntries)
		bw.Int(res.Skipped)
	}
	return bw.Err()
}

// Restore loads a Snapshot into a freshly constructed accumulator with
// the same rate count and history cap.
func (a *StrategyAccum) Restore(r io.Reader) error {
	br := binio.NewReader(r)
	if v := br.U8(); br.Err() == nil && v != strategySnapV1 {
		return fmt.Errorf("snr: strategy snapshot version %d, want %d", v, strategySnapV1)
	}
	if nr := br.Int(); br.Err() == nil && nr != a.numRates {
		return fmt.Errorf("snr: strategy snapshot has %d rates, accumulator %d", nr, a.numRates)
	}
	if mx := br.Int(); br.Err() == nil && mx != a.maxX {
		return fmt.Errorf("snr: strategy snapshot maxX %d, accumulator %d", mx, a.maxX)
	}
	if n := br.Int(); br.Err() == nil && n != len(a.results) {
		return fmt.Errorf("snr: strategy snapshot has %d strategies, accumulator %d", n, len(a.results))
	}
	if err := br.Err(); err != nil {
		return fmt.Errorf("snr: strategy snapshot: %w", err)
	}
	for i := range a.results {
		res := &a.results[i]
		if err := readIntSliceInto(br, res.Hits, "strategy snapshot hits"); err != nil {
			return err
		}
		if err := readIntSliceInto(br, res.Total, "strategy snapshot totals"); err != nil {
			return err
		}
		res.Updates = br.Int()
		res.MemEntries = br.Int()
		res.Skipped = br.Int()
	}
	return br.Err()
}

// Snapshot serializes the top-k core's partial state.
func (a *TopKAccum) Snapshot(w io.Writer) error {
	bw := binio.NewWriter(w)
	bw.U8(topkSnapV1)
	bw.Int(a.numRates)
	writeIntSlice(bw, a.ks)
	writeIntSlice(bw, a.hits)
	writeIntSlice(bw, a.evaluated)
	return bw.Err()
}

// Restore loads a Snapshot into a freshly constructed accumulator with
// the same rate count and k set.
func (a *TopKAccum) Restore(r io.Reader) error {
	br := binio.NewReader(r)
	if v := br.U8(); br.Err() == nil && v != topkSnapV1 {
		return fmt.Errorf("snr: top-k snapshot version %d, want %d", v, topkSnapV1)
	}
	if nr := br.Int(); br.Err() == nil && nr != a.numRates {
		return fmt.Errorf("snr: top-k snapshot has %d rates, accumulator %d", nr, a.numRates)
	}
	ks := make([]int, len(a.ks))
	if err := readIntSliceInto(br, ks, "top-k snapshot ks"); err != nil {
		return err
	}
	for i, k := range ks {
		if k != a.ks[i] {
			return fmt.Errorf("snr: top-k snapshot ks %v, accumulator %v", ks, a.ks)
		}
	}
	if err := readIntSliceInto(br, a.hits, "top-k snapshot hits"); err != nil {
		return err
	}
	if err := readIntSliceInto(br, a.evaluated, "top-k snapshot evaluated"); err != nil {
		return err
	}
	return br.Err()
}
