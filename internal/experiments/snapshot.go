package experiments

// snapshot.go makes every experiment accumulator checkpointable: a
// StreamContext can serialize all partial state at a network boundary
// (Snapshot) and a fresh context can load it back (Restore) and continue
// the walk, finalizing byte-identically to an uninterrupted run. The
// shard runner (internal/shard) uses this through internal/checkpoint to
// make crashed streaming runs resumable.
//
// Why the resume is exact, per accumulator family (mirroring merge.go's
// argument): counter/histogram state (the §4 cores, via their own pinned
// snr snapshots) serializes losslessly, and per-network appends (the
// §3/§5/§6 censuses) serialize the exact prefix sequence — continuing
// the walk from the next network reproduces the fleet-order appends.
// Shared-only experiments carry no per-network state and serialize
// nothing.
//
// A snapshot must be taken from the driver goroutine between Observes
// (or between sample groups), after Flush has quiesced the pipeline —
// Snapshot does both itself.

import (
	"fmt"
	"io"
	"sort"

	"meshlab/internal/binio"
	"meshlab/internal/checkpoint"
	"meshlab/internal/hidden"
	"meshlab/internal/routing"
)

// streamSnapVersion versions the StreamContext snapshot envelope.
const streamSnapVersion = 1

// snapshotter is implemented by every registered accumulator: serialize
// partial state into the sticky-error writer, and load it back. Restore
// runs on a freshly constructed accumulator of the same registration.
// StreamContext.Snapshot drives it registry-aligned, so a future
// accumulator that forgets to implement it fails loudly there.
type snapshotter interface {
	snapshot(w *binio.Writer)
	restore(r *binio.Reader) error
}

// Shared snapshot helpers.

func writeF64s(w *binio.Writer, vs []float64) {
	w.Int(len(vs))
	for _, v := range vs {
		w.F64(v)
	}
}

func readF64s(r *binio.Reader) []float64 {
	n := r.Count(8)
	if r.Err() != nil || n == 0 {
		return nil
	}
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = r.F64()
	}
	return vs
}

func writeIntSlice(w *binio.Writer, vs []int) {
	w.Int(len(vs))
	for _, v := range vs {
		w.Int(v)
	}
}

func readIntSlice(r *binio.Reader) []int {
	n := r.Count(8)
	if r.Err() != nil || n == 0 {
		return nil
	}
	vs := make([]int, n)
	for i := range vs {
		vs[i] = r.Int()
	}
	return vs
}

func sortedImpKeys[V any](m map[impKey]V) []impKey {
	keys := make([]impKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].rate != keys[j].rate {
			return keys[i].rate < keys[j].rate
		}
		return keys[i].variant < keys[j].variant
	})
	return keys
}

func writeImpFloats(w *binio.Writer, m map[impKey][]float64) {
	keys := sortedImpKeys(m)
	w.Int(len(keys))
	for _, k := range keys {
		w.Int(k.rate)
		w.Int(int(k.variant))
		writeF64s(w, m[k])
	}
}

func readImpFloats(r *binio.Reader, dst map[impKey][]float64) {
	n := r.Count(8)
	for i := 0; i < n && r.Err() == nil; i++ {
		k := impKey{rate: r.Int()}
		k.variant = routing.Variant(r.Int())
		dst[k] = readF64s(r)
	}
}

func writeImpInts(w *binio.Writer, m map[impKey]int) {
	keys := sortedImpKeys(m)
	w.Int(len(keys))
	for _, k := range keys {
		w.Int(k.rate)
		w.Int(int(k.variant))
		w.Int(m[k])
	}
}

func readImpInts(r *binio.Reader, dst map[impKey]int) {
	n := r.Count(8)
	for i := 0; i < n && r.Err() == nil; i++ {
		k := impKey{rate: r.Int()}
		k.variant = routing.Variant(r.Int())
		dst[k] = r.Int()
	}
}

func writeIntFloats(w *binio.Writer, m map[int][]float64) {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	w.Int(len(keys))
	for _, k := range keys {
		w.Int(k)
		writeF64s(w, m[k])
	}
}

// readIntFloats preserves the lazily-nil convention: zero entries decode
// to a nil map, matching an accumulator that never observed.
func readIntFloats(r *binio.Reader) map[int][]float64 {
	n := r.Count(8)
	if r.Err() != nil || n == 0 {
		return nil
	}
	m := make(map[int][]float64, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		k := r.Int()
		m[k] = readF64s(r)
	}
	return m
}

func writeCensus(w *binio.Writer, results []*hidden.NetworkResult) {
	w.Int(len(results))
	for _, nr := range results {
		w.String(nr.Net)
		w.String(nr.Env)
		w.Int(nr.Size)
		w.Int(len(nr.Rates))
		for _, rr := range nr.Rates {
			w.Int(rr.RateIdx)
			w.Int(rr.Relevant)
			w.Int(rr.Hidden)
			w.F64(rr.Fraction)
			w.Int(rr.Range)
		}
	}
}

func readCensus(r *binio.Reader) []*hidden.NetworkResult {
	n := r.Count(8)
	if r.Err() != nil || n == 0 {
		return nil
	}
	out := make([]*hidden.NetworkResult, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		nr := &hidden.NetworkResult{Net: r.String(), Env: r.String(), Size: r.Int()}
		m := r.Count(8)
		for j := 0; j < m && r.Err() == nil; j++ {
			nr.Rates = append(nr.Rates, hidden.RateResult{
				RateIdx: r.Int(), Relevant: r.Int(), Hidden: r.Int(),
				Fraction: r.F64(), Range: r.Int(),
			})
		}
		out = append(out, nr)
	}
	return out
}

func (sharedOnly) snapshot(*binio.Writer)      {}
func (sharedOnly) restore(*binio.Reader) error { return nil }

// §3

func (a *fig31Acc) snapshot(w *binio.Writer) {
	writeF64s(w, a.probeStds)
	writeF64s(w, a.linkStds)
	writeF64s(w, a.netStds)
}

func (a *fig31Acc) restore(r *binio.Reader) error {
	a.probeStds = readF64s(r)
	a.linkStds = readF64s(r)
	a.netStds = readF64s(r)
	return r.Err()
}

// §4 — delegate to the chunked snr cores, whose snapshots are pinned by
// their own snapshot→restore→continue oracles.

func (a *fig41Acc) snapshot(w *binio.Writer) { w.Check(a.sets.Snapshot(w)) }
func (a *fig41Acc) restore(r *binio.Reader) error {
	if err := a.sets.Restore(r); err != nil {
		return err
	}
	return r.Err()
}

func (a *coverageAcc) snapshot(w *binio.Writer) {
	w.Int(len(a.scope))
	for _, acc := range a.scope {
		w.Check(acc.Snapshot(w))
	}
}

func (a *coverageAcc) restore(r *binio.Reader) error {
	if n := r.Int(); r.Err() == nil && n != len(a.scope) {
		return fmt.Errorf("coverage snapshot has %d scopes, accumulator %d", n, len(a.scope))
	}
	for _, acc := range a.scope {
		if err := acc.Restore(r); err != nil {
			return err
		}
	}
	return r.Err()
}

func (a *fig44Acc) snapshot(w *binio.Writer) {
	w.Int(len(a.bands))
	for i := range a.bands {
		w.String(a.bands[i].name)
		w.Int(a.bands[i].seen)
		w.Check(a.bands[i].acc.Snapshot(w))
	}
}

func (a *fig44Acc) restore(r *binio.Reader) error {
	if n := r.Int(); r.Err() == nil && n != len(a.bands) {
		return fmt.Errorf("fig4.4 snapshot has %d bands, accumulator %d", n, len(a.bands))
	}
	for i := range a.bands {
		if name := r.String(); r.Err() == nil && name != a.bands[i].name {
			return fmt.Errorf("fig4.4 snapshot band %q at slot %d, accumulator %q", name, i, a.bands[i].name)
		}
		a.bands[i].seen = r.Int()
		if err := a.bands[i].acc.Restore(r); err != nil {
			return err
		}
	}
	return r.Err()
}

func (a *fig45Acc) snapshot(w *binio.Writer) { w.Check(a.tput.Snapshot(w)) }
func (a *fig45Acc) restore(r *binio.Reader) error {
	if err := a.tput.Restore(r); err != nil {
		return err
	}
	return r.Err()
}

// fig4.6 and tab4.1 snapshot through their embedded strategyReader: each
// writes the shared replay, so a section holds the bytes it did when each
// experiment ran a replay of its own.

// §5

func (a *fig51Acc) snapshot(w *binio.Writer) {
	w.Int(a.nets)
	writeImpFloats(w, a.imps)
	writeImpInts(w, a.none)
	writeImpInts(w, a.small)
}

func (a *fig51Acc) restore(r *binio.Reader) error {
	a.nets = r.Int()
	readImpFloats(r, a.imps)
	readImpInts(r, a.none)
	readImpInts(r, a.small)
	return r.Err()
}

func (a *fig52Acc) snapshot(w *binio.Writer)      { writeIntFloats(w, a.ratios) }
func (a *fig52Acc) restore(r *binio.Reader) error { a.ratios = readIntFloats(r); return r.Err() }

func (a *fig53Acc) snapshot(w *binio.Writer)      { writeIntFloats(w, a.hops) }
func (a *fig53Acc) restore(r *binio.Reader) error { a.hops = readIntFloats(r); return r.Err() }

func (a *fig54Acc) snapshot(w *binio.Writer)      { writeIntFloats(w, a.byHops) }
func (a *fig54Acc) restore(r *binio.Reader) error { a.byHops = readIntFloats(r); return r.Err() }

func (a *fig55Acc) snapshot(w *binio.Writer) {
	w.Int(len(a.pts))
	for _, p := range a.pts {
		w.Int(p.size)
		w.F64(p.mean)
		w.F64(p.std)
	}
}

func (a *fig55Acc) restore(r *binio.Reader) error {
	n := r.Count(24)
	for i := 0; i < n && r.Err() == nil; i++ {
		a.pts = append(a.pts, netPoint{size: r.Int(), mean: r.F64(), std: r.F64()})
	}
	return r.Err()
}

// §6 — censusBG is embedded, so one promoted implementation covers
// fig6.1, fig6.2, and §6.3.

func (c *censusBG) snapshot(w *binio.Writer) { writeCensus(w, c.results) }
func (c *censusBG) restore(r *binio.Reader) error {
	c.results = readCensus(r)
	return r.Err()
}

func (a *abl6tAcc) snapshot(w *binio.Writer) {
	keys := make([]float64, 0, len(a.censuses))
	for k := range a.censuses {
		keys = append(keys, k)
	}
	sort.Float64s(keys)
	w.Int(len(keys))
	for _, k := range keys {
		w.F64(k)
		writeCensus(w, a.censuses[k])
	}
}

func (a *abl6tAcc) restore(r *binio.Reader) error {
	n := r.Count(8)
	for i := 0; i < n && r.Err() == nil; i++ {
		k := r.F64()
		a.censuses[k] = readCensus(r)
	}
	return r.Err()
}

// Extensions

func (a *ext4topkAcc) snapshot(w *binio.Writer) {
	w.Int(len(a.bands))
	for i := range a.bands {
		w.String(a.bands[i].name)
		w.Int(a.bands[i].seen)
		w.Check(a.bands[i].acc.Snapshot(w))
	}
}

func (a *ext4topkAcc) restore(r *binio.Reader) error {
	if n := r.Int(); r.Err() == nil && n != len(a.bands) {
		return fmt.Errorf("ext4.topk snapshot has %d bands, accumulator %d", n, len(a.bands))
	}
	for i := range a.bands {
		if name := r.String(); r.Err() == nil && name != a.bands[i].name {
			return fmt.Errorf("ext4.topk snapshot band %q at slot %d, accumulator %q", name, i, a.bands[i].name)
		}
		a.bands[i].seen = r.Int()
		if err := a.bands[i].acc.Restore(r); err != nil {
			return err
		}
	}
	return r.Err()
}

func (a *ext5ettAcc) snapshot(w *binio.Writer) {
	writeF64s(w, a.gains)
	writeIntSlice(w, a.rateWins)
}

func (a *ext5ettAcc) restore(r *binio.Reader) error {
	a.gains = readF64s(r)
	wins := readIntSlice(r)
	if r.Err() == nil && len(wins) != len(a.rateWins) {
		return fmt.Errorf("ext5.ett snapshot has %d rate bins, accumulator %d", len(wins), len(a.rateWins))
	}
	if r.Err() == nil {
		copy(a.rateWins, wins)
	}
	return r.Err()
}

// ext6mac's rng root is keyed by (network name, triple index) and is
// stateless across networks, so it is reconstructed at NewStreamContext
// and deliberately not serialized.
func (a *ext6macAcc) snapshot(w *binio.Writer) {
	writeF64s(w, a.hiddenPens)
	writeF64s(w, a.openPens)
}

func (a *ext6macAcc) restore(r *binio.Reader) error {
	a.hiddenPens = readF64s(r)
	a.openPens = readF64s(r)
	return r.Err()
}

// StreamContext integration.

// Flush blocks until every network already accepted by Observe has been
// folded into the accumulators, and returns the first pipeline error. It
// must be called from the driver goroutine (never concurrently with
// Observe); afterwards the accumulators are quiescent until the next
// Observe/ObserveSampleGroup.
func (s *StreamContext) Flush() error {
	if s.drained {
		return s.loadErr()
	}
	s.start.Do(func() { go s.collect() })
	s.mu.Lock()
	for s.inFlight > 0 {
		s.idle.Wait()
	}
	err := s.err
	s.mu.Unlock()
	return err
}

// Snapshot quiesces the pipeline and serializes every accumulator's
// partial state — the walk's position must be a network boundary (and,
// during a deferred sample walk, a sample-group network boundary), so a
// fresh context restored from these bytes and fed the remaining
// networks/groups finalizes byte-identically to an uninterrupted run.
// The context remains live and may continue observing.
func (s *StreamContext) Snapshot(w io.Writer) error {
	if s.drained || s.finalized {
		return fmt.Errorf("experiments: Snapshot after Drain/Finalize")
	}
	if err := s.Flush(); err != nil {
		return err
	}
	bw := binio.NewWriter(w)
	bw.U8(streamSnapVersion)
	s.mu.Lock()
	networks := s.networks
	s.mu.Unlock()
	bw.Int(networks)
	bw.Bool(s.samplesDone)
	bw.Int(len(s.accs))
	for i, acc := range s.accs {
		sn, ok := acc.(snapshotter)
		if !ok {
			return fmt.Errorf("experiments: %s: accumulator %T does not implement snapshot", s.ids[i], acc)
		}
		bw.String(s.ids[i])
		sn.snapshot(bw)
		if err := bw.Err(); err != nil {
			return fmt.Errorf("experiments: %s: snapshot: %w", s.ids[i], err)
		}
	}
	return bw.Err()
}

// Restore loads a Snapshot into this context, which must be freshly
// constructed (same registry; any worker count) and not yet observed.
// The driver then continues the walk from the first network (and sample
// group) the snapshot had not fully observed. Corrupt or mismatched
// snapshots error without partially mutating accumulator state in ways a
// later walk could silently extend — callers must discard the context on
// error. A snapshot of a different experiment selection wraps
// checkpoint.ErrMismatch: resuming it would blend two runs.
func (s *StreamContext) Restore(r io.Reader) error {
	if s.networks != 0 || s.drained || s.finalized || s.samplesDone {
		return fmt.Errorf("experiments: Restore on a used context")
	}
	br := binio.NewReader(r)
	if v := br.U8(); br.Err() == nil && v != streamSnapVersion {
		return fmt.Errorf("experiments: snapshot version %d, want %d", v, streamSnapVersion)
	}
	networks := br.Int()
	samplesDone := br.Bool()
	n := br.Int()
	if err := br.Err(); err != nil {
		return fmt.Errorf("experiments: snapshot: %w", err)
	}
	if networks < 0 {
		return fmt.Errorf("experiments: snapshot claims %d networks", networks)
	}
	if n != len(s.accs) {
		return fmt.Errorf("experiments: %w: snapshot has %d experiments, run selects %d", checkpoint.ErrMismatch, n, len(s.accs))
	}
	for i, acc := range s.accs {
		id := br.String()
		if err := br.Err(); err != nil {
			return fmt.Errorf("experiments: snapshot: %w", err)
		}
		if id != s.ids[i] {
			return fmt.Errorf("experiments: %w: snapshot experiment %q at slot %d, run selects %q", checkpoint.ErrMismatch, id, i, s.ids[i])
		}
		sn, ok := acc.(snapshotter)
		if !ok {
			return fmt.Errorf("experiments: %s: accumulator %T does not implement snapshot", s.ids[i], acc)
		}
		if err := sn.restore(br); err != nil {
			return fmt.Errorf("experiments: %s: restore: %w", s.ids[i], err)
		}
	}
	if err := br.Err(); err != nil {
		return fmt.Errorf("experiments: snapshot: %w", err)
	}
	s.mu.Lock()
	s.networks = networks
	s.mu.Unlock()
	s.samplesDone = samplesDone
	return nil
}
