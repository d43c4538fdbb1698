package experiments

// state.go folds and checkpoints accumulators through their state lists.
// Every accumulator lists its persistent state once, as state() (binio's
// cell kinds over the value codecs below, plus the shared-replay cell),
// and the three operations the engine needs are loops over that list:
//
//   - merge: the streaming collector folds each network's one-network
//     partial, measured on a pipeline worker, into the run's
//     accumulators in fleet order, and the shard runner (internal/shard)
//     folds whole shards' contexts in shard order (StreamContext.Merge).
//     Either way Finalize emits tables byte-identical to a single serial
//     pass; binio's cells.go argues why.
//   - snapshot and restore: a StreamContext serializes all partial state
//     at a network boundary (Snapshot), and a fresh context loads it back
//     (Restore) and continues the walk, finalizing byte-identically to an
//     uninterrupted run. The shard runner uses this through
//     internal/checkpoint to make crashed streaming runs resumable.
//
// Shared-only experiments (§7, the ablations) keep no per-network state:
// their list is empty. A merged-from accumulator must not be observed or
// finalized afterwards. docs/FORMAT.md documents the snapshot layout.

import (
	"cmp"
	"fmt"
	"io"
	"slices"

	"meshlab/internal/binio"
	"meshlab/internal/checkpoint"
	"meshlab/internal/hidden"
	"meshlab/internal/routing"
)

// streamSnapVersion versions the StreamContext snapshot envelope.
const streamSnapVersion = 1

// impKeyCodec encodes a routing comparison key as its rate and variant
// (two Ints), ordered by rate, then variant.
var impKeyCodec = binio.Codec[impKey]{
	Min:   16,
	Write: func(w *binio.Writer, k impKey) { w.Int(k.rate); w.Int(int(k.variant)) },
	Read:  func(r *binio.Reader) impKey { return impKey{rate: r.Int(), variant: routing.Variant(r.Int())} },
	Compare: func(a, b impKey) int {
		return cmp.Or(cmp.Compare(a.rate, b.rate), cmp.Compare(a.variant, b.variant))
	},
}

// netPointCodec encodes one fig5.5 point as size (an Int), mean and std.
var netPointCodec = binio.Codec[netPoint]{
	Min:   24,
	Write: func(w *binio.Writer, p netPoint) { w.Int(p.size); w.F64(p.mean); w.F64(p.std) },
	Read:  func(r *binio.Reader) netPoint { return netPoint{size: r.Int(), mean: r.F64(), std: r.F64()} },
}

// censusCodec encodes one network's §6 census: its name, environment and
// size, then the list of per-rate results.
var censusCodec = binio.Codec[*hidden.NetworkResult]{
	Min: 32,
	Write: func(w *binio.Writer, nr *hidden.NetworkResult) {
		w.String(nr.Net)
		w.String(nr.Env)
		w.Int(nr.Size)
		rateResults.Write(w, nr.Rates)
	},
	Read: func(r *binio.Reader) *hidden.NetworkResult {
		return &hidden.NetworkResult{Net: r.String(), Env: r.String(), Size: r.Int(), Rates: rateResults.Read(r)}
	},
}

// rateResults encodes a census's per-rate results, each as rate index,
// relevant and hidden counts, hidden fraction and range.
var rateResults = binio.ListOf(binio.Codec[hidden.RateResult]{
	Min: 40,
	Write: func(w *binio.Writer, rr hidden.RateResult) {
		w.Int(rr.RateIdx)
		w.Int(rr.Relevant)
		w.Int(rr.Hidden)
		w.F64(rr.Fraction)
		w.Int(rr.Range)
	},
	Read: func(r *binio.Reader) hidden.RateResult {
		return hidden.RateResult{RateIdx: r.Int(), Relevant: r.Int(), Hidden: r.Int(), Fraction: r.F64(), Range: r.Int()}
	},
})

// replayCell is the shared strategy replay as fig4.6's and tab4.1's
// state. Each writes the whole replay, so a snapshot holds the bytes it
// did when each experiment ran a replay of its own; on restore the first
// section loads the replay and a later one must agree with it. Its merge
// is empty: StreamContext.Merge folds the shared replay once.
type replayCell struct{ p *strategyReplay }

func (replayCell) Merge(binio.Cell) error  { return nil }
func (c replayCell) Write(w *binio.Writer) { w.Check(c.p.acc.Snapshot(w)) }
func (c replayCell) Read(r *binio.Reader)  { r.Check(c.p.restore(r)) }

// Drain shuts the pipeline down and folds every in-flight network into
// the accumulators — Finalize's first half, without rendering results.
// After Drain the context must not be observed again; its remaining uses
// are Merge (in either direction) and, on the merge target, Finalize.
// Drain is idempotent and returns the first pipeline error.
func (s *StreamContext) Drain() error {
	if !s.drained {
		s.drained = true
		s.start.Do(func() { go s.collect() })
		close(s.jobs)
		<-s.collectorDone
	}
	return s.loadErr()
}

// Merge drains both contexts and folds o's accumulator state into this
// one, as if this context had observed o's networks (and sample groups)
// after its own. Both contexts must come from NewStreamContext with the
// same selection (any worker counts); o must have observed a contiguous
// run of networks that follows this context's, and must not be used
// afterwards. Client data is not merged — the driver sets it once on the
// merge target.
func (s *StreamContext) Merge(o *StreamContext) error {
	if s.finalized || o.finalized {
		return fmt.Errorf("experiments: Merge after Finalize")
	}
	if err := s.Drain(); err != nil {
		return err
	}
	if err := o.Drain(); err != nil {
		return err
	}
	if !slices.Equal(s.ids, o.ids) {
		return fmt.Errorf("experiments: Merge across different experiment selections (%v vs %v)", s.ids, o.ids)
	}
	for i, acc := range s.accs {
		if err := binio.MergeCells(acc.state(), o.accs[i].state()); err != nil {
			return fmt.Errorf("experiments: %s: %w", s.ids[i], err)
		}
	}
	if s.replay != nil {
		s.replay.acc.Merge(o.replay.acc)
	}
	s.samplesDone = s.samplesDone || o.samplesDone
	s.mu.Lock()
	o.mu.Lock()
	s.networks += o.networks
	if o.maxInFlight > s.maxInFlight {
		s.maxInFlight = o.maxInFlight
	}
	o.mu.Unlock()
	s.mu.Unlock()
	return nil
}

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
		bw.String(s.ids[i])
		if err := binio.WriteCells(bw, acc.state()); err != nil {
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
		if err := binio.ReadCells(br, acc.state()); err != nil {
			return fmt.Errorf("experiments: %s: restore: %w", s.ids[i], err)
		}
	}
	s.mu.Lock()
	s.networks = networks
	s.mu.Unlock()
	s.samplesDone = samplesDone
	return nil
}
