package experiments

// merge.go is the fold of the streaming engine. Every accumulator merges
// another accumulator of its experiment into itself. The streaming
// collector folds each network's one-network partial, measured on a
// pipeline worker, into the run's accumulators in fleet order. The shard
// runner (internal/shard) runs one StreamContext per contiguous
// network-range shard and folds the shards' contexts, in shard order,
// into one context. Either way Finalize emits tables byte-identical to a
// single serial pass.
//
// Why the fold is exact: each accumulator's persistent state is either
// (a) integer counters / count-histogram tables (the §4 cores), where
// merge is addition with no floating-point reassociation, or (b) values
// appended once per network in fleet order (the §3/§5/§6 censuses), where
// concatenating contiguous runs of networks in order reproduces the exact
// fleet-order sequence. Shared-only experiments (§7, the ablations) keep
// no per-network state at all — their merge is a no-op and their finalize
// runs once, on the merged context.
//
// A merged-from accumulator must not be observed or finalized afterwards.

import (
	"fmt"
	"slices"
)

// mergeAs asserts other to the receiver's concrete type and applies fn.
func mergeAs[T accumulator](dst T, other accumulator, fn func(dst, src T)) error {
	src, ok := other.(T)
	if !ok {
		return fmt.Errorf("experiments: merge type mismatch: %T vs %T", dst, other)
	}
	fn(dst, src)
	return nil
}

// mergeAppendMap concatenates src's per-key slices onto dst's, in place.
func mergeAppendMap[K comparable, V any](dst map[K][]V, src map[K][]V) {
	for k, vs := range src {
		dst[k] = append(dst[k], vs...)
	}
}

func (sharedOnly) merge(accumulator) error { return nil }

// §3

func (a *fig31Acc) merge(o accumulator) error {
	return mergeAs(a, o, func(d, s *fig31Acc) {
		d.probeStds = append(d.probeStds, s.probeStds...)
		d.linkStds = append(d.linkStds, s.linkStds...)
		d.netStds = append(d.netStds, s.netStds...)
	})
}

// §4 — delegate to the chunked snr cores, whose Merge operations are
// pinned by their own shard-vs-whole oracles.

func (a *fig41Acc) merge(o accumulator) error {
	return mergeAs(a, o, func(d, s *fig41Acc) { d.sets.Merge(s.sets) })
}

func (a *coverageAcc) merge(o accumulator) error {
	return mergeAs(a, o, func(d, s *coverageAcc) {
		for i := range d.scope {
			d.scope[i].Merge(s.scope[i])
		}
	})
}

func (a *fig44Acc) merge(o accumulator) error {
	return mergeAs(a, o, func(d, s *fig44Acc) {
		for i := range d.bands {
			d.bands[i].acc.Merge(s.bands[i].acc)
			d.bands[i].seen += s.bands[i].seen
		}
	})
}

func (a *fig45Acc) merge(o accumulator) error {
	return mergeAs(a, o, func(d, s *fig45Acc) { d.tput.Merge(s.tput) })
}

// fig4.6 and tab4.1 render their context's shared strategy replay, which
// StreamContext.Merge folds once; their own merge only checks the type.

func (a *fig46Acc) merge(o accumulator) error {
	return mergeAs(a, o, func(*fig46Acc, *fig46Acc) {})
}

func (a *tab41Acc) merge(o accumulator) error {
	return mergeAs(a, o, func(*tab41Acc, *tab41Acc) {})
}

// §5 — per-network appends; shard-order concatenation restores fleet order.

func (a *fig51Acc) merge(o accumulator) error {
	return mergeAs(a, o, func(d, s *fig51Acc) {
		d.nets += s.nets
		mergeAppendMap(d.imps, s.imps)
		for k, n := range s.none {
			d.none[k] += n
		}
		for k, n := range s.small {
			d.small[k] += n
		}
	})
}

func (a *fig52Acc) merge(o accumulator) error {
	return mergeAs(a, o, func(d, s *fig52Acc) {
		if d.ratios == nil {
			d.ratios = map[int][]float64{}
		}
		mergeAppendMap(d.ratios, s.ratios)
	})
}

func (a *fig53Acc) merge(o accumulator) error {
	return mergeAs(a, o, func(d, s *fig53Acc) {
		if d.hops == nil {
			d.hops = map[int][]float64{}
		}
		mergeAppendMap(d.hops, s.hops)
	})
}

func (a *fig54Acc) merge(o accumulator) error {
	return mergeAs(a, o, func(d, s *fig54Acc) {
		if d.byHops == nil {
			d.byHops = map[int][]float64{}
		}
		mergeAppendMap(d.byHops, s.byHops)
	})
}

func (a *fig55Acc) merge(o accumulator) error {
	return mergeAs(a, o, func(d, s *fig55Acc) { d.pts = append(d.pts, s.pts...) })
}

// §6 — the censuses append one result per b/g network in fleet order.
// censusBG is embedded, so each outer type forwards to the shared fold.

func (c *censusBG) mergeCensus(o *censusBG) {
	c.results = append(c.results, o.results...)
}

func (a *fig61Acc) merge(o accumulator) error {
	return mergeAs(a, o, func(d, s *fig61Acc) { d.mergeCensus(&s.censusBG) })
}

func (a *fig62Acc) merge(o accumulator) error {
	return mergeAs(a, o, func(d, s *fig62Acc) { d.mergeCensus(&s.censusBG) })
}

func (a *sec63Acc) merge(o accumulator) error {
	return mergeAs(a, o, func(d, s *sec63Acc) { d.mergeCensus(&s.censusBG) })
}

func (a *abl6tAcc) merge(o accumulator) error {
	return mergeAs(a, o, func(d, s *abl6tAcc) {
		mergeAppendMap(d.censuses, s.censuses)
	})
}

// Extensions

func (a *ext4topkAcc) merge(o accumulator) error {
	return mergeAs(a, o, func(d, s *ext4topkAcc) {
		for i := range d.bands {
			d.bands[i].acc.Merge(s.bands[i].acc)
			d.bands[i].seen += s.bands[i].seen
		}
	})
}

func (a *ext5ettAcc) merge(o accumulator) error {
	return mergeAs(a, o, func(d, s *ext5ettAcc) {
		d.gains = append(d.gains, s.gains...)
		// rateWins is a fixed-length per-rate histogram, not a stream.
		for i, n := range s.rateWins {
			d.rateWins[i] += n
		}
	})
}

func (a *ext6macAcc) merge(o accumulator) error {
	// The rng substreams are keyed by (network name, triple index), so a
	// shard's penalties are identical to the whole run's; concatenation in
	// shard order restores fleet order.
	return mergeAs(a, o, func(d, s *ext6macAcc) {
		d.hiddenPens = append(d.hiddenPens, s.hiddenPens...)
		d.openPens = append(d.openPens, s.openPens...)
	})
}

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
		if err := acc.merge(o.accs[i]); err != nil {
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
