package experiments

// stream.go implements the experiment suite's one execution engine. A
// StreamContext consumes a fleet one network at a time — decoded off a
// wire.Reader walk (meshlab.StreamFleet, or one shard of internal/shard)
// or taken from an in-memory fleet (meshlab.AnalyzeFleet) — runs every
// selected experiment's accumulator over each network before the network
// is released, and finalizes into []*Result. The §4 samples flow the same
// way: per-network groups (flattened off the walk, or streamed from a
// file's flat-sample section) feed chunked accumulators and are released,
// so peak memory is bounded by the derived tables the accumulators retain
// (improvement distributions, censuses, count/histogram tables) plus the
// bounded window of in-flight networks — never by the fleet or the
// sample count.

import (
	"fmt"
	"sync"

	"meshlab/internal/conc"
	"meshlab/internal/dataset"
	"meshlab/internal/hidden"
	"meshlab/internal/mobility"
	"meshlab/internal/routing"
	"meshlab/internal/snr"
)

// NetView hands an observer one network plus its derived data — routing
// success matrices, opportunistic-routing comparisons, hidden-triple
// censuses — computed at most once per network no matter how many
// experiments ask. Views are not safe for concurrent use; the pipeline
// hands each network's view to one goroutine at a time.
type NetView struct {
	nd *dataset.NetworkData
	d  *streamDerived
}

// Data returns the decoded network.
func (nv *NetView) Data() *dataset.NetworkData { return nv.nd }

// Matrices returns the network's per-rate mean success matrices.
func (nv *NetView) Matrices() (map[int]routing.Matrix, error) {
	return nv.d.netMatrices(nv.nd)
}

// Improvements returns the network's opportunistic-routing comparison at
// one rate and ETX variant; all (rate, variant) pairs are computed on the
// first request.
func (nv *NetView) Improvements(rate int, v routing.Variant) ([]routing.PairResult, error) {
	return nv.d.netImprovements(nv.nd, rate, v)
}

// Hidden returns the network's §6 triple census at a hearing threshold.
func (nv *NetView) Hidden(threshold float64) (*hidden.NetworkResult, error) {
	return nv.d.netHidden(nv.nd, threshold)
}

// streamDerived caches one live network's derived data. It is used from
// one goroutine at a time (a pipeline worker during prepare, then the
// collector during the ordered observe), so it needs no locking.
type streamDerived struct {
	ms     map[int]routing.Matrix
	msErr  error
	msDone bool

	imps     map[impKey][]routing.PairResult
	impsErr  error
	impsDone bool

	hiddens map[float64]*hidden.NetworkResult
}

func (d *streamDerived) netMatrices(nd *dataset.NetworkData) (map[int]routing.Matrix, error) {
	if !d.msDone {
		d.ms, d.msErr = routing.SuccessMatrices(nd)
		d.msDone = true
	}
	return d.ms, d.msErr
}

func (d *streamDerived) netImprovements(nd *dataset.NetworkData, rate int, v routing.Variant) ([]routing.PairResult, error) {
	if !d.impsDone {
		d.impsDone = true
		ms, err := d.netMatrices(nd)
		if err != nil {
			d.impsErr = err
		} else {
			// All (rate, variant) pairs in one pass: the §5 figures sweep
			// every pair anyway.
			d.imps = make(map[impKey][]routing.PairResult, 2*len(ms))
			for _, variant := range []routing.Variant{routing.ETX1, routing.ETX2} {
				for ri, m := range ms {
					d.imps[impKey{rate: ri, variant: variant}] = routing.Improvements(m, variant)
				}
			}
		}
	}
	if d.impsErr != nil {
		return nil, d.impsErr
	}
	return d.imps[impKey{rate: rate, variant: v}], nil
}

func (d *streamDerived) netHidden(nd *dataset.NetworkData, threshold float64) (*hidden.NetworkResult, error) {
	if nr, ok := d.hiddens[threshold]; ok {
		return nr, nil
	}
	ms, err := d.netMatrices(nd)
	if err != nil {
		return nil, err
	}
	nr, err := hidden.Census(nd, ms, threshold)
	if err != nil {
		return nil, err
	}
	if d.hiddens == nil {
		d.hiddens = make(map[float64]*hidden.NetworkResult, 4)
	}
	d.hiddens[threshold] = nr
	return nr, nil
}

// streamJob is one network moving through the pipeline: a worker fills
// the view's derived cache (prepare), then the collector applies the
// ordered observes and drops the job — releasing the network.
type streamJob struct {
	nv   *NetView
	err  error
	done chan struct{}
}

// StreamContext runs a selection of experiments over a single streaming
// walk of a fleet. The driver calls Observe once per network in fleet
// order (from one goroutine), SetClients and, on a DeferSamples run, the
// sample groups for the trailing sections, then Finalize for the results.
// Per-network heavy work — routing solutions, improvement sweeps, triple
// censuses — fans across a bounded worker pool while accumulator state
// is updated strictly in fleet order, so the emitted results are
// byte-identical at any pool size.
type StreamContext struct {
	workers int
	ids     []string
	accs    []accumulator
	// preparers are the selected accumulators with per-network work to
	// do off the ordered path; a selection without any skips it.
	preparers []preparer

	start         sync.Once
	jobs          chan *streamJob
	collectorDone chan struct{}

	mu          sync.Mutex
	idle        *sync.Cond // broadcast when inFlight drops to 0 (Flush)
	err         error
	inFlight    int
	maxInFlight int

	// §4 sample handling: either the walk flattens each network and feeds
	// the chunked sample accumulators directly (the samples are then
	// released with the network), or the driver defers to a dataset file's
	// flat-sample section and streams its groups through
	// ObserveSampleGroup after the walk (the section trails the network
	// records on disk). A selection without §4 experiments never flattens.
	deferSamples bool
	samplesDone  bool
	sampleObs    []sampleObsAt

	cds []*dataset.ClientData
	// mob is the §7 mobility analysis of cds, computed on first use.
	mob func() *mobility.Analysis

	networks  int
	drained   bool
	finalized bool
}

// sampleObsAt pairs a §4 accumulator with its selection slot, for error
// context.
type sampleObsAt struct {
	idx int
	so  sampleObserver
}

// NewStreamContext prepares a streaming run of the given experiments, in
// the given order; with no IDs it runs the full suite in paper order.
// Only the selected experiments' per-network work is done: a selection
// without §4 experiments flattens no samples, and one without routing or
// §6 experiments builds no routing matrix. An unknown ID is a sticky
// error, returned by the first Observe, ObserveSampleGroup or Finalize.
// workers bounds the pipeline (≤ 0 means the process worker budget); it
// also bounds how many decoded networks are in flight at once.
func NewStreamContext(workers int, ids ...string) *StreamContext {
	if workers <= 0 {
		workers = conc.Budget()
	}
	if len(ids) == 0 {
		ids = IDs()
	}
	s := &StreamContext{
		workers:       workers,
		jobs:          make(chan *streamJob, workers),
		collectorDone: make(chan struct{}),
	}
	s.idle = sync.NewCond(&s.mu)
	s.mob = sync.OnceValue(func() *mobility.Analysis {
		return mobility.Analyze(s.cds, mobility.DefaultGap)
	})
	for _, id := range ids {
		i, ok := byID[id]
		if !ok {
			s.err = unknownExperiment(id)
			return s
		}
		acc := registry[i].newAcc()
		if p, ok := acc.(preparer); ok {
			s.preparers = append(s.preparers, p)
		}
		if so, ok := acc.(sampleObserver); ok {
			s.sampleObs = append(s.sampleObs, sampleObsAt{idx: len(s.accs), so: so})
		}
		s.ids = append(s.ids, id)
		s.accs = append(s.accs, acc)
	}
	return s
}

// DeferSamples declares that the §4 samples will arrive as groups via
// ObserveSampleGroup after the walk — a dataset file's flat-sample
// section — so the walk skips incremental flattening. Must be called
// before the first Observe; the driver must then call FinishSamples
// before Finalize.
func (s *StreamContext) DeferSamples() { s.deferSamples = true }

// feedSampleGroup hands one network's samples to every §4 accumulator,
// fanned across the worker budget — their states are independent.
func (s *StreamContext) feedSampleGroup(band string, group []snr.Sample) error {
	return conc.ForEach(len(s.sampleObs), func(k int) error {
		o := s.sampleObs[k]
		if err := o.so.observeSampleGroup(band, group); err != nil {
			return fmt.Errorf("experiments: %s: %w", s.ids[o.idx], err)
		}
		return nil
	})
}

// ObserveSampleGroup feeds one per-network sample group from a dataset
// file's flat-sample section (a wire.Reader SampleGroups walk). Only
// valid on a DeferSamples run, from the driver goroutine, after the last
// Observe.
func (s *StreamContext) ObserveSampleGroup(band string, samples []snr.Sample) error {
	if !s.deferSamples {
		return fmt.Errorf("experiments: ObserveSampleGroup without DeferSamples (the walk already fed the samples)")
	}
	if s.finalized {
		return fmt.Errorf("experiments: ObserveSampleGroup after Finalize")
	}
	if err := s.loadErr(); err != nil {
		return err
	}
	s.samplesDone = true
	return s.feedSampleGroup(band, samples)
}

// FinishSamples marks the deferred sample stream complete. A DeferSamples
// run that never saw the section fails Finalize loudly instead of
// emitting empty §4 tables; a section with zero groups is still
// "complete".
func (s *StreamContext) FinishSamples() { s.samplesDone = true }

// SetClients supplies the client datasets (the file section after the
// networks). Must be called before Finalize.
func (s *StreamContext) SetClients(cds []*dataset.ClientData) { s.cds = cds }

// loadErr returns the first pipeline error, if any.
func (s *StreamContext) loadErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Observe feeds the next network (in fleet order) into the pipeline. It
// blocks while the bounded window of in-flight networks is full, and
// returns the first pipeline error so the driver can abort its walk. The
// network must not be mutated after the call; it is released once every
// accumulator has observed it.
func (s *StreamContext) Observe(nd *dataset.NetworkData) error {
	if s.drained || s.finalized {
		return fmt.Errorf("experiments: Observe after Drain/Finalize")
	}
	if err := s.loadErr(); err != nil {
		return err
	}
	s.start.Do(func() { go s.collect() })
	s.mu.Lock()
	s.networks++
	s.inFlight++
	if s.inFlight > s.maxInFlight {
		s.maxInFlight = s.inFlight
	}
	s.mu.Unlock()
	j := &streamJob{
		nv:   &NetView{nd: nd, d: &streamDerived{}},
		done: make(chan struct{}),
	}
	s.jobs <- j // FIFO: the collector applies jobs in send order
	go func() {
		j.err = s.prepare(j.nv)
		close(j.done)
	}()
	return nil
}

// prepare runs on a pipeline worker: every selected accumulator that
// declares expensive per-network work fills the view's derived cache
// here, off the ordered path.
func (s *StreamContext) prepare(nv *NetView) error {
	for _, p := range s.preparers {
		if err := p.prepare(nv); err != nil {
			return err
		}
	}
	return nil
}

// collect drains the pipeline in fleet order, applying each network to
// every accumulator and the incremental flatteners, then releasing it.
func (s *StreamContext) collect() {
	for j := range s.jobs {
		<-j.done
		s.mu.Lock()
		if s.err == nil {
			if j.err != nil {
				s.err = j.err
			} else {
				s.err = s.applyOrdered(j.nv)
			}
		}
		s.inFlight--
		if s.inFlight == 0 {
			s.idle.Broadcast()
		}
		s.mu.Unlock()
	}
	close(s.collectorDone)
}

// applyOrdered runs the serial, order-sensitive part of one network:
// flatten-and-feed of its §4 sample group, then every accumulator's
// observe. The flattened samples are released with the network — the
// chunked accumulators retain only their tables — so a section-less
// stream is sample-bounded too.
func (s *StreamContext) applyOrdered(nv *NetView) error {
	if !s.deferSamples && len(s.sampleObs) > 0 {
		nd := nv.Data()
		group, err := snr.Flatten([]*dataset.NetworkData{nd})
		if err != nil {
			return err
		}
		if err := s.feedSampleGroup(nd.Info.Band, group); err != nil {
			return err
		}
	}
	for i, acc := range s.accs {
		if err := acc.observe(nv); err != nil {
			return fmt.Errorf("experiments: %s: %w", s.ids[i], err)
		}
	}
	return nil
}

// Stats reports pipeline accounting for the finished (or in-progress)
// walk: how many networks were observed and the largest number
// simultaneously in flight — the figure that substantiates the
// bounded-memory claim, since in-flight networks are the only raw probe
// data a streaming run holds.
func (s *StreamContext) Stats() (networks, maxInFlight int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.networks, s.maxInFlight
}

// Finalize drains the pipeline and renders every selected experiment, in
// selection order, fanning finalizers across the worker pool. It must be
// called exactly once, after the last Observe (and, on a DeferSamples
// run, after the sample-group walk); it also joins every goroutine the
// run started, so it is the driver's cleanup on error paths too.
func (s *StreamContext) Finalize() ([]*Result, error) {
	if s.finalized {
		return nil, fmt.Errorf("experiments: Finalize called twice")
	}
	s.finalized = true
	if err := s.Drain(); err != nil {
		return nil, err
	}
	if s.deferSamples && !s.samplesDone {
		return nil, fmt.Errorf("experiments: DeferSamples without a sample walk: the network walk skipped flattening but no flat-sample groups were observed (stream the section through ObserveSampleGroup, then FinishSamples)")
	}
	results := make([]*Result, len(s.accs))
	err := conc.ForEachN(len(s.accs), s.workers, func(i int) error {
		res, err := s.accs[i].finalize(s)
		if err != nil {
			return fmt.Errorf("experiments: %s: %w", s.ids[i], err)
		}
		r := registry[byID[s.ids[i]]]
		res.ID = r.id
		res.Title = r.title
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// analysis returns the §7 mobility analysis of the run's client data.
func (s *StreamContext) analysis() *mobility.Analysis { return s.mob() }

// clientData returns the run's client datasets.
func (s *StreamContext) clientData() []*dataset.ClientData { return s.cds }
