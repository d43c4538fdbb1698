package experiments

// stream.go implements the experiment suite's one execution engine. A
// StreamContext consumes a fleet one network at a time, from whatever
// source the driver reads — a dataset file, a synthesis run or an
// in-memory fleet (meshlab's one driver), or one shard of a file
// (internal/shard). Each network
// is measured on a pipeline worker into one-network partials of the
// selected experiments and released; the collector merges the partials
// into the run's accumulators in fleet order, and Finalize renders them
// into []*Result. The §4 samples flow the same way: per-network groups
// (flattened off the walk, or streamed from a file's flat-sample
// section) feed chunked accumulators and are released, so peak memory is
// bounded by the derived tables the accumulators retain (improvement
// distributions, censuses, count/histogram tables) plus the bounded
// window of in-flight networks — never by the fleet or the sample count.

import (
	"fmt"
	"sync"

	"meshlab/internal/binio"
	"meshlab/internal/conc"
	"meshlab/internal/dataset"
	"meshlab/internal/hidden"
	"meshlab/internal/mobility"
	"meshlab/internal/routing"
	"meshlab/internal/snr"
)

// NetView hands a measuring accumulator one network plus its derived
// data — routing success matrices, shortest-path solutions,
// opportunistic-routing comparisons, hidden-triple censuses — computed
// at most once per network no matter how many experiments ask. A view
// lives on one pipeline worker for one network's measurement: the worker
// runs every selected experiment's observe against it, then drops it.
// Views are not safe for concurrent use; only solve fans out, and its
// tasks write disjoint slots.
type NetView struct {
	nd *dataset.NetworkData

	ms     map[int]routing.Matrix
	msErr  error
	msDone bool

	// paths and imps hold one entry per (variant, rate), at
	// int(variant)*len(ms) + rate; nil until solved.
	paths []*routing.Paths
	imps  [][]routing.PairResult

	hiddens map[float64]*hidden.NetworkResult
}

// Data returns the decoded network.
func (nv *NetView) Data() *dataset.NetworkData { return nv.nd }

// Matrices returns the network's per-rate mean success matrices.
func (nv *NetView) Matrices() (map[int]routing.Matrix, error) {
	if !nv.msDone {
		nv.ms, nv.msErr = routing.SuccessMatrices(nv.nd)
		nv.msDone = true
	}
	return nv.ms, nv.msErr
}

// Paths returns the network's shortest-path solution at one rate and ETX
// variant; every (rate, variant) pair is solved on the first request.
func (nv *NetView) Paths(rate int, v routing.Variant) (*routing.Paths, error) {
	if err := nv.solve(false); err != nil {
		return nil, err
	}
	return nv.paths[int(v)*len(nv.ms)+rate], nil
}

// Improvements returns the network's opportunistic-routing comparison at
// one rate and ETX variant; all (rate, variant) pairs are computed on the
// first request.
func (nv *NetView) Improvements(rate int, v routing.Variant) ([]routing.PairResult, error) {
	if err := nv.solve(true); err != nil {
		return nil, err
	}
	return nv.imps[int(v)*len(nv.ms)+rate], nil
}

// solve solves the network's routing once per (rate, variant) and, with
// imps, sweeps each solution's opportunistic comparison. The pairs are
// independent, so they fan out over the worker budget: the giant network
// that dominates a fleet's routing would otherwise hold one core for its
// whole solve.
func (nv *NetView) solve(imps bool) error {
	ms, err := nv.Matrices()
	if err != nil {
		return err
	}
	solved := nv.paths != nil
	if solved && (!imps || nv.imps != nil) {
		return nil
	}
	nr := len(ms)
	if !solved {
		nv.paths = make([]*routing.Paths, 2*nr)
	}
	if imps {
		nv.imps = make([][]routing.PairResult, 2*nr)
	}
	return conc.ForEach(2*nr, func(k int) error {
		m := ms[k%nr]
		if !solved {
			nv.paths[k] = routing.AllPairs(m, routing.Variant(k/nr))
		}
		if imps {
			nv.imps[k] = routing.ImprovementsFrom(m, nv.paths[k])
		}
		return nil
	})
}

// Hidden returns the network's §6 triple census at a hearing threshold.
func (nv *NetView) Hidden(threshold float64) (*hidden.NetworkResult, error) {
	if nr, ok := nv.hiddens[threshold]; ok {
		return nr, nil
	}
	ms, err := nv.Matrices()
	if err != nil {
		return nil, err
	}
	nr, err := hidden.Census(nv.nd, ms, threshold)
	if err != nil {
		return nil, err
	}
	if nv.hiddens == nil {
		nv.hiddens = make(map[float64]*hidden.NetworkResult, 4)
	}
	nv.hiddens[threshold] = nr
	return nr, nil
}

// streamJob is one network moving through the pipeline: a worker
// measures it into one partial per network-reading experiment, then the
// collector merges the partials in fleet order and drops the job. nd
// stays set only while the collector still has to flatten the network's
// §4 samples; otherwise the worker releases it with its measurement.
type streamJob struct {
	nd       *dataset.NetworkData
	partials []accumulator
	err      error
	done     chan struct{}
}

// StreamContext runs a selection of experiments over a single streaming
// walk of a fleet. The driver calls Observe once per network in fleet
// order (from one goroutine), SetClients and, on a DeferSamples run, the
// sample groups for the trailing sections, then Finalize for the results.
// Each network is measured on a pipeline worker into fresh one-network
// partials, and the collector folds those into the run's accumulators
// with merge, strictly in fleet order, so the emitted results are
// byte-identical at any pool size.
type StreamContext struct {
	workers int
	ids     []string
	accs    []accumulator
	// measured are the selection slots whose accumulators read networks;
	// a selection without any measures nothing.
	measured []int

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
	// maxGroup is the most samples fed to the accumulators in one group.
	maxGroup int
	// replay is the strategy replay fig4.6 and tab4.1 share; nil when
	// neither is selected.
	replay *strategyReplay

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
		if _, ok := acc.(netObserver); ok {
			s.measured = append(s.measured, len(s.accs))
		}
		if so, ok := acc.(sampleObserver); ok {
			s.sampleObs = append(s.sampleObs, sampleObsAt{idx: len(s.accs), so: so})
		}
		if rr, ok := acc.(replayReader); ok {
			if s.replay == nil {
				s.replay = newStrategyReplay()
				s.sampleObs = append(s.sampleObs, sampleObsAt{idx: len(s.accs), so: s.replay})
			}
			rr.shareReplay(s.replay)
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

// WantsSamples reports whether the selection reads the §4 samples. A
// driver whose dataset carries a flat-sample section skips the section
// when it does not.
func (s *StreamContext) WantsSamples() bool { return len(s.sampleObs) > 0 }

// feedSampleGroup hands one network's samples to every §4 accumulator,
// fanned across the worker budget — their states are independent. The
// group is indexed once, into the GroupView they all read.
func (s *StreamContext) feedSampleGroup(band string, group []snr.Sample) error {
	s.maxGroup = max(s.maxGroup, len(group))
	v := snr.NewGroupView(group)
	return conc.ForEach(len(s.sampleObs), func(k int) error {
		o := s.sampleObs[k]
		if err := o.so.observeSampleGroup(band, v); err != nil {
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
// network must not be mutated after the call; the pipeline releases it
// once it is measured (and, on a walk that flattens §4 samples, fed).
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
	j := &streamJob{nd: nd, done: make(chan struct{})}
	s.jobs <- j // FIFO: the collector folds jobs in send order
	go func() {
		j.partials, j.err = s.measure(nd)
		if s.deferSamples || len(s.sampleObs) == 0 {
			j.nd = nil // nothing to flatten: release the network now
		}
		close(j.done)
	}()
	return nil
}

// measure runs on a pipeline worker: every selected experiment that reads
// networks observes nd into a fresh accumulator, its one-network partial.
// The experiments share one NetView, so derived data is computed once.
func (s *StreamContext) measure(nd *dataset.NetworkData) ([]accumulator, error) {
	nv := &NetView{nd: nd}
	partials := make([]accumulator, len(s.measured))
	for k, i := range s.measured {
		p := registry[byID[s.ids[i]]].newAcc()
		if err := p.(netObserver).observe(nv); err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", s.ids[i], err)
		}
		partials[k] = p
	}
	return partials, nil
}

// collect drains the pipeline in fleet order, folding each network into
// the accumulators, then releasing it.
func (s *StreamContext) collect() {
	for j := range s.jobs {
		<-j.done
		s.mu.Lock()
		if s.err == nil {
			if j.err != nil {
				s.err = j.err
			} else {
				s.err = s.fold(j)
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

// fold applies one measured network in fleet order: flatten-and-feed of
// its §4 samples on a section-less walk, then a merge of every partial
// into the run's accumulator. The network flattens link by link into
// link-aligned chunks of snr.ChunkRows samples, each fed and released
// before the next is built — the chunked accumulators retain only their
// tables — so a section-less stream holds at most one chunk of samples,
// as a file's flat-sample section walk does, even for the network that
// dominates the sample count.
func (s *StreamContext) fold(j *streamJob) error {
	if j.nd != nil {
		band := j.nd.Info.Band
		if err := snr.FlattenChunks(j.nd, func(chunk []snr.Sample) error {
			return s.feedSampleGroup(band, chunk)
		}); err != nil {
			return err
		}
	}
	for k, i := range s.measured {
		if err := binio.MergeCells(s.accs[i].state(), j.partials[k].state()); err != nil {
			return fmt.Errorf("experiments: %s: %w", s.ids[i], err)
		}
	}
	return nil
}

// MaxSampleGroup returns the most samples the run fed the §4
// accumulators in one group — a flat-sample section group or a chunk of a
// flattened network: the §4 path's sample-memory bound. Call it after
// Finalize.
func (s *StreamContext) MaxSampleGroup() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.maxGroup
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
