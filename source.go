package meshlab

// source.go holds the one shape every dataset input takes — a source:
// metadata, then network datasets in fleet order, then client logs,
// pushed into a sink — and the one driver that runs the experiment
// engine over it. The same feed writes a dataset file (datasetSink, which
// can pass everything on to a second sink), runs the engine (engine), or
// builds an in-memory fleet (fleetSink).

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"meshlab/internal/atomicio"
	"meshlab/internal/dataset"
	"meshlab/internal/experiments"
	"meshlab/internal/synth"
	"meshlab/internal/wire"
)

// sink receives a source's network datasets and client logs, each in
// fleet order; a synthesis interleaves the two.
type sink interface {
	network(*dataset.NetworkData) error
	clients(*dataset.ClientData) error
}

// source is one dataset input.
type source struct {
	meta Meta
	// datasets is the number of network datasets feed delivers, which a
	// binary file's header records up front; -1 when unknown (JSON lines).
	datasets int
	// feed pushes every network dataset and client log into a sink. A
	// file source's feed runs once.
	feed func(sink) error
	// samples streams a binary file's flat-sample section, after feed or
	// in its place; nil when the source carries none.
	samples func(workers int, fn func(*wire.SampleGroup) error) error
	// close releases the file behind the source; nil for sources that
	// hold none.
	close func() error
}

// feedClients pushes client logs into a sink.
func feedClients(s sink, cds []*dataset.ClientData) error {
	for _, cd := range cds {
		if err := s.clients(cd); err != nil {
			return err
		}
	}
	return nil
}

// fleetSource feeds an in-memory fleet.
func fleetSource(f *Fleet) *source {
	return &source{meta: f.Meta, datasets: len(f.Networks), feed: func(s sink) error {
		for _, nd := range f.Networks {
			if err := s.network(nd); err != nil {
				return err
			}
		}
		return feedClients(s, f.Clients)
	}}
}

// generatorSource feeds a fresh synthesis for opts, one network at a
// time as it leaves the synthesis pipeline, so it never holds the fleet.
// Each network is validated before any of it is fed.
func generatorSource(opts Options) (*source, error) {
	g, err := synth.NewGenerator(opts)
	if err != nil {
		return nil, err
	}
	return &source{meta: g.Meta(), datasets: g.NumDatasets(), feed: func(s sink) error {
		return g.Run(func(nw synth.Network) error {
			for _, nd := range nw.Datasets {
				if err := nd.Validate(); err != nil {
					return fmt.Errorf("generated fleet failed validation: %w", err)
				}
			}
			if nw.Clients != nil {
				if err := nw.Clients.Validate(); err != nil {
					return fmt.Errorf("generated fleet failed validation: %w", err)
				}
			}
			for _, nd := range nw.Datasets {
				if err := s.network(nd); err != nil {
					return err
				}
			}
			if nw.Clients != nil {
				return s.clients(nw.Clients)
			}
			return nil
		})
	}}, nil
}

// openSource opens a dataset file in either format. open is the file
// opener; nil means os.Open.
func openSource(path string, open func(string) (io.ReadSeekCloser, error)) (*source, error) {
	if open == nil {
		open = func(p string) (io.ReadSeekCloser, error) { return os.Open(p) }
	}
	file, err := open(path)
	if err != nil {
		return nil, fmt.Errorf("meshlab: %w", err)
	}
	src, err := readSource(file)
	if err != nil {
		file.Close()
		return nil, err
	}
	src.close = file.Close
	return src, nil
}

// readSource reads a dataset in either format, sniffing the binary
// format's magic: a wire file of either version, or JSON lines.
func readSource(r io.Reader) (*source, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	head, err := br.Peek(len(wire.Magic))
	if err != nil {
		return nil, fmt.Errorf("meshlab: %w", err)
	}
	if !bytes.Equal(head, wire.Magic[:]) && !bytes.Equal(head, wire.Magic2[:]) {
		return jsonSource(br)
	}
	rd, err := wire.NewReader(br)
	if err != nil {
		return nil, err
	}
	src := &source{meta: rd.Meta(), datasets: rd.NumNetworks(), feed: func(s sink) error {
		if err := rd.EachNetwork(wire.Filter{}, s.network); err != nil {
			return err
		}
		cds, err := rd.Clients()
		if err != nil {
			return err
		}
		return feedClients(s, cds)
	}}
	if rd.HasFlatSamples() {
		src.samples = rd.SampleGroups
	}
	return src, nil
}

// jsonSource feeds a JSON-lines dataset through a dataset.Decoder.
func jsonSource(r io.Reader) (*source, error) {
	d, err := dataset.NewDecoder(r)
	if err != nil {
		return nil, err
	}
	return &source{meta: d.Meta(), datasets: -1, feed: func(s sink) error {
		for {
			nd, err := d.Network()
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			if err := s.network(nd); err != nil {
				return err
			}
		}
		cds, err := d.Clients()
		if err != nil {
			return err
		}
		return feedClients(s, cds)
	}}, nil
}

// validated wraps src so that its feed doubles as cache validation
// against opts: the metadata is checked now, each network's topology and
// then the network count and client presence as the feed runs. Any
// divergence is an error wrapping ErrCacheMismatch.
func validated(src *source, path string, opts Options) (*source, error) {
	if src.meta != opts.Meta() {
		return nil, fmt.Errorf("%w: %s was generated with different metadata", ErrCacheMismatch, path)
	}
	tm, err := synth.NewTopologyMatcher(opts)
	if err != nil {
		return nil, err
	}
	v := *src
	v.datasets = tm.Len()
	v.feed = func(s sink) error {
		c := &checked{next: s, tm: tm}
		if err := src.feed(c); err != nil {
			return err
		}
		if !tm.Done() {
			return fmt.Errorf("%w: %s holds fewer networks than the configured fleet", ErrCacheMismatch, path)
		}
		if opts.SkipClients != (c.logs == 0) {
			return fmt.Errorf("%w: client data presence disagrees with the requested options", ErrCacheMismatch)
		}
		return nil
	}
	return &v, nil
}

// checked passes a source on to next, matching each network against the
// configured topology first and counting the client logs.
type checked struct {
	next sink
	tm   *synth.TopologyMatcher
	logs int
}

func (c *checked) network(nd *dataset.NetworkData) error {
	if !c.tm.Match(nd.Info) {
		return fmt.Errorf("%w: network %s/%s diverges from the configured topology", ErrCacheMismatch, nd.Info.Name, nd.Info.Band)
	}
	return c.next.network(nd)
}

func (c *checked) clients(cd *dataset.ClientData) error {
	c.logs++
	return c.next.clients(cd)
}

// cachingSource wraps a synthesis so that feeding it also writes the
// dataset cache at path — binary, flat-sample section included — in the
// same pass. The cache is committed when the feed completes.
func cachingSource(src *source, path string) *source {
	c := *src
	c.feed = func(s sink) error {
		_, err := saveDataset(path, src, true, s)
		return err
	}
	return &c
}

// withCache hands use the dataset for opts under StreamCached's cache
// rules: the validated cache file on a hit, otherwise a synthesis —
// one that rewrites the cache as it streams on a miss, so use may run
// twice, or one that leaves the file alone when opts bypass the cache.
func withCache(path string, opts Options, use func(*source) error) (CacheStatus, error) {
	status := CacheBypassed
	if opts.CacheValidatable() {
		src, err := openSource(path, nil)
		if wire.IsCorrupt(err) {
			return CacheHit, fmt.Errorf("meshlab: dataset cache %s: %w", path, err)
		}
		if err == nil {
			err = useValidated(src, path, opts, use)
			if err == nil || !(errors.Is(err, ErrCacheMismatch) || wire.IsCorrupt(err) || errors.Is(err, dataset.ErrMalformed)) {
				return CacheHit, err
			}
		}
		status = CacheWritten
	}
	src, err := generatorSource(opts)
	if err != nil {
		return status, err
	}
	if status == CacheWritten {
		src = cachingSource(src, path)
	}
	return status, use(src)
}

// useValidated hands use an opened cache file validated against opts,
// and closes it.
func useValidated(src *source, path string, opts Options, use func(*source) error) error {
	defer src.close()
	v, err := validated(src, path, opts)
	if err != nil {
		return err
	}
	return use(v)
}

// engine is the sink through which the driver feeds the experiment
// engine, counting what it walks.
type engine struct {
	sc        *experiments.StreamContext
	sum       *StreamSummary
	onNetwork func(info NetworkInfo, links, probeSets int)
	cds       []*dataset.ClientData
}

func (e *engine) network(nd *dataset.NetworkData) error {
	e.sum.Networks++
	switch nd.Info.Band {
	case "bg":
		e.sum.NetworksBG++
	case "n":
		e.sum.NetworksN++
	}
	sets := 0
	for _, l := range nd.Links {
		sets += len(l.Sets)
	}
	e.sum.ProbeSets += sets
	if e.onNetwork != nil {
		e.onNetwork(nd.Info, len(nd.Links), sets)
	}
	return e.sc.Observe(nd)
}

func (e *engine) clients(cd *dataset.ClientData) error {
	e.cds = append(e.cds, cd)
	return nil
}

// analyze is the one driver of the experiment engine over a source: it
// feeds the source's networks and client logs into a StreamContext of
// the selected experiments (all of them when ids is empty), then the
// flat-sample section when the source carries one and the selection
// reads samples, and finalizes. Every goroutine the run starts has
// exited when it returns.
func analyze(src *source, so StreamOptions, ids []string) ([]*Result, *StreamSummary, error) {
	sc := experiments.NewStreamContext(so.Workers, ids...)
	e := &engine{sc: sc, sum: &StreamSummary{Meta: src.meta, FlatSamples: src.samples != nil}, onNetwork: so.OnNetwork}
	samples := src.samples != nil && sc.WantsSamples()
	if samples {
		sc.DeferSamples()
	}
	err := src.feed(e)
	sc.SetClients(e.cds)
	if err == nil && samples {
		// The section's groups decode across the worker pool, overlapped
		// with the chunked §4 accumulators consuming them; nothing is
		// retained beyond the accumulators' tables.
		err = src.samples(so.Workers, func(g *wire.SampleGroup) error {
			e.sum.SampleGroups++
			return sc.ObserveSampleGroup(g.Band, g.Samples)
		})
		if err == nil {
			sc.FinishSamples()
		}
	}
	// Finalize also drains the pipeline, so it runs even after a feed
	// error to release the worker goroutines.
	results, finErr := sc.Finalize()
	_, e.sum.MaxLiveNetworks = sc.Stats()
	e.sum.MaxSampleGroup = sc.MaxSampleGroup()
	if err != nil {
		return nil, nil, err
	}
	if finErr != nil {
		return nil, nil, finErr
	}
	return results, e.sum, nil
}

// fleetSink collects a source into an in-memory fleet.
type fleetSink struct{ f *Fleet }

func (s fleetSink) network(nd *dataset.NetworkData) error {
	s.f.Networks = append(s.f.Networks, nd)
	return nil
}

func (s fleetSink) clients(cd *dataset.ClientData) error {
	s.f.Clients = append(s.f.Clients, cd)
	return nil
}

// collect reads a whole source into memory.
func collect(src *source) (*Fleet, error) {
	f := &Fleet{Meta: src.meta}
	if err := src.feed(fleetSink{f}); err != nil {
		return nil, err
	}
	return f, nil
}

// datasetSink encodes networks and client logs, in fleet order, in the
// format of one output file, counts them, and passes them on to also.
type datasetSink struct {
	enc interface {
		Network(*dataset.NetworkData) error
		Clients(*dataset.ClientData) error
		Close() error
	}
	sum  DatasetSummary
	also sink
}

func (s *datasetSink) network(nd *dataset.NetworkData) error {
	s.sum.addNetwork(nd)
	if err := s.enc.Network(nd); err != nil || s.also == nil {
		return err
	}
	return s.also.network(nd)
}

func (s *datasetSink) clients(cd *dataset.ClientData) error {
	s.sum.Clients += len(cd.Clients)
	if err := s.enc.Clients(cd); err != nil || s.also == nil {
		return err
	}
	return s.also.clients(cd)
}

// checkSamplesPath rejects the flat-sample section on a path that
// selects the JSON-lines format.
func checkSamplesPath(path string, samples bool) error {
	if samples && !strings.HasSuffix(path, ".bin") {
		return fmt.Errorf("meshlab: the flat-sample section requires the binary format (a .bin path), got %s", path)
	}
	return nil
}

// saveDataset writes src to path through writeOutput and returns its
// counts: the binary format, with the flat-sample section when samples
// is set, or when the path ends in ".bin"; JSON lines otherwise. When
// also is non-nil, every network and client log goes on to it after the
// encoder, in the same pass.
func saveDataset(path string, src *source, samples bool, also sink) (DatasetSummary, error) {
	bin := samples || strings.HasSuffix(path, ".bin")
	var sum DatasetSummary
	err := writeOutput(path, func(w io.Writer, spoolDir string) error {
		s := &datasetSink{sum: DatasetSummary{Meta: src.meta}, also: also}
		if bin {
			enc := wire.NewEncoder(w, src.meta, src.datasets, wire.EncodeOptions{Samples: samples, SpoolDir: spoolDir})
			defer enc.Abort()
			s.enc = enc
		} else {
			s.enc = dataset.NewEncoder(w, src.meta)
		}
		if err := src.feed(s); err != nil {
			return err
		}
		if err := s.enc.Close(); err != nil {
			return err
		}
		sum = s.sum
		return nil
	})
	return sum, err
}

// writeOutput writes a file through write, which gets the destination
// and the directory its spools belong in. A regular (or missing) path is
// written atomically — atomicio's temp file beside it, fsync, rename —
// so a failed or interrupted write leaves the previous file intact. An
// existing non-regular path (a device such as /dev/null, or a pipe)
// cannot be replaced by a rename: it is written in place, spooling in
// the system temp directory. Errors from write are returned as they
// are.
func writeOutput(path string, write func(w io.Writer, spoolDir string) error) error {
	if info, err := os.Stat(path); err == nil && !info.Mode().IsRegular() {
		f, err := os.OpenFile(path, os.O_WRONLY, 0)
		if err != nil {
			return fmt.Errorf("meshlab: %w", err)
		}
		if err := write(f, os.TempDir()); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("meshlab: %w", err)
		}
		return nil
	}
	var werr error
	err := atomicio.WriteFile(path, 0o644, func(tmp *os.File) error {
		werr = write(tmp, filepath.Dir(path))
		return werr
	})
	if err != nil && err != werr {
		return fmt.Errorf("meshlab: %w", err)
	}
	return err
}
