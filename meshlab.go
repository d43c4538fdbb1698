// Package meshlab reproduces the measurement study "Measurement and
// Analysis of Real-World 802.11 Mesh Networks" (LaCurts, MIT, 2010; the
// thesis version of the IMC 2010 paper by LaCurts & Balakrishnan).
//
// The original study analyzed 24 hours of inter-AP probe data from 1407
// APs in 110 production Meraki mesh networks plus an 11-hour client
// association snapshot. That data is proprietary, so meshlab regenerates
// its statistical structure from a calibrated physical model (the
// internal/radio and internal/synth packages) and re-implements the full
// analysis pipeline:
//
//   - §4 SNR-based bit rate adaptation: look-up tables at four training
//     scopes, throughput penalties, online table strategies.
//   - §5 opportunistic routing: ETX1/ETX2 shortest paths versus an
//     idealized ExOR cost recursion.
//   - §6 hidden triples and rate-dependent range.
//   - §7 client mobility: prevalence and persistence.
//
// The typical flow is: generate (or load) a Fleet and run experiments by
// their paper artifact ID:
//
//	fleet, err := meshlab.GenerateFleet(meshlab.QuickOptions(42))
//	...
//	results, err := meshlab.AnalyzeFleet(fleet, "fig5.1")
//	fmt.Print(results[0].Format())
//
// With no IDs, AnalyzeFleet runs the full suite in paper order. Every
// entry point drives one engine, the streaming accumulator suite, over
// one kind of input — a source: metadata, then network datasets in fleet
// order, then client logs — so the same data yields the same bytes
// however it arrives. AnalyzeFleet's source is an in-memory fleet;
// StreamFleet's is a dataset file in either format, walked without
// materializing it, its peak memory bounded by derived tables (a binary
// file's §4 samples flow through chunked accumulators as per-network
// groups and are never resident); StreamGenerated's is a fresh
// synthesis; StreamCached's is a dataset cache, or on a miss a synthesis
// that rewrites it in the same pass. ShardedStream splits a binary
// file's walk into fault-tolerant shards, and StreamSampleExperiments
// runs the §4 tables alone at table-sized memory. Every parallel kernel
// is bounded by the process-wide worker budget (internal/conc), set by
// the CLIs' -workers flag. See also PERF.md for the optimization
// inventory and benchmarks.
//
// Every table and figure of the thesis's evaluation has a runner; see
// ExperimentIDs, and EXPERIMENTS.md as regenerated by cmd/meshreport (the
// file is a build artifact, not checked in — `go run ./cmd/meshreport`
// recreates it).
package meshlab

import (
	"context"
	"errors"
	"io"

	"meshlab/internal/checkpoint"
	"meshlab/internal/dataset"
	"meshlab/internal/experiments"
	"meshlab/internal/shard"
	"meshlab/internal/snr"
	"meshlab/internal/synth"
	"meshlab/internal/wire"
)

// Fleet is a synthetic dataset: per-network probe data (§3.1) and
// aggregate client data (§3.2).
type Fleet = dataset.Fleet

// Meta describes how a fleet dataset was generated (seed, probe window,
// client snapshot); it is stamped into every dataset file.
type Meta = dataset.Meta

// Options configures fleet generation; see QuickOptions and
// ReferenceOptions for calibrated presets.
type Options = synth.Options

// NetworkInfo is a network dataset's identity and layout (name, band,
// environment, AP placements), as stored in a dataset file and passed
// to StreamOptions.OnNetwork.
type NetworkInfo = dataset.NetworkInfo

// Result is one regenerated table or figure.
type Result = experiments.Result

// QuickOptions returns a small, fast configuration (12 networks, 4-hour
// probe snapshot): seconds to generate, suitable for tests and examples.
func QuickOptions(seed uint64) Options { return synth.Quick(seed) }

// ReferenceOptions returns the thesis-scale configuration: the
// 110-network fleet with a 24-hour probe snapshot and 11-hour client
// snapshot. Generation takes on the order of a minute and the dataset
// occupies a few hundred MB in memory.
func ReferenceOptions(seed uint64) Options { return synth.Reference(seed) }

// GenerateFleet synthesizes a dataset. Equal options (including seed)
// produce byte-identical fleets.
func GenerateFleet(opts Options) (*Fleet, error) { return synth.Generate(opts) }

// ExperimentIDs lists every reproducible table/figure ID in paper order.
func ExperimentIDs() []string { return experiments.IDs() }

// AnalyzeFleet runs experiments over an in-memory fleet: the full suite
// in paper order when no IDs are given, otherwise the given experiments
// in the given order. It drives the engine StreamFleet drives from a
// file, so the results are byte-identical to streaming the fleet's
// dataset file, and only the selected experiments' per-network work is
// paid for. An unknown ID is an error. Every goroutine the run starts
// has exited when AnalyzeFleet returns.
func AnalyzeFleet(f *Fleet, ids ...string) ([]*Result, error) {
	results, _, err := analyze(fleetSource(f), StreamOptions{}, ids)
	return results, err
}

// StreamGenerated synthesizes the dataset for opts and runs experiments
// over it as it is generated, like AnalyzeFleet over GenerateFleet(opts)
// but without holding the fleet: each network is analyzed and released
// as it leaves the synthesis pipeline. so.Validate and so.Open do not
// apply.
func StreamGenerated(opts Options, so StreamOptions, ids ...string) ([]*Result, *StreamSummary, error) {
	src, err := generatorSource(opts)
	if err != nil {
		return nil, nil, err
	}
	return analyze(src, so, ids)
}

// WriteFleet serializes a fleet in the JSON-lines dataset format.
func WriteFleet(w io.Writer, f *Fleet) error { return dataset.Write(w, f) }

// WriteFleetBinary serializes a fleet in the compact binary format, which
// is several times smaller than JSON lines; prefer it for reference-scale
// datasets. See docs/FORMAT.md for the byte-level specification.
func WriteFleetBinary(w io.Writer, f *Fleet) error { return wire.Write(w, f) }

// WriteFleetBinaryWithSamples serializes a fleet like WriteFleetBinary
// and appends the flat-sample section (the pre-flattened §4 samples), so
// a later streaming run reads the samples instead of re-flattening probe
// data. The section roughly triples the file (measured 107 → 279 MB at
// reference scale); dataset caches use it, interchange files usually
// should not.
func WriteFleetBinaryWithSamples(w io.Writer, f *Fleet) error {
	return wire.EncodeFleet(w, f, wire.EncodeOptions{Samples: true})
}

// ReadFleet parses a fleet in either supported format, sniffing the
// binary format's magic.
func ReadFleet(r io.Reader) (*Fleet, error) {
	src, err := readSource(r)
	if err != nil {
		return nil, err
	}
	return collect(src)
}

// SaveFleet writes a fleet to a file: the binary format when the path
// ends in ".bin", JSON lines otherwise. The write is atomic (temp +
// fsync + rename, like the dataset cache): a concurrent reader or a
// crash only ever observes the previous file or the complete new one,
// so a failed write leaves whatever was at the path untouched. An
// existing device or pipe at the path (say /dev/null) is written in
// place.
func SaveFleet(path string, f *Fleet) error {
	_, err := saveDataset(path, fleetSource(f), false, nil)
	return err
}

// SaveFleetWithSamples writes a fleet to a binary file (the path must end
// in ".bin") with the flat-sample section appended, so streaming runs
// over the file read the §4 samples instead of re-flattening. The write
// is atomic, like SaveFleet's.
func SaveFleetWithSamples(path string, f *Fleet) error {
	if err := checkSamplesPath(path, true); err != nil {
		return err
	}
	_, err := saveDataset(path, fleetSource(f), true, nil)
	return err
}

// DatasetSummary counts what a dataset holds: the figures meshgen
// prints after writing one.
type DatasetSummary struct {
	Meta Meta
	// Datasets counts network datasets (one per network and band), BG and
	// N those on each band.
	Datasets, BG, N int
	// Links counts directed links, ProbeSets probe sets, and Clients the
	// clients of every client log.
	Links, ProbeSets, Clients int
}

func (s *DatasetSummary) addNetwork(nd *dataset.NetworkData) {
	s.Datasets++
	switch nd.Info.Band {
	case "bg":
		s.BG++
	case "n":
		s.N++
	}
	s.Links += len(nd.Links)
	for _, l := range nd.Links {
		s.ProbeSets += len(l.Sets)
	}
}

// GenerateDataset synthesizes the dataset for opts straight into a file,
// one network at a time, and never holds the fleet: each network is
// validated, then encoded, as it leaves the synthesis pipeline, so peak
// memory is the pipeline's window of in-flight networks (the worker
// count), not the fleet. The format follows the path like SaveFleet's;
// flatSamples appends the flat-sample section, streamed through spool
// files beside the output (".bin" paths only). The write is atomic. The
// bytes equal SaveFleet (or SaveFleetWithSamples) of
// GenerateFleet(opts).
func GenerateDataset(path string, opts Options, flatSamples bool) (DatasetSummary, error) {
	if err := checkSamplesPath(path, flatSamples); err != nil {
		return DatasetSummary{}, err
	}
	src, err := generatorSource(opts)
	if err != nil {
		return DatasetSummary{}, err
	}
	return saveDataset(path, src, flatSamples, nil)
}

// CacheStatus reports where a cached run's dataset came from.
type CacheStatus int

const (
	// CacheHit: the cache file held the requested dataset and was
	// streamed; nothing was synthesized.
	CacheHit CacheStatus = iota
	// CacheWritten: the cache missed, so the dataset was synthesized and
	// written to the cache in the same pass.
	CacheWritten
	// CacheBypassed: the options cannot be validated against a cache file
	// (Options.CacheValidatable), so the dataset was synthesized and the
	// file left untouched.
	CacheBypassed
)

// StreamCached runs experiments over the dataset for opts, with path as
// a dataset cache, so synthesis is paid at most once per (seed, config).
// A cache file that validates against opts — metadata, fleet topology
// (synth.TopologyMatcher) and client presence, checked as it streams —
// is a hit. A missing, unreadable, corrupt or mismatched file is a miss:
// the dataset is synthesized once, each network going both into a new
// cache (binary, flat-sample section included, written atomically) and
// into the engine, and no fleet is held. A file whose binary header does
// not decode is corrupt input, reported and left as it is. Options a
// cache cannot record bypass it (Options.CacheValidatable): generating
// is always correct, serving a false hit never is. docs/FORMAT.md has
// the rules.
func StreamCached(path string, opts Options, so StreamOptions, ids ...string) ([]*Result, *StreamSummary, CacheStatus, error) {
	var results []*Result
	var sum *StreamSummary
	status, err := withCache(path, opts, func(src *source) (err error) {
		results, sum, err = analyze(src, so, ids)
		return err
	})
	return results, sum, status, err
}

// GenerateDatasetCached writes the dataset for opts to path like
// GenerateDataset, with cache as a dataset cache under StreamCached's
// rules: a hit streams the cache file into path, a miss synthesizes once
// into both files.
func GenerateDatasetCached(path string, opts Options, flatSamples bool, cache string) (DatasetSummary, CacheStatus, error) {
	if err := checkSamplesPath(path, flatSamples); err != nil {
		return DatasetSummary{}, CacheHit, err
	}
	var sum DatasetSummary
	status, err := withCache(cache, opts, func(src *source) (err error) {
		sum, err = saveDataset(path, src, flatSamples, nil)
		return err
	})
	return sum, status, err
}

// LoadFleet reads a fleet from a file in either format.
func LoadFleet(path string) (*Fleet, error) {
	src, err := openSource(path, nil)
	if err != nil {
		return nil, err
	}
	defer src.close()
	return collect(src)
}

// ErrCacheMismatch reports that a dataset file fails validation against
// the requested generation options (wrong seed, config, or truncated
// fleet), so it cannot be served as a cache hit.
var ErrCacheMismatch = errors.New("meshlab: dataset does not match the requested options")

// StreamOptions configures a streaming run: StreamFleet, StreamGenerated
// or StreamCached.
type StreamOptions struct {
	// Workers bounds the pipeline fan-out, the in-flight network window,
	// and the flat-sample-section decode pool; 0 means the process worker
	// budget (conc.Budget, i.e. GOMAXPROCS unless a CLI -workers flag
	// lowered it).
	Workers int
	// Validate, when non-nil, makes the walk double as cache validation:
	// the file's metadata, per-network topology, and client presence are
	// checked against these options while streaming, and any divergence
	// aborts with an error wrapping ErrCacheMismatch.
	Validate *Options
	// OnNetwork, when non-nil, receives each walked network's identity
	// plus its directed-link and probe-set counts, in file order and
	// before the network is released — how meshd builds its queryable
	// network index without a second pass over the file. The callback
	// must not retain nd-owned memory beyond the call; NetworkInfo is
	// passed by value and safe to keep.
	OnNetwork func(info NetworkInfo, links, probeSets int)
	// Open opens the dataset file; nil means os.Open. The serving
	// layer's fault-injection tests hook faultfs here (the same seam
	// ShardOptions.Open exposes for sharded runs), and meshd wraps it to
	// make an in-flight warm cancelable between reads.
	Open func(path string) (io.ReadSeekCloser, error)
}

// StreamSummary describes the dataset a streaming run walked, standing in
// for the Fleet the run never materialized.
type StreamSummary struct {
	// Meta is the dataset's stamped generation metadata.
	Meta Meta
	// Networks, NetworksBG, and NetworksN count the walked network
	// datasets; ProbeSets totals their probe sets.
	Networks, NetworksBG, NetworksN int
	ProbeSets                       int
	// FlatSamples reports whether the file carried the flat-sample
	// section (so the §4 analyses, when selected, consumed its groups
	// instead of re-flattening probe data).
	FlatSamples bool
	// SampleGroups counts the sample-group chunks streamed out of the
	// flat-sample section: at least one per network dataset, more when a
	// huge network streams as link-aligned sub-chunks (0 when the walk
	// flattened instead).
	SampleGroups int
	// MaxLiveNetworks is the largest number of decoded networks the
	// pipeline held at once: the walk's raw-data memory bound.
	MaxLiveNetworks int
}

// StreamFleet runs experiments — the full suite in paper order when no
// IDs are given, otherwise the given ones in the given order — over a
// dataset file in either format in one streaming pass, never
// materializing the fleet: each network is decoded, observed by every
// selected experiment (per-network derived work fans across
// StreamOptions.Workers), and released, so peak memory is bounded by the
// derived data plus a bounded window of in-flight networks. The results
// are byte-identical to AnalyzeFleet over the same fleet. A binary file
// with the flat-sample section additionally skips the §4 flattening
// pass, and skips the section when the selection reads no samples.
func StreamFleet(path string, so StreamOptions, ids ...string) ([]*Result, *StreamSummary, error) {
	src, err := openSource(path, so.Open)
	if err != nil {
		return nil, nil, err
	}
	defer src.close()
	if so.Validate != nil {
		if src, err = validated(src, path, *so.Validate); err != nil {
			return nil, nil, err
		}
	}
	return analyze(src, so, ids)
}

// ShardOptions configures a fault-tolerant sharded run; see
// shard.Options for field semantics (Shards, Workers, the Experiments
// selection, MaxRetries, AllowPartial, the Open hook, RetryBase, and the
// checkpoint knobs CheckpointDir / CheckpointEvery / Resume).
type ShardOptions = shard.Options

// ErrCheckpointMismatch is returned when a -resume run's checkpoints
// name a different dataset, shard layout or experiment selection than
// the run in progress; the CLIs treat it as a usage error (exit 2).
var ErrCheckpointMismatch = checkpoint.ErrMismatch

// ShardManifest is a sharded run's coverage record: per-shard outcomes
// with full error chains, plus the networks observed and skipped.
type ShardManifest = shard.Manifest

// ShardResult bundles a sharded run's results, dataset metadata,
// observed-network count, and manifest.
type ShardResult = shard.Result

// ShardExitCode maps a sharded (or plain streaming) run error to the
// CLI exit-code contract: 0 ok, 3 corrupt input, 4 transient-retry
// exhaustion, 1 otherwise (2 is reserved for usage errors).
func ShardExitCode(err error) int { return shard.ExitCode(err) }

// ShardedStream runs the selected experiments (ShardOptions.Experiments;
// the full suite when empty) over a binary fleet file — or a directory of per-shard .bin files — split into
// contiguous network-range shards that stream concurrently and merge
// into one result set. With healthy input the results are
// byte-identical to StreamFleet at any shard count, worker budget, or
// retry schedule. Shards retry transient I/O failures with capped
// exponential backoff and quarantine corrupt data; with
// ShardOptions.AllowPartial a run with failed shards completes in
// degraded mode and the manifest names exactly what was skipped and
// why. Requires the current binary format (MLF2); see docs/FORMAT.md.
func ShardedStream(ctx context.Context, path string, so ShardOptions) (*ShardResult, error) {
	return shard.Run(ctx, path, so)
}

// EachSampleGroup streams a dataset file's §4 samples one per-network
// group at a time: from the flat-sample section when the file carries
// one (groups decode across a bounded pool of workers, ≤ 0 meaning the
// process budget, and arrive in file order), otherwise by flattening
// each network as it is read. Peak memory is a bounded window of groups
// — never the sample set — so fn can train chunked accumulators at
// table-sized RSS.
func EachSampleGroup(path string, workers int, fn func(band, net string, samples []snr.Sample) error) error {
	src, err := openSource(path, nil)
	if err != nil {
		return err
	}
	defer src.close()
	if src.samples != nil {
		return src.samples(workers, func(g *wire.SampleGroup) error {
			return fn(g.Band, g.Net, g.Samples)
		})
	}
	return src.feed(flattener(fn))
}

// flattener is a sink that flattens each network's §4 samples into fn
// and drops client logs.
type flattener func(band, net string, samples []snr.Sample) error

func (fn flattener) network(nd *dataset.NetworkData) error {
	group, err := snr.Flatten([]*dataset.NetworkData{nd})
	if err != nil {
		return err
	}
	return fn(nd.Info.Band, nd.Info.Name, group)
}

func (flattener) clients(*dataset.ClientData) error { return nil }

// StreamSampleExperiments runs sample-only experiments
// (SampleExperimentIDs) over a dataset file's chunked sample-group
// stream (EachSampleGroup): the -sec4 engine. The samples are never materialized — each
// group trains the experiments' count/histogram tables and is released —
// so reference-scale caches analyze at table-sized memory. Results are
// byte-identical to the same experiments in a full-suite run, in the
// order ids are given.
func StreamSampleExperiments(path string, ids []string, workers int) ([]*Result, error) {
	run, err := experiments.NewSampleRun(ids)
	if err != nil {
		return nil, err
	}
	if err := EachSampleGroup(path, workers, func(band, _ string, samples []snr.Sample) error {
		return run.ObserveGroup(band, samples)
	}); err != nil {
		return nil, err
	}
	return run.Finalize()
}

// SampleExperimentIDs lists the experiments that consume only the
// flattened §4 samples, in paper order: the population
// StreamSampleExperiments can run.
func SampleExperimentIDs() []string { return experiments.SampleIDs() }

// SampleOnlyExperiment reports whether the experiment can run from
// samples alone (the StreamSampleExperiments population).
func SampleOnlyExperiment(id string) bool { return experiments.SampleOnly(id) }
