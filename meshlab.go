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
// entry point drives one engine, the streaming accumulator suite, so the
// same data yields the same bytes however it arrives: AnalyzeFleet walks
// an in-memory fleet; StreamFleet walks a binary dataset file without
// materializing it, its peak memory bounded by derived tables — the §4
// samples flow through chunked accumulators as per-network groups and
// are never resident; ShardedStream splits that walk into fault-tolerant
// shards; and StreamSampleExperiments runs the §4 tables alone at
// table-sized memory. Every parallel kernel is bounded by the
// process-wide worker budget (internal/conc), set by the CLIs' -workers
// flag. See also PERF.md for the optimization inventory and benchmarks.
//
// Every table and figure of the thesis's evaluation has a runner; see
// ExperimentIDs, and EXPERIMENTS.md as regenerated by cmd/meshreport (the
// file is a build artifact, not checked in — `go run ./cmd/meshreport`
// recreates it).
package meshlab

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"meshlab/internal/atomicio"
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
// in the given order. It feeds the fleet's networks, in order, through
// the engine StreamFleet drives from a file, so the results are
// byte-identical to streaming the fleet's dataset file, and only the
// selected experiments' per-network work is paid for. An unknown ID is
// an error. Every goroutine the run starts has exited when AnalyzeFleet
// returns.
func AnalyzeFleet(f *Fleet, ids ...string) ([]*Result, error) {
	sc := experiments.NewStreamContext(0, ids...)
	for _, nd := range f.Networks {
		// A failed Observe leaves its error sticky: Finalize drains the
		// pipeline and returns it.
		if sc.Observe(nd) != nil {
			break
		}
	}
	sc.SetClients(f.Clients)
	return sc.Finalize()
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
	_, err := wire.WriteWithSamples(w, f)
	return err
}

// isBinaryMagic reports whether head starts a binary fleet file of any
// format version.
func isBinaryMagic(head []byte) bool {
	return bytes.Equal(head, wire.Magic[:]) || bytes.Equal(head, wire.Magic2[:])
}

// ReadFleet parses a fleet in either supported format, sniffing the
// binary format's magic.
func ReadFleet(r io.Reader) (*Fleet, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	head, err := br.Peek(len(wire.Magic))
	if err != nil {
		return nil, fmt.Errorf("meshlab: %w", err)
	}
	if isBinaryMagic(head) {
		return wire.Read(br)
	}
	return dataset.Read(br)
}

// SaveFleet writes a fleet to a file: the binary format when the path
// ends in ".bin", JSON lines otherwise.
func SaveFleet(path string, f *Fleet) error {
	file, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("meshlab: %w", err)
	}
	defer file.Close()
	write := dataset.Write
	if strings.HasSuffix(path, ".bin") {
		write = wire.Write
	}
	if err := write(file, f); err != nil {
		return err
	}
	return file.Close()
}

// SaveFleetWithSamples writes a fleet to a binary file (the path must end
// in ".bin") with the flat-sample section appended, so streaming runs
// over the file read the §4 samples instead of re-flattening. meshgen's
// -flat-samples flag uses it. The write is atomic (temp + fsync +
// rename, like the dataset cache): a concurrent reader or a crash only
// ever observes the previous file or the complete new one, so a present
// file at the path is always a whole dataset.
func SaveFleetWithSamples(path string, f *Fleet) error {
	if !strings.HasSuffix(path, ".bin") {
		return fmt.Errorf("meshlab: the flat-sample section requires the binary format (a .bin path), got %s", path)
	}
	err := atomicio.WriteFile(path, 0o644, func(tmp *os.File) error {
		_, werr := wire.WriteWithSamples(tmp, f)
		return werr
	})
	if err != nil {
		return fmt.Errorf("meshlab: %w", err)
	}
	return nil
}

// LoadFleet reads a fleet from a file in either format.
func LoadFleet(path string) (*Fleet, error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("meshlab: %w", err)
	}
	defer file.Close()
	return ReadFleet(file)
}

// LoadOrGenerateFleet returns the fleet for opts, using path as a dataset
// cache so synthesis is paid at most once per (seed, config). The
// returned bool reports whether the cache was hit.
//
// A binary file at path is streamed network-by-network and accepted when
// its metadata — seed, probe duration and cadence, client snapshot length
// — matches what Generate would stamp for opts, its client data presence
// matches opts.SkipClients, and its network population matches a cheap
// layout-only regeneration of the fleet topology (synth.TopologyMatcher);
// a changed fleet configuration therefore invalidates even when the
// metadata coincides, and a mismatch aborts at the first divergent
// network instead of decoding the rest of the file. A JSON-lines file is
// validated the same way after a full load. Anything else (missing file,
// unreadable format, mismatched seed or config) triggers a fresh
// synthesis whose result is written back to path in the current binary
// format with the flat-sample section appended.
//
// A cache hit on a file in the legacy binary framing (magic "MLF1"), or
// one without a readable flat-sample section, rewrites the file in the
// current format — best effort, a failed rewrite still returns the loaded
// fleet — so the next run starts warm. See docs/FORMAT.md for both
// layouts.
//
// Options the file format cannot record — a RadioParams override, a
// non-default probe aggregation depth, or client-mixture tuning — bypass
// the cache entirely (see synth.Options.CacheValidatable): generating is
// always correct, serving a false hit never is.
func LoadOrGenerateFleet(path string, opts Options) (*Fleet, bool, error) {
	if !opts.CacheValidatable() {
		f, err := GenerateFleet(opts)
		return f, false, err
	}
	if f, ok := loadValidatedCache(path, opts); ok {
		return f, true, nil
	}
	// Claim a temp file next to the cache path before synthesizing, so an
	// unwritable location fails in milliseconds instead of after minutes
	// of generation; the final rename is atomic, so an interrupt mid-run
	// leaves any previous cache intact and concurrent readers never see a
	// torn file. A directory at path would pass the temp-file probe but
	// fail the rename after synthesis, so reject it up front too.
	if info, err := os.Stat(path); err == nil && info.IsDir() {
		return nil, false, fmt.Errorf("meshlab: dataset cache: %s is a directory", path)
	}
	dir, base := filepath.Split(path)
	if dir == "" {
		// A bare filename must stage its temp file in the same (current)
		// directory — CreateTemp("") would fall back to the system temp
		// dir, where the final rename can cross filesystems.
		dir = "."
	}
	// Probe writability with a throwaway file, but create the real temp
	// only after synthesis succeeds: a crash or kill during the
	// minutes-long generation then cannot leak a stale multi-hundred-MB
	// .tmp file next to the cache.
	probe, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return nil, false, fmt.Errorf("meshlab: dataset cache: %w", err)
	}
	probe.Close()
	os.Remove(probe.Name())
	f, err := GenerateFleet(opts)
	if err != nil {
		return nil, false, err
	}
	if err := writeDatasetCache(path, f); err != nil {
		return nil, false, err
	}
	return f, false, nil
}

// errTopologyMismatch aborts a streaming cache load at the first network
// that diverges from the expected fleet layout.
var errTopologyMismatch = errors.New("topology mismatch")

// loadValidatedCache loads the dataset cache at path if it exists and
// matches opts, returning ok=false (a miss) otherwise. Binary files are
// validated while streaming; the metadata check happens before any
// network is decoded. On a hit against a file without a readable
// flat-sample section (legacy framing or a corrupt trailing section),
// the cache is rewritten in the current format, best effort.
func loadValidatedCache(path string, opts Options) (*Fleet, bool) {
	file, err := os.Open(path)
	if err != nil {
		return nil, false
	}
	defer file.Close()
	br := bufio.NewReaderSize(file, 1<<20)
	head, err := br.Peek(len(wire.Magic))
	if err != nil {
		return nil, false
	}
	if !isBinaryMagic(head) {
		// JSON-lines cache (hand-placed; this package writes binary):
		// validate after a full load, and leave the user's format alone.
		f, err := dataset.Read(br)
		if err != nil {
			return nil, false
		}
		ok := f.Meta == opts.Meta() && opts.SkipClients == (len(f.Clients) == 0) &&
			synth.MatchesTopology(f, opts)
		return f, ok
	}
	rd, err := wire.NewReader(br)
	if err != nil || rd.Meta() != opts.Meta() {
		return nil, false
	}
	tm, err := synth.NewTopologyMatcher(opts)
	if err != nil {
		return nil, false
	}
	f := &Fleet{Meta: rd.Meta()}
	err = rd.EachNetwork(wire.Filter{}, func(nd *dataset.NetworkData) error {
		if !tm.Match(nd.Info) {
			return errTopologyMismatch
		}
		f.Networks = append(f.Networks, nd)
		return nil
	})
	if err != nil || !tm.Done() {
		return nil, false
	}
	if f.Clients, err = rd.Clients(); err != nil || opts.SkipClients != (len(f.Clients) == 0) {
		return nil, false
	}
	// The fleet itself validated. Walk the sample section without
	// retaining it: a missing or corrupt section is rewritten rather than
	// resynthesized, so the next run starts warm; on a failed rewrite the
	// old file keeps working as a cache.
	if !rd.HasFlatSamples() || rd.SampleGroups(0, func(*wire.SampleGroup) error { return nil }) != nil {
		_ = writeDatasetCache(path, f) // best effort, see above
	}
	return f, true
}

// ErrNotStreamable reports that a file cannot feed the streaming suite:
// only the binary wire formats can be walked without materializing the
// fleet.
var ErrNotStreamable = errors.New("meshlab: not a streamable binary dataset")

// ErrCacheMismatch reports that a dataset file fails validation against
// the requested generation options (wrong seed, config, or truncated
// fleet), so it cannot be served as a cache hit.
var ErrCacheMismatch = errors.New("meshlab: dataset does not match the requested options")

// StreamOptions configures a StreamFleet run.
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
	// Meta is the dataset file's stamped generation metadata.
	Meta Meta
	// Networks, NetworksBG, and NetworksN count the walked network
	// datasets; ProbeSets totals their probe sets.
	Networks, NetworksBG, NetworksN int
	ProbeSets                       int
	// FlatSamples reports whether the file carried the flat-sample
	// section (so the §4 analyses consumed its groups instead of
	// re-flattening probe data).
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

// StreamFleet runs the full experiment suite over a binary fleet file in
// one streaming pass, never materializing the fleet: each network is
// decoded, observed by every experiment (per-network derived work fans
// across StreamOptions.Workers), and released, so peak memory is bounded
// by the derived data plus a bounded window of in-flight networks. The
// results are byte-identical to AnalyzeFleet over the same fleet. A file
// with the flat-sample section additionally skips the §4 flattening
// pass. JSON-lines files cannot stream; the error wraps ErrNotStreamable
// so callers can load them with LoadFleet and use AnalyzeFleet instead.
func StreamFleet(path string, so StreamOptions) ([]*Result, *StreamSummary, error) {
	open := so.Open
	if open == nil {
		open = func(p string) (io.ReadSeekCloser, error) { return os.Open(p) }
	}
	file, err := open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("meshlab: %w", err)
	}
	defer file.Close()
	br := bufio.NewReaderSize(file, 1<<20)
	head, err := br.Peek(len(wire.Magic))
	if err != nil {
		return nil, nil, fmt.Errorf("meshlab: %s: %w", path, err)
	}
	if !isBinaryMagic(head) {
		return nil, nil, fmt.Errorf("%w: %s (JSON-lines datasets must be materialized, or re-encoded with `meshgen -out fleet.bin`)", ErrNotStreamable, path)
	}
	rd, err := wire.NewReader(br)
	if err != nil {
		return nil, nil, err
	}
	var tm *synth.TopologyMatcher
	if v := so.Validate; v != nil {
		if rd.Meta() != v.Meta() {
			return nil, nil, fmt.Errorf("%w: %s was generated with different metadata", ErrCacheMismatch, path)
		}
		if tm, err = synth.NewTopologyMatcher(*v); err != nil {
			return nil, nil, err
		}
	}
	sc := experiments.NewStreamContext(so.Workers)
	sum := &StreamSummary{Meta: rd.Meta(), FlatSamples: rd.HasFlatSamples()}
	if sum.FlatSamples {
		sc.DeferSamples()
	}
	walkErr := rd.EachNetwork(wire.Filter{}, func(nd *dataset.NetworkData) error {
		if tm != nil && !tm.Match(nd.Info) {
			return fmt.Errorf("%w: network %s/%s diverges from the configured topology", ErrCacheMismatch, nd.Info.Name, nd.Info.Band)
		}
		sum.Networks++
		switch nd.Info.Band {
		case "bg":
			sum.NetworksBG++
		case "n":
			sum.NetworksN++
		}
		sets := 0
		for _, l := range nd.Links {
			sets += len(l.Sets)
		}
		sum.ProbeSets += sets
		if so.OnNetwork != nil {
			so.OnNetwork(nd.Info, len(nd.Links), sets)
		}
		return sc.Observe(nd)
	})
	if walkErr == nil && tm != nil && !tm.Done() {
		walkErr = fmt.Errorf("%w: %s holds fewer networks than the configured fleet", ErrCacheMismatch, path)
	}
	var cds []*dataset.ClientData
	if walkErr == nil {
		cds, walkErr = rd.Clients()
	}
	if walkErr == nil && so.Validate != nil && so.Validate.SkipClients != (len(cds) == 0) {
		walkErr = fmt.Errorf("%w: client data presence disagrees with the requested options", ErrCacheMismatch)
	}
	sc.SetClients(cds)
	if walkErr == nil && sum.FlatSamples {
		// Stream the section's per-network groups straight into the
		// chunked §4 accumulators: groups decode across the worker pool
		// and overlap with accumulator consumption (see wire.SampleGroups),
		// and nothing is retained beyond the accumulators' tables.
		walkErr = rd.SampleGroups(so.Workers, func(g *wire.SampleGroup) error {
			sum.SampleGroups++
			return sc.ObserveSampleGroup(g.Band, g.Samples)
		})
		if walkErr == nil {
			sc.FinishSamples()
		}
	}
	// Finalize also drains the pipeline, so it runs even after a walk
	// error to release the worker goroutines.
	results, finErr := sc.Finalize()
	_, sum.MaxLiveNetworks = sc.Stats()
	if walkErr != nil {
		return nil, nil, walkErr
	}
	if finErr != nil {
		return nil, nil, finErr
	}
	return results, sum, nil
}

// ShardOptions configures a fault-tolerant sharded run; see
// shard.Options for field semantics (Shards, Workers, MaxRetries,
// AllowPartial, the Open hook, RetryBase, and the checkpoint knobs
// CheckpointDir / CheckpointEvery / Resume).
type ShardOptions = shard.Options

// ErrCheckpointMismatch is returned when a -resume run's checkpoints
// name a different dataset or shard layout than the run in progress;
// the CLIs treat it as a usage error (exit 2).
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

// ShardedStream runs the full experiment suite over a binary fleet
// file — or a directory of per-shard .bin files — split into
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

// EachSampleGroup streams a binary fleet file's §4 samples one
// per-network group at a time: from the flat-sample section when the
// file carries one (groups decode across a bounded pool of workers, ≤ 0
// meaning the process budget, and arrive in file order), otherwise by
// flattening each network record as it is walked. Peak memory is a
// bounded window of groups — never the sample set — so fn can train
// chunked accumulators at table-sized RSS. JSON-lines files cannot
// stream; the error wraps ErrNotStreamable.
func EachSampleGroup(path string, workers int, fn func(band, net string, samples []snr.Sample) error) error {
	file, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("meshlab: %w", err)
	}
	defer file.Close()
	br := bufio.NewReaderSize(file, 1<<20)
	head, err := br.Peek(len(wire.Magic))
	if err != nil {
		return fmt.Errorf("meshlab: %s: %w", path, err)
	}
	if !isBinaryMagic(head) {
		return fmt.Errorf("%w: %s — the sample-streaming mode needs the binary format; regenerate with `meshgen -out fleet.bin -flat-samples` or point at a -dataset cache", ErrNotStreamable, path)
	}
	rd, err := wire.NewReader(br)
	if err != nil {
		return err
	}
	if rd.HasFlatSamples() {
		return rd.SampleGroups(workers, func(g *wire.SampleGroup) error {
			return fn(g.Band, g.Net, g.Samples)
		})
	}
	return rd.EachNetwork(wire.Filter{}, func(nd *dataset.NetworkData) error {
		group, err := snr.Flatten([]*dataset.NetworkData{nd})
		if err != nil {
			return err
		}
		return fn(nd.Info.Band, nd.Info.Name, group)
	})
}

// StreamSampleExperiments runs sample-only experiments
// (SampleExperimentIDs) over a binary fleet file's chunked sample-group
// stream: the -sec4 engine. The samples are never materialized — each
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

// writeDatasetCache atomically replaces path with f in the current binary
// format, flat-sample section included — atomicio's temp + fsync +
// rename, so concurrent readers never observe a torn cache and a crash
// mid-write cannot lose the previous one. The cache gets the usual 0644
// data-file mode so other users of a shared fixture can read it, like
// SaveFleet output.
func writeDatasetCache(path string, f *Fleet) error {
	err := atomicio.WriteFile(path, 0o644, func(tmp *os.File) error {
		_, werr := wire.WriteWithSamples(tmp, f)
		return werr
	})
	if err != nil {
		return fmt.Errorf("meshlab: dataset cache: %w", err)
	}
	return nil
}
