package meshlab

// The bench harness regenerates every table and figure of the thesis's
// evaluation (BenchmarkExperiment, one sub-benchmark per artifact;
// ExperimentIDs lists the index, PERF.md records the optimization
// trajectory), streams the full suite from a dataset file, and times the
// hot kernels underneath.
//
// Run with:
//
//	go test -bench=. -benchmem
import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"weak"

	"meshlab/internal/dataset"
	"meshlab/internal/experiments"
	"meshlab/internal/phy"
	"meshlab/internal/rng"
	"meshlab/internal/routing"
	"meshlab/internal/snr"
	"meshlab/internal/wire"
)

var benchOnce sync.Once
var benchFleet *Fleet

func benchmarkFleet(b testing.TB) *Fleet {
	benchOnce.Do(func() {
		f, err := GenerateFleet(QuickOptions(20100521)) // thesis submission date
		if err != nil {
			panic(err)
		}
		benchFleet = f
	})
	if benchFleet == nil {
		b.Fatal("no fleet")
	}
	return benchFleet
}

// BenchmarkExperiment regenerates each artifact on its own, one
// sub-benchmark per experiment ID (`-bench 'BenchmarkExperiment/fig5\.1$'`),
// plus the full suite as "all". Each iteration runs AnalyzeFleet over the
// shared quick-scale fleet with just that selection, so ns/op is the cost
// of regenerating the artifact from raw probe/client data: the
// experiment's own per-network work and its finalize.
func BenchmarkExperiment(b *testing.B) {
	fleet := benchmarkFleet(b)
	for _, id := range append(ExperimentIDs(), "all") {
		ids := []string{id}
		if id == "all" {
			ids = nil
		}
		b.Run(id, func(b *testing.B) {
			for b.Loop() {
				if _, err := AnalyzeFleet(fleet, ids...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// End-to-end substrate costs.

// BenchmarkGenerateQuick measures fleet synthesis at several worker-pool
// sizes; the output is byte-identical at all of them (pinned by
// synth.TestGenerateParallelMatchesSerial), so the sub-benchmarks differ
// only in wall clock.
func BenchmarkGenerateQuick(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opts := QuickOptions(20100521)
			opts.Workers = workers
			for i := 0; i < b.N; i++ {
				if _, err := GenerateFleet(opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// §4 hot-path microbenchmarks over the shared quick fleet's b/g samples.

func benchSamplesBG(b *testing.B) []snr.Sample {
	samples, err := snr.Flatten(benchmarkFleet(b).ByBand("bg"))
	if err != nil {
		b.Fatal(err)
	}
	if len(samples) == 0 {
		b.Fatal("no b/g samples")
	}
	return samples
}

func BenchmarkFlatten(b *testing.B) {
	nets := benchmarkFleet(b).ByBand("bg")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := snr.Flatten(nets); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPenalty(b *testing.B) {
	samples := benchSamplesBG(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = snr.Penalty(samples, len(phy.BandBG.Rates), snr.Scopes)
	}
}

func BenchmarkThroughputVsSNR(b *testing.B) {
	samples := benchSamplesBG(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = snr.ThroughputVsSNR(samples, len(phy.BandBG.Rates), 25)
	}
}

func BenchmarkCoverage(b *testing.B) {
	samples := benchSamplesBG(b)
	tbl := snr.Train(samples, len(phy.BandBG.Rates), snr.Link)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tbl.Coverage(8)
	}
}

// BenchmarkSampleRun is the -sec4 population (every SampleIDs
// experiment) through SampleRun over the bench fleet's per-network
// sample groups, flattened once outside the loop: the §4 feed, from one
// GroupView per group to the cores' tables, plus Finalize.
func BenchmarkSampleRun(b *testing.B) {
	type group struct {
		band    string
		samples []snr.Sample
	}
	var groups []group
	fleet := benchmarkFleet(b)
	for _, band := range []string{"bg", "n"} {
		for _, nd := range fleet.ByBand(band) {
			samples, err := snr.Flatten([]*dataset.NetworkData{nd})
			if err != nil {
				b.Fatal(err)
			}
			groups = append(groups, group{band, samples})
		}
	}
	ids := SampleExperimentIDs()
	b.ReportAllocs()
	for b.Loop() {
		run, err := experiments.NewSampleRun(ids)
		if err != nil {
			b.Fatal(err)
		}
		for _, g := range groups {
			if err := run.ObserveGroup(g.band, g.samples); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := run.Finalize(); err != nil {
			b.Fatal(err)
		}
	}
}

// streamingDataset writes the shared bench fleet (with the flat-sample
// section) to a temp file for the streaming-suite benchmarks and tests.
func streamingDataset(b testing.TB) string {
	path := filepath.Join(b.TempDir(), "fleet.bin")
	if err := SaveFleetWithSamples(path, benchmarkFleet(b)); err != nil {
		b.Fatal(err)
	}
	return path
}

// BenchmarkRunAllStreaming is the full suite through the single-pass
// streaming walk of a dataset file (decode + derive + finalize per
// iteration), the -data/-dataset path; BenchmarkExperiment/all is the
// same suite over the in-memory fleet.
func BenchmarkRunAllStreaming(b *testing.B) {
	path := streamingDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := StreamFleet(path, StreamOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSec4ChunkedPeakHeap runs the §4 sample-only population the
// -sec4 way — chunked sample groups through incremental accumulators —
// sampling the live heap mid-walk. The reported peak-live-B metric is
// the path's memory bound: count/histogram tables plus one in-flight
// group, independent of sample count.
func BenchmarkSec4ChunkedPeakHeap(b *testing.B) {
	path := streamingDataset(b)
	ids := SampleExperimentIDs()
	var peak uint64
	for i := 0; i < b.N; i++ {
		base := liveHeap()
		run, err := experiments.NewSampleRun(ids)
		if err != nil {
			b.Fatal(err)
		}
		groups := 0
		err = eachSampleGroup(path, 2, func(band, _ string, samples []snr.Sample) error {
			if err := run.ObserveGroup(band, samples); err != nil {
				return err
			}
			groups++
			if groups%5 == 0 {
				if h := liveHeap() - base; h > peak {
					peak = h
				}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		results, err := run.Finalize()
		if err != nil {
			b.Fatal(err)
		}
		if h := liveHeap() - base; h > peak {
			peak = h
		}
		runtime.KeepAlive(results)
	}
	b.ReportMetric(float64(peak), "peak-live-B")
}

// readSamples materializes a binary dataset's per-band §4 samples, the
// baseline the chunked paths are measured against.
func readSamples(t testing.TB, path string) map[string][]snr.Sample {
	t.Helper()
	file, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	samples, err := wire.ReadSamples(bufio.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

// liveHeap forces a full collection and returns the surviving heap bytes.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestStreamingDoesNotMaterializeFleet pins the streamed path's memory
// contract three ways: structurally (the pipeline never held more than
// its bounded window of decoded networks), by heap sample against the
// materialized fleet, and — for the chunked §4 path — by heap sample
// against the materialized flat samples: a streamed run must leave far
// less live than either, or the walk (or the sample-group plumbing) is
// retaining what it claims to release. A generator-fed run of the same
// fleet must hold no more than the engine's window of networks.
func TestStreamingDoesNotMaterializeFleet(t *testing.T) {
	path := streamingDataset(t)

	// Warm the process-wide caches (the ablation experiments memoize their
	// own small fleets) so the measured delta is the run's working state,
	// not one-time process state.
	if _, _, err := StreamFleet(path, StreamOptions{Workers: 2}); err != nil {
		t.Fatal(err)
	}

	base := int64(liveHeap())
	results, sum, err := StreamFleet(path, StreamOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	afterStream := int64(liveHeap())

	fleet, err := LoadFleet(path)
	if err != nil {
		t.Fatal(err)
	}
	afterLoad := int64(liveHeap())

	samples := readSamples(t, path)
	afterSamples := int64(liveHeap())

	if sum.MaxLiveNetworks >= sum.Networks || sum.MaxLiveNetworks > 2+2 {
		t.Fatalf("streamed walk held %d of %d networks at once; the window should be ≤ workers+2",
			sum.MaxLiveNetworks, sum.Networks)
	}
	// At least one group per network dataset; huge networks may stream as
	// several link-aligned sub-chunks (wire.SampleGroups).
	if sum.SampleGroups < sum.Networks {
		t.Fatalf("streamed %d sample groups for %d network datasets; the section stores at least one per network",
			sum.SampleGroups, sum.Networks)
	}
	streamBytes := afterStream - base
	fleetBytes := afterLoad - afterStream
	samplesBytes := afterSamples - afterLoad
	if fleetBytes < 1<<20 {
		t.Fatalf("materialized fleet only added %d live bytes; the heap comparison is meaningless", fleetBytes)
	}
	if streamBytes >= fleetBytes {
		t.Fatalf("streamed run left %d bytes live, not less than the %d-byte materialized fleet — is the walk retaining networks?",
			streamBytes, fleetBytes)
	}
	if samplesBytes < 1<<18 {
		t.Fatalf("materialized samples only added %d live bytes; the chunked comparison is meaningless", samplesBytes)
	}
	if streamBytes >= samplesBytes {
		t.Fatalf("streamed run left %d bytes live, not less than the %d-byte materialized samples — is the chunked §4 path retaining sample groups?",
			streamBytes, samplesBytes)
	}

	// A generator-fed run of the same fleet holds a window of networks,
	// never the fleet: as each network enters the engine, at most the
	// engine's window of earlier networks is still reachable.
	src, err := generatorSource(QuickOptions(20100521))
	if err != nil {
		t.Fatal(err)
	}
	held := &heldNetworks{}
	feed := src.feed
	src.feed = func(s sink) error { return feed(held.wrap(s)) }
	genResults, genSum, err := analyze(src, StreamOptions{Workers: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if genSum.Networks != sum.Networks || held.peak > 2+2 {
		t.Fatalf("generator-fed run walked %d networks (want %d) and held up to %d of them at once; the window should be ≤ workers+2",
			genSum.Networks, sum.Networks, held.peak)
	}
	for i := range results {
		if genResults[i].Format() != results[i].Format() {
			t.Fatalf("%s: the generator-fed run diverges from the streamed file", results[i].ID)
		}
	}
	// The generator feed has no sample section: the walk flattens each
	// network on the collector, link by link, in chunks of snr.ChunkRows
	// samples. With the chunk size lowered below every network's sample
	// count, every network splits, on both paths: the section walk decodes
	// its groups in sub-chunks too. The results must not move, and no
	// group fed may exceed one chunk plus one link's run.
	largest, longest := 0, 0
	for _, nd := range fleet.Networks {
		n := 0
		for _, l := range nd.Links {
			n += len(l.Sets)
			longest = max(longest, len(l.Sets))
		}
		largest = max(largest, n)
	}
	if genSum.MaxSampleGroup > largest {
		t.Fatalf("generator-fed run fed a %d-sample group; the largest network has %d probe sets", genSum.MaxSampleGroup, largest)
	}
	defer func(old int) { snr.ChunkRows = old }(snr.ChunkRows)
	snr.ChunkRows = 64
	chunkedResults, chunkedSum, err := StreamFleet(path, StreamOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	src, err = generatorSource(QuickOptions(20100521))
	if err != nil {
		t.Fatal(err)
	}
	chunkedGen, chunkedGenSum, err := analyze(src, StreamOptions{Workers: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if chunkedSum.SampleGroups <= sum.SampleGroups {
		t.Fatalf("chunk size %d: the section walk fed %d groups, no more than the %d at the default size", snr.ChunkRows, chunkedSum.SampleGroups, sum.SampleGroups)
	}
	if bound := snr.ChunkRows + longest; chunkedGenSum.MaxSampleGroup > bound || chunkedGenSum.MaxSampleGroup >= largest {
		t.Fatalf("chunk size %d: the generator-fed run fed a %d-sample group; want at most one chunk plus one link (%d), below the largest network (%d)",
			snr.ChunkRows, chunkedGenSum.MaxSampleGroup, bound, largest)
	}
	for i := range results {
		if chunkedResults[i].Format() != results[i].Format() || chunkedGen[i].Format() != results[i].Format() {
			t.Fatalf("%s: a sub-chunked run diverges from the default-size streamed file", results[i].ID)
		}
	}
	t.Logf("live heap: streamed suite %d KB vs materialized fleet %d KB vs materialized samples %d KB (window %d/%d networks, %d sample groups); generator-fed run held up to %d networks and fed groups of up to %d samples (%d with %d-sample chunks)",
		streamBytes>>10, fleetBytes>>10, samplesBytes>>10, sum.MaxLiveNetworks, sum.Networks, sum.SampleGroups, held.peak,
		genSum.MaxSampleGroup, chunkedGenSum.MaxSampleGroup, snr.ChunkRows)
	runtime.KeepAlive(results)
	runtime.KeepAlive(fleet)
	runtime.KeepAlive(samples)
}

// heldNetworks counts how many networks a run still holds: each time a
// network enters the sink it wraps, a full collection runs and the
// earlier networks still reachable are counted.
type heldNetworks struct {
	next sink
	seen []weak.Pointer[dataset.NetworkData]
	peak int
}

func (h *heldNetworks) wrap(s sink) sink { h.next = s; return h }

func (h *heldNetworks) network(nd *dataset.NetworkData) error {
	liveHeap()
	live := 0
	for _, p := range h.seen {
		if p.Value() != nil {
			live++
		}
	}
	h.peak = max(h.peak, live)
	h.seen = append(h.seen, weak.Make(nd))
	return h.next.network(nd)
}

func (h *heldNetworks) clients(cd *dataset.ClientData) error { return h.next.clients(cd) }

// TestStreamingBenchFixture keeps the bench fixture honest: the dataset
// the streaming benchmark walks must round-trip the bench fleet.
func TestStreamingBenchFixture(t *testing.T) {
	path := streamingDataset(t)
	info, err := os.Stat(path)
	if err != nil || info.Size() == 0 {
		t.Fatalf("bench dataset not written: %v", err)
	}
	f, err := LoadFleet(path)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumProbeSets() != benchmarkFleet(t).NumProbeSets() {
		t.Fatal("bench dataset decoded differently from the bench fleet")
	}
}

// Routing hot-path microbenchmarks (the §5 core the experiment suite
// leans on; see PERF.md for the before/after trajectory).

// benchMatrix builds a deterministic sparse 50-node success matrix with
// mild asymmetry, the shape SuccessMatrices produces for a large network.
func benchMatrix() routing.Matrix {
	const n = 50
	r := rng.New(7)
	m := routing.NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Bool(0.3) {
				continue // out of radio range
			}
			base := 0.1 + 0.85*r.Float64()
			m.Set(i, j, base)
			m.Set(j, i, base*0.9)
		}
	}
	return m
}

func BenchmarkAllPairs(b *testing.B) {
	m := benchMatrix()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = routing.AllPairs(m, routing.ETX1)
	}
}

func BenchmarkExORToDest(b *testing.B) {
	m := benchMatrix()
	etx := routing.AllPairs(m, routing.ETX1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = routing.ExORToDest(m, etx, 0)
	}
}
