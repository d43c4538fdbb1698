package meshlab

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"meshlab/internal/snr"
	"meshlab/internal/wire"
)

// hasFlatSamples reports whether the binary dataset at path carries the
// flat-sample section.
func hasFlatSamples(t *testing.T, path string) bool {
	t.Helper()
	file, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	rd, err := wire.NewReader(bufio.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	return rd.HasFlatSamples()
}

// TestCacheServesLegacyFileAsIs: a valid cache without the flat-sample
// section — the legacy MLF1 framing, or JSON lines — hits, streams into
// the engine and into a binary -out alike, and is not rewritten: a hit
// never writes.
func TestCacheServesLegacyFileAsIs(t *testing.T) {
	dir := t.TempDir()
	opts := QuickOptions(31)
	fleet, err := GenerateFleet(opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := AnalyzeFleet(fleet)
	if err != nil {
		t.Fatal(err)
	}
	wantOut := filepath.Join(dir, "want.bin")
	if err := SaveFleet(wantOut, fleet); err != nil {
		t.Fatal(err)
	}
	var v1, jsonl bytes.Buffer
	if err := wire.WriteV1(&v1, fleet); err != nil {
		t.Fatal(err)
	}
	if err := WriteFleet(&jsonl, fleet); err != nil {
		t.Fatal(err)
	}
	for name, legacy := range map[string][]byte{"MLF1": v1.Bytes(), "JSON lines": jsonl.Bytes()} {
		path := filepath.Join(dir, "cache.bin")
		if err := os.WriteFile(path, legacy, 0o644); err != nil {
			t.Fatal(err)
		}
		results, _, status, err := StreamCached(path, opts, StreamOptions{Workers: 2})
		if err != nil || status != CacheHit {
			t.Fatalf("%s: a valid cache must hit, got status %v, err %v", name, status, err)
		}
		for i := range want {
			if results[i].Format() != want[i].Format() {
				t.Fatalf("%s: %s analyzed differently", name, want[i].ID)
			}
		}
		out := filepath.Join(dir, "out.bin")
		if _, status, err := GenerateDatasetCached(out, opts, false, path); err != nil || status != CacheHit {
			t.Fatalf("%s: writing -out from the cache: status %v, err %v", name, status, err)
		}
		if got, want := mustRead(t, out), mustRead(t, wantOut); !bytes.Equal(got, want) {
			t.Fatalf("%s: -out written from the cache differs from the saved fleet", name)
		}
		if !bytes.Equal(mustRead(t, path), legacy) {
			t.Fatalf("%s: a cache hit rewrote the file", name)
		}
	}
}

// mustRead returns a file's bytes.
func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestLoadOrGenerateFleetSamplesWarm: the cold write stores the
// flat-sample section, and a warm load hits without rewriting the file.
func TestLoadOrGenerateFleetSamplesWarm(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.bin")
	opts := QuickOptions(32)
	fleet, hit, err := loadOrGenerate(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("cold cache reported a hit")
	}
	if !hasFlatSamples(t, path) {
		t.Fatal("the cold write should append the flat-sample section")
	}
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	warm, hit, err := loadOrGenerate(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("warm cache missed")
	}
	if warm.NumProbeSets() != fleet.NumProbeSets() {
		t.Fatal("warm load decoded a different fleet")
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(before, after) {
		t.Fatal("a warm hit with a valid sample section rewrote the cache")
	}
}

// TestStreamFleetMatchesMaterialized pins the file path against the
// in-memory fleet: streaming a binary file (with and without the
// flat-sample section) or a JSON-lines file must emit results
// byte-identical to AnalyzeFleet over the materialized fleet, and must
// report honest walk accounting.
func TestStreamFleetMatchesMaterialized(t *testing.T) {
	fleet, err := GenerateFleet(QuickOptions(34))
	if err != nil {
		t.Fatal(err)
	}
	want, err := AnalyzeFleet(fleet)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	plain := filepath.Join(dir, "plain.bin")
	if err := SaveFleet(plain, fleet); err != nil {
		t.Fatal(err)
	}
	sampled := filepath.Join(dir, "sampled.bin")
	if err := SaveFleetWithSamples(sampled, fleet); err != nil {
		t.Fatal(err)
	}
	jsonl := filepath.Join(dir, "fleet.jsonl")
	if err := SaveFleet(jsonl, fleet); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		path        string
		flatSamples bool
	}{{plain, false}, {sampled, true}, {jsonl, false}} {
		results, sum, err := StreamFleet(tc.path, StreamOptions{Workers: 3})
		if err != nil {
			t.Fatalf("%s: %v", tc.path, err)
		}
		if len(results) != len(want) {
			t.Fatalf("%s: %d results vs %d", tc.path, len(results), len(want))
		}
		for i := range want {
			if g, w := results[i].Format(), want[i].Format(); g != w {
				t.Fatalf("%s: %s diverged from the in-memory run:\n--- stream ---\n%s\n--- memory ---\n%s",
					tc.path, want[i].ID, g, w)
			}
		}
		if sum.FlatSamples != tc.flatSamples {
			t.Fatalf("%s: FlatSamples = %v, want %v", tc.path, sum.FlatSamples, tc.flatSamples)
		}
		if sum.Networks != len(fleet.Networks) || sum.ProbeSets != fleet.NumProbeSets() {
			t.Fatalf("%s: summary %d networks/%d probe sets, fleet has %d/%d",
				tc.path, sum.Networks, sum.ProbeSets, len(fleet.Networks), fleet.NumProbeSets())
		}
		if sum.NetworksBG != len(fleet.ByBand("bg")) || sum.NetworksN != len(fleet.ByBand("n")) {
			t.Fatalf("%s: band split %d/%d wrong", tc.path, sum.NetworksBG, sum.NetworksN)
		}
		if sum.MaxLiveNetworks <= 0 || sum.MaxLiveNetworks >= sum.Networks {
			t.Fatalf("%s: max live networks %d of %d — the walk is not bounded", tc.path, sum.MaxLiveNetworks, sum.Networks)
		}
	}
}

// TestStreamFleetValidates: the validating walk accepts a matching cache
// and rejects metadata or topology divergence with ErrCacheMismatch.
func TestStreamFleetValidates(t *testing.T) {
	opts := QuickOptions(35)
	fleet, err := GenerateFleet(opts)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cache.bin")
	if err := SaveFleetWithSamples(path, fleet); err != nil {
		t.Fatal(err)
	}

	if _, _, err := StreamFleet(path, StreamOptions{Validate: &opts}); err != nil {
		t.Fatalf("matching cache rejected: %v", err)
	}

	wrongSeed := QuickOptions(36)
	if _, _, err := StreamFleet(path, StreamOptions{Validate: &wrongSeed}); !errors.Is(err, ErrCacheMismatch) {
		t.Fatalf("mismatched seed: got %v, want ErrCacheMismatch", err)
	}

	wrongFleet := opts
	wrongFleet.Fleet.MinSize += 2
	if _, _, err := StreamFleet(path, StreamOptions{Validate: &wrongFleet}); !errors.Is(err, ErrCacheMismatch) {
		t.Fatalf("mismatched topology: got %v, want ErrCacheMismatch", err)
	}
}

// TestEachSampleGroupMatchesLoadSamples: the chunked group walk carries
// exactly the samples a materializing read returns, per band and in
// order, from a sample-carrying and a section-less binary file and from
// JSON lines.
func TestEachSampleGroupMatchesLoadSamples(t *testing.T) {
	fleet, err := GenerateFleet(QuickOptions(39))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	sampled := filepath.Join(dir, "sampled.bin")
	if err := SaveFleetWithSamples(sampled, fleet); err != nil {
		t.Fatal(err)
	}
	plain := filepath.Join(dir, "plain.bin")
	if err := SaveFleet(plain, fleet); err != nil {
		t.Fatal(err)
	}
	jsonl := filepath.Join(dir, "fleet.jsonl")
	if err := SaveFleet(jsonl, fleet); err != nil {
		t.Fatal(err)
	}
	want := readSamples(t, plain)
	for _, path := range []string{sampled, plain, jsonl} {
		cat := map[string][]snr.Sample{}
		groups := 0
		if err := EachSampleGroup(path, 2, func(band, net string, samples []snr.Sample) error {
			groups++
			for i := range samples {
				if samples[i].Net != net {
					return fmt.Errorf("group %s carries sample for %s", net, samples[i].Net)
				}
			}
			if len(samples) > 0 {
				cat[band] = append(cat[band], samples...)
			}
			return nil
		}); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if groups != len(fleet.Networks) {
			t.Fatalf("%s: %d groups, fleet has %d network datasets", path, groups, len(fleet.Networks))
		}
		if !reflect.DeepEqual(cat, want) {
			t.Fatalf("%s: concatenated groups diverge from the materialized samples", path)
		}
	}
	if err := EachSampleGroup(filepath.Join(dir, "missing.bin"), 1, nil); err == nil {
		t.Fatal("missing file should error")
	}
}

// TestStreamSampleExperimentsMatchesAnalysis: the fleet-less chunked §4
// engine (meshanalyze -sec4) reproduces every sample-only table of the
// full-suite run byte-identically, at any worker count.
func TestStreamSampleExperimentsMatchesAnalysis(t *testing.T) {
	fleet, err := GenerateFleet(QuickOptions(40))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fleet.bin")
	if err := SaveFleetWithSamples(path, fleet); err != nil {
		t.Fatal(err)
	}
	suite, err := AnalyzeFleet(fleet)
	if err != nil {
		t.Fatal(err)
	}
	full := map[string]string{}
	for _, r := range suite {
		full[r.ID] = r.Format()
	}
	ids := SampleExperimentIDs()
	for _, workers := range []int{1, 3} {
		results, err := StreamSampleExperiments(path, ids, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != len(ids) {
			t.Fatalf("%d results for %d ids", len(results), len(ids))
		}
		for i, id := range ids {
			if !SampleOnlyExperiment(id) {
				t.Fatalf("%s listed but not sample-only", id)
			}
			if results[i].Format() != full[id] {
				t.Fatalf("workers=%d: %s diverges from the full suite", workers, id)
			}
		}
	}
	// Fleet-needing experiments are refused up front.
	if _, err := StreamSampleExperiments(path, []string{"fig5.1"}, 1); err == nil {
		t.Fatal("a fleet experiment should be refused by the sample run")
	}
}
