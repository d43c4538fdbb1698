package meshlab

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"meshlab/internal/dataset"
	"meshlab/internal/leakcheck"
	"meshlab/internal/radio"
)

func TestEndToEndQuick(t *testing.T) {
	fleet, err := GenerateFleet(QuickOptions(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := fleet.Validate(); err != nil {
		t.Fatal(err)
	}
	results, err := AnalyzeFleet(fleet, "fig5.1")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].ID != "fig5.1" || len(results[0].Rows) == 0 {
		t.Fatalf("unexpected results %+v", results)
	}
	if _, err := AnalyzeFleet(fleet, "fig9.9"); err == nil {
		t.Fatal("an unknown experiment should error")
	}
}

// TestAnalyzeFleetJoinsGoroutines: every pipeline goroutine AnalyzeFleet
// starts has exited once it returns — on success, on an unknown ID, and
// when a network fails mid-walk.
func TestAnalyzeFleetJoinsGoroutines(t *testing.T) {
	fleet, err := GenerateFleet(QuickOptions(5))
	if err != nil {
		t.Fatal(err)
	}
	bad := *fleet.ByBand("bg")[0]
	bad.Links = append([]*dataset.Link{{From: 0, To: len(bad.Info.APs)}}, bad.Links...)
	broken := &Fleet{Networks: append([]*dataset.NetworkData{&bad}, fleet.Networks...), Clients: fleet.Clients}

	before := leakcheck.Take()
	if _, err := AnalyzeFleet(fleet, "fig5.1", "fig7.1"); err != nil {
		t.Fatal(err)
	}
	if _, err := AnalyzeFleet(fleet, "fig9.9"); err == nil {
		t.Fatal("an unknown experiment should error")
	}
	if _, err := AnalyzeFleet(broken); err == nil {
		t.Fatal("a link to a missing AP should fail the routing experiments")
	}
	// Prepare workers exit right after signalling their job done, so allow
	// them a moment to unwind.
	if err := before.Check(time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestExperimentIDsNonEmpty(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) < 20 {
		t.Fatalf("only %d experiments registered", len(ids))
	}
}

func TestFleetIORoundTrip(t *testing.T) {
	fleet, err := GenerateFleet(QuickOptions(6))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFleet(&buf, fleet); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFleet(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumProbeSets() != fleet.NumProbeSets() {
		t.Fatalf("probe sets changed across round trip: %d vs %d",
			got.NumProbeSets(), fleet.NumProbeSets())
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSaveLoadFleet(t *testing.T) {
	fleet, err := GenerateFleet(QuickOptions(7))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fleet.jsonl")
	if err := SaveFleet(path, fleet); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFleet(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Networks) != len(fleet.Networks) {
		t.Fatal("network count changed across save/load")
	}
	if _, err := LoadFleet(filepath.Join(t.TempDir(), "missing.jsonl")); err == nil {
		t.Fatal("loading a missing file should error")
	}
	// The flat-sample section needs the binary format; a JSONL path is
	// rejected.
	if err := SaveFleetWithSamples(filepath.Join(t.TempDir(), "nope.jsonl"), fleet); err == nil {
		t.Fatal("SaveFleetWithSamples should reject a non-.bin path")
	}
}

func TestOptionsPresets(t *testing.T) {
	q := QuickOptions(1)
	r := ReferenceOptions(1)
	if q.Fleet.NumNetworks >= r.Fleet.NumNetworks {
		t.Fatal("quick preset should be smaller than reference")
	}
	if r.Fleet.NumNetworks != 110 {
		t.Fatalf("reference fleet size %d, want the thesis's 110", r.Fleet.NumNetworks)
	}
}

func TestBinaryRoundTripViaFacade(t *testing.T) {
	fleet, err := GenerateFleet(QuickOptions(8))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fleet.bin")
	if err := SaveFleet(path, fleet); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFleet(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumProbeSets() != fleet.NumProbeSets() {
		t.Fatal("binary round trip changed the dataset")
	}
	// The same LoadFleet must also read JSONL transparently.
	jpath := filepath.Join(t.TempDir(), "fleet.jsonl")
	if err := SaveFleet(jpath, fleet); err != nil {
		t.Fatal(err)
	}
	got2, err := LoadFleet(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if got2.NumProbeSets() != fleet.NumProbeSets() {
		t.Fatal("jsonl round trip changed the dataset")
	}
	// Binary should be much smaller.
	bi, _ := os.Stat(path)
	ji, _ := os.Stat(jpath)
	if bi.Size()*2 > ji.Size() {
		t.Fatalf("binary %d bytes should be well under JSONL %d", bi.Size(), ji.Size())
	}
}

func TestWriteFleetBinaryStream(t *testing.T) {
	fleet, err := GenerateFleet(QuickOptions(9))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFleetBinary(&buf, fleet); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFleet(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Networks) != len(fleet.Networks) {
		t.Fatal("stream binary round trip failed")
	}
}

// loadOrGenerate collects the dataset for opts into a fleet through the
// dataset cache at path — the path StreamCached and
// GenerateDatasetCached share — and reports whether the cache was hit.
// The TestLoadOrGenerateFleet* tests pin the cache rules through it.
func loadOrGenerate(path string, opts Options) (*Fleet, bool, error) {
	var f *Fleet
	status, err := withCache(path, opts, func(src *source) (err error) {
		f, err = collect(src)
		return err
	})
	return f, status == CacheHit, err
}

func TestLoadOrGenerateFleet(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.bin")
	opts := QuickOptions(17)

	// Cold cache: synthesizes and writes the file.
	f1, hit, err := loadOrGenerate(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("cold cache reported a hit")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("cache file not written: %v", err)
	}

	// Warm cache: loads the file, skipping synthesis.
	f2, hit, err := loadOrGenerate(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("warm cache missed")
	}
	if f2.Meta != f1.Meta || f2.NumProbeSets() != f1.NumProbeSets() {
		t.Fatal("cached fleet differs from generated fleet")
	}

	// Seed mismatch invalidates: regenerates and rewrites.
	other := QuickOptions(18)
	f3, hit, err := loadOrGenerate(path, other)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("seed mismatch should not hit the cache")
	}
	if f3.Meta.Seed != 18 {
		t.Fatalf("regenerated fleet has seed %d, want 18", f3.Meta.Seed)
	}
	if f4, hit, _ := loadOrGenerate(path, other); !hit || f4.Meta.Seed != 18 {
		t.Fatal("rewritten cache should hit for the new seed")
	}

	// Config mismatch (probe cadence) invalidates too.
	tweaked := QuickOptions(18)
	tweaked.Probe.ReportInterval = 600
	if _, hit, err := loadOrGenerate(path, tweaked); err != nil || hit {
		t.Fatalf("cadence mismatch should regenerate (hit=%v err=%v)", hit, err)
	}

	// SkipClients mismatch invalidates: a cache with client data cannot
	// stand in for a probe-only request.
	noClients := QuickOptions(18)
	noClients.Probe.ReportInterval = 600
	noClients.SkipClients = true
	f5, hit, err := loadOrGenerate(path, noClients)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("SkipClients mismatch should not hit the cache")
	}
	if len(f5.Clients) != 0 {
		t.Fatal("probe-only regeneration still has clients")
	}
}

func TestLoadOrGenerateFleetCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.bin")
	if err := os.WriteFile(path, []byte("not a fleet at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, hit, err := loadOrGenerate(path, QuickOptions(5))
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("corrupt cache should be regenerated, not hit")
	}
	if f.NumProbeSets() == 0 {
		t.Fatal("regenerated fleet is empty")
	}
	if f2, hit, _ := loadOrGenerate(path, QuickOptions(5)); !hit || f2.Meta.Seed != 5 {
		t.Fatal("regenerated cache should hit on the next run")
	}
}

func TestLoadOrGenerateFleetBypassesCacheForRadioParams(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.bin")
	opts := QuickOptions(5)
	opts.RadioParams = func(outdoor bool) radio.Params {
		return radio.DefaultParams(radio.Indoor)
	}
	if _, hit, err := loadOrGenerate(path, opts); err != nil || hit {
		t.Fatalf("RadioParams options must bypass the cache (hit=%v err=%v)", hit, err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("RadioParams options must not write the cache file")
	}
}

// TestLoadOrGenerateFleetDetectsTopologyMismatch covers the case the
// metadata alone cannot: two configs with identical Meta (seed,
// durations, cadence) but different fleet populations must not share a
// cache entry.
func TestLoadOrGenerateFleetDetectsTopologyMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.bin")
	opts := QuickOptions(9)
	if _, _, err := loadOrGenerate(path, opts); err != nil {
		t.Fatal(err)
	}
	smaller := QuickOptions(9) // identical Meta...
	smaller.Fleet.NumNetworks = 11
	smaller.Fleet.NumIndoor = 6 // ...but one fewer indoor network
	f, hit, err := loadOrGenerate(path, smaller)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("fleet-config mismatch with identical Meta must not hit the cache")
	}
	if len(f.Clients) != 11 {
		t.Fatalf("regenerated fleet has %d client logs, want 11", len(f.Clients))
	}
	if _, hit, _ := loadOrGenerate(path, smaller); !hit {
		t.Fatal("rewritten cache should hit for the new config")
	}
}

// TestLoadOrGenerateFleetFailsFastOnUnwritablePath: an unusable cache
// path must error before synthesis, not after it.
func TestLoadOrGenerateFleetFailsFastOnUnwritablePath(t *testing.T) {
	path := filepath.Join(t.TempDir(), "no", "such", "dir", "cache.bin")
	start := time.Now()
	if _, _, err := loadOrGenerate(path, QuickOptions(5)); err == nil {
		t.Fatal("unwritable cache path should error")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("error took %v; should fail before synthesis", elapsed)
	}
}

// TestLoadOrGenerateFleetBypassesCacheForUnrecordedConfig: options the
// file format cannot record (probe aggregation depth, client mixture)
// must bypass the cache rather than risk serving a false hit.
func TestLoadOrGenerateFleetBypassesCacheForUnrecordedConfig(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.bin")
	deeper := QuickOptions(5)
	deeper.Probe.ProbesPerRate = 40
	if _, hit, err := loadOrGenerate(path, deeper); err != nil || hit {
		t.Fatalf("ProbesPerRate override must bypass the cache (hit=%v err=%v)", hit, err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("bypassed options must not write the cache file")
	}
	mixed := QuickOptions(5)
	mixed.Clients.ClientsPerAP = 2.5
	if _, hit, err := loadOrGenerate(path, mixed); err != nil || hit {
		t.Fatalf("client-mixture override must bypass the cache (hit=%v err=%v)", hit, err)
	}
	// Setting only the fields the cache does record stays cacheable.
	recorded := QuickOptions(5)
	recorded.Probe.ProbesPerRate = 20 // the package default, effectively unset
	if _, _, err := loadOrGenerate(path, recorded); err != nil {
		t.Fatal(err)
	}
	if _, hit, _ := loadOrGenerate(path, recorded); !hit {
		t.Fatal("default-equal config should still be cacheable")
	}
}

// TestLoadOrGenerateFleetWriteIsAtomic: a rewrite must not leave temp
// files behind, and the cache stays decodable after every rewrite.
func TestLoadOrGenerateFleetWriteIsAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.bin")
	if _, _, err := loadOrGenerate(path, QuickOptions(5)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := loadOrGenerate(path, QuickOptions(6)); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "cache.bin" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("cache dir should hold exactly cache.bin, got %v", names)
	}
	if f, err := LoadFleet(path); err != nil || f.Meta.Seed != 6 {
		t.Fatalf("rewritten cache unreadable or stale: %+v, %v", f, err)
	}
}

// TestLoadOrGenerateFleetRelativePath: a bare relative cache path must
// stage its temp file next to the destination (same filesystem) and end
// up world-readable like every other data file the tools write.
func TestLoadOrGenerateFleetRelativePath(t *testing.T) {
	t.Chdir(t.TempDir())
	if _, hit, err := loadOrGenerate("cache.bin", QuickOptions(5)); err != nil || hit {
		t.Fatalf("relative-path cold write failed (hit=%v err=%v)", hit, err)
	}
	info, err := os.Stat("cache.bin")
	if err != nil {
		t.Fatal(err)
	}
	if perm := info.Mode().Perm(); perm != 0o644 {
		t.Fatalf("cache mode %o, want 644", perm)
	}
	if _, hit, err := loadOrGenerate("cache.bin", QuickOptions(5)); err != nil || !hit {
		t.Fatalf("relative-path warm read failed (hit=%v err=%v)", hit, err)
	}
}

func TestLoadOrGenerateFleetRejectsDirectoryPath(t *testing.T) {
	dir := t.TempDir()
	start := time.Now()
	if _, _, err := loadOrGenerate(dir, QuickOptions(5)); err == nil {
		t.Fatal("a directory cache path should error")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("error took %v; should fail before synthesis", elapsed)
	}
}
