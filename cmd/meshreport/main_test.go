package main

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"meshlab"
	"meshlab/internal/atomicio"
	"meshlab/internal/scenario"
)

// update regenerates testdata/quick_report.golden instead of comparing:
//
//	go test ./cmd/meshreport -run TestGoldenQuickReport -update
var update = flag.Bool("update", false, "rewrite the golden report from the current output")

// wallTimeLine is the only nondeterministic report line; golden
// comparison elides it.
var wallTimeLine = regexp.MustCompile(`(?m)^- experiment wall time: .*$`)

func normalizeReport(md string) string {
	return wallTimeLine.ReplaceAllString(md, "- experiment wall time: (elided)")
}

// TestGoldenQuickReport pins the full quick-fleet report byte for byte
// (modulo the wall-time line), so a refactor cannot silently drift any
// paper table. Regenerate deliberately with -update after an intended
// change.
func TestGoldenQuickReport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "EXP.md")
	if err := run([]string{"-seed", "21", "-scale", "quick", "-out", out}, &strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	got := normalizeReport(string(raw))
	golden := filepath.Join("testdata", "quick_report.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		// Atomic replace: a ^C mid-update can't leave a torn golden.
		if err := atomicio.WriteBytes(golden, 0o644, []byte(got)); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden report missing (regenerate with `go test ./cmd/meshreport -run TestGoldenQuickReport -update`): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("report drifted from golden at line %d:\n got: %s\nwant: %s\n(regenerate deliberately with -update)", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("report length drifted from golden: %d vs %d lines (regenerate deliberately with -update)", len(gl), len(wl))
	}
}

// TestStreamFlagErrors: there is no -stream flag any more — every input
// runs the same engine, so there is no fallback left to forbid. Passing
// it is a usage error, and the inputs it used to reject (JSON lines, a
// missing cache) report the same experiment sections as the streamed
// binary file.
func TestStreamFlagErrors(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-stream", "-out", filepath.Join(dir, "a.md")}, &strings.Builder{}); exitCode(err) != 2 {
		t.Fatalf("-stream: exit %d (%v), want a usage error", exitCode(err), err)
	}

	fleet, err := meshlab.GenerateFleet(meshlab.QuickOptions(21))
	if err != nil {
		t.Fatal(err)
	}
	jsonl := filepath.Join(dir, "fleet.jsonl")
	if err := meshlab.SaveFleet(jsonl, fleet); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(dir, "fleet.bin")
	if err := meshlab.SaveFleetWithSamples(bin, fleet); err != nil {
		t.Fatal(err)
	}
	sections := map[string]string{}
	for name, args := range map[string][]string{
		"jsonl":         {"-data", jsonl},
		"binary":        {"-data", bin},
		"missing-cache": {"-seed", "21", "-scale", "quick", "-dataset", filepath.Join(dir, "missing.bin")},
	} {
		out := filepath.Join(dir, name+".md")
		if err := run(append(args, "-out", out), &strings.Builder{}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		md, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		sections[name] = string(md)[strings.Index(string(md), "\n## "):]
	}
	if sections["jsonl"] != sections["binary"] || sections["missing-cache"] != sections["binary"] {
		t.Fatal("JSON-lines or cache-miss reports diverge from the streamed binary report")
	}
}

// TestStreamedWarmCache: a cold -dataset run synthesizes and writes the
// cache; the warm run serves it through the streaming suite and the
// experiment sections match byte for byte.
func TestStreamedWarmCache(t *testing.T) {
	dir := t.TempDir()
	cache := filepath.Join(dir, "fleet.bin")
	cold := filepath.Join(dir, "cold.md")
	warm := filepath.Join(dir, "warm.md")
	if err := run([]string{"-seed", "21", "-scale", "quick", "-dataset", cache, "-out", cold}, &strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-seed", "21", "-scale", "quick", "-dataset", cache, "-out", warm}, &strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(cold)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(warm)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "synthesis skipped; streamed") {
		t.Fatalf("warm run did not stream: %q", string(b)[:200])
	}
	cut := func(md string) string { return md[strings.Index(md, "\n## "):] }
	if cut(string(a)) != cut(string(b)) {
		t.Fatal("streamed warm run diverged from the cold materialized run")
	}
}

func TestRunQuickReport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "EXP.md")
	var buf strings.Builder
	if err := run([]string{"-seed", "21", "-scale", "quick", "-out", out}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "wrote") {
		t.Fatalf("no confirmation: %q", buf.String())
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	md := string(b)
	for _, want := range []string{
		"# EXPERIMENTS — paper vs. measured",
		"## fig3.1", "## fig4.2", "## fig5.1", "## fig6.1", "## fig7.4",
		"Paper reports:",
		"| --- |",
	} {
		if !strings.Contains(md, want) {
			t.Fatalf("report missing %q", want)
		}
	}
	// Every registered experiment must appear.
	if got := strings.Count(md, "\n## "); got < 25 {
		t.Fatalf("only %d experiment sections", got)
	}
}

func TestRunBadScale(t *testing.T) {
	if err := run([]string{"-scale", "wat"}, &strings.Builder{}); err == nil {
		t.Fatal("bad scale should error")
	}
}

func TestRunMissingData(t *testing.T) {
	if err := run([]string{"-data", "/nonexistent.bin"}, &strings.Builder{}); err == nil {
		t.Fatal("missing dataset should error")
	}
}

// TestDatasetCacheSkipsSynthesis runs the report twice against the same
// -dataset path: the first run writes the cache, the second loads it and
// must produce a byte-identical experiments section.
func TestDatasetCacheSkipsSynthesis(t *testing.T) {
	dir := t.TempDir()
	cache := filepath.Join(dir, "fleet.bin")
	out1 := filepath.Join(dir, "a.md")
	out2 := filepath.Join(dir, "b.md")

	var cold strings.Builder
	if err := run([]string{"-seed", "21", "-scale", "quick", "-dataset", cache, "-out", out1}, &cold); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(cache); err != nil {
		t.Fatalf("cache not written: %v", err)
	}
	var warm strings.Builder
	if err := run([]string{"-seed", "21", "-scale", "quick", "-dataset", cache, "-out", out2}, &warm); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(out1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(out2)
	if err != nil {
		t.Fatal(err)
	}
	// Only the dataset label and wall-time lines may differ between the
	// cold and warm runs; every experiment section must match exactly.
	cut := func(md string) string {
		i := strings.Index(md, "\n## ")
		if i < 0 {
			t.Fatal("report has no experiment sections")
		}
		return md[i:]
	}
	if cut(string(a)) != cut(string(b)) {
		t.Fatal("cached run produced different experiment results")
	}
	if !strings.Contains(string(b), "cache hit, synthesis skipped") {
		t.Fatalf("warm run label missing cache hit: %q", string(b)[:200])
	}
}

// TestDatasetCacheInvalidatedBySeed re-runs with a different seed against
// the same cache file and expects regeneration, not a stale hit.
func TestDatasetCacheInvalidatedBySeed(t *testing.T) {
	dir := t.TempDir()
	cache := filepath.Join(dir, "fleet.bin")
	out := filepath.Join(dir, "a.md")
	if err := run([]string{"-seed", "21", "-scale", "quick", "-dataset", cache, "-out", out}, &strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-seed", "22", "-scale", "quick", "-dataset", cache, "-out", out}, &strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	md, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(md), "seed: 22") {
		t.Fatal("report still reflects the stale cached seed")
	}
}

// TestStreamingPathMatchesInMemory is the report-level oracle for the
// streaming dataset path: one run generates the fleet in memory, one
// streams a plain binary file, and one streams a sample-carrying binary
// file (priming the §4 analysis from the flat-sample section). All three
// reports must agree byte-for-byte on every experiment section; only the
// dataset-label and wall-time preamble lines may differ.
func TestStreamingPathMatchesInMemory(t *testing.T) {
	dir := t.TempDir()
	gen := filepath.Join(dir, "fleet.bin")
	genSamples := filepath.Join(dir, "samples.bin")
	fleet, err := meshlab.GenerateFleet(meshlab.QuickOptions(21))
	if err != nil {
		t.Fatal(err)
	}
	if err := meshlab.SaveFleet(gen, fleet); err != nil {
		t.Fatal(err)
	}
	if err := meshlab.SaveFleetWithSamples(genSamples, fleet); err != nil {
		t.Fatal(err)
	}

	outs := map[string][]string{
		"memory":   {"-seed", "21", "-scale", "quick"},
		"streamed": {"-data", gen},
		"primed":   {"-data", genSamples},
	}
	sections := map[string]string{}
	for name, args := range outs {
		out := filepath.Join(dir, name+".md")
		if err := run(append(args, "-out", out), &strings.Builder{}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		md, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		i := strings.Index(string(md), "\n## ")
		if i < 0 {
			t.Fatalf("%s: report has no experiment sections", name)
		}
		sections[name] = string(md)[i:]
	}
	if sections["memory"] != sections["streamed"] {
		t.Fatal("streamed binary run diverges from the in-memory run")
	}
	if sections["memory"] != sections["primed"] {
		t.Fatal("sample-primed run diverges from the in-memory run")
	}
}

func TestDataAndDatasetMutuallyExclusive(t *testing.T) {
	err := run([]string{"-data", "a.jsonl", "-dataset", "b.bin"}, &strings.Builder{})
	if err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("want mutually-exclusive error, got %v", err)
	}
}

// TestShardedReportMatchesStreamed: the -shards report must be
// byte-identical to the single-pass streamed report, modulo the dataset
// label and the wall-time line.
func TestShardedReportMatchesStreamed(t *testing.T) {
	fleet, err := meshlab.GenerateFleet(meshlab.QuickOptions(23))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	data := filepath.Join(dir, "f.bin")
	if err := meshlab.SaveFleetWithSamples(data, fleet); err != nil {
		t.Fatal(err)
	}
	read := func(args ...string) string {
		t.Helper()
		out := filepath.Join(dir, "EXP.md")
		if err := run(append(args, "-data", data, "-out", out), &strings.Builder{}); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		md := normalizeReport(string(raw))
		return regexp.MustCompile(`(?m)^- dataset: .*$`).ReplaceAllString(md, "- dataset: (elided)")
	}
	whole := read()
	sharded := read("-shards", "3")
	if whole != sharded {
		t.Fatal("sharded report diverges from the streamed report")
	}
}

func TestExitCodeMapping(t *testing.T) {
	if err := run([]string{"-shards", "2"}, &strings.Builder{}); exitCode(err) != 2 {
		t.Fatalf("-shards without -data: exit %d (%v), want 2", exitCode(err), err)
	}
	if err := run([]string{"-bogus"}, &strings.Builder{}); exitCode(err) != 2 {
		t.Fatalf("bad flag: exit %d (%v), want 2", exitCode(err), err)
	}
	if exitCode(nil) != 0 {
		t.Fatal("nil error must exit 0")
	}
}

// scenarioSpecFile writes a tiny scenario spec for scenario-flag tests;
// extra is spliced into the fleet object (e.g. a spacing_scale) so two
// specs can share metadata while declaring different layouts.
func scenarioSpecFile(t *testing.T, dir, name, extra string) string {
	t.Helper()
	path := filepath.Join(dir, name+".json")
	spec := `{
		"version": 1, "name": "` + name + `", "seed": 8,
		"fleet": {
			"networks": 2,
			"env_mix": {"indoor": 2},
			"band_mix": {"bg": 2},
			"size": {"min": 3, "max": 6, "log_mean": 1.2, "log_std": 0.3}` + extra + `
		},
		"probe": {"duration_s": 900, "interval_s": 300}
	}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestScenarioValidatesDataFile: with -scenario and -data, the streamed
// walk doubles as identity validation — the generating scenario passes
// and is labeled as validated, a different scenario's dataset is an
// error with regeneration guidance, never a silent report.
func TestScenarioValidatesDataFile(t *testing.T) {
	dir := t.TempDir()
	specA := scenarioSpecFile(t, dir, "tiny-a", "")
	specB := scenarioSpecFile(t, dir, "tiny-b", `, "spacing_scale": 0.5`)

	sp, err := scenario.LoadFile(specA)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := meshlab.GenerateFleet(sp.Options())
	if err != nil {
		t.Fatal(err)
	}
	data := filepath.Join(dir, "a.bin")
	if err := meshlab.SaveFleetWithSamples(data, fleet); err != nil {
		t.Fatal(err)
	}

	out := filepath.Join(dir, "a.md")
	if err := run([]string{"-scenario", specA, "-data", data, "-out", out}, &strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	md, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(md), "validated against scenario tiny-a") {
		t.Fatalf("report label does not record validation: %q", string(md)[:300])
	}

	err = run([]string{"-scenario", specB, "-data", data, "-out", out}, &strings.Builder{})
	if err == nil || !strings.Contains(err.Error(), "is not the scenario tiny-b") {
		t.Fatalf("stale dataset for a different scenario should fail with guidance: %v", err)
	}
	if !strings.Contains(err.Error(), "meshgen -scenario") {
		t.Fatalf("mismatch error misses the regeneration hint: %v", err)
	}
}

// TestScenarioCacheRegeneratedOnMismatch: a -dataset cache written by one
// scenario is regenerated — not silently reused — when a different
// scenario asks for it.
func TestScenarioCacheRegeneratedOnMismatch(t *testing.T) {
	dir := t.TempDir()
	specA := scenarioSpecFile(t, dir, "tiny-a", "")
	specB := scenarioSpecFile(t, dir, "tiny-b", `, "spacing_scale": 0.5`)
	cache := filepath.Join(dir, "cache.bin")
	out := filepath.Join(dir, "r.md")

	if err := run([]string{"-scenario", specA, "-dataset", cache, "-out", out}, &strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-scenario", specB, "-dataset", cache, "-out", out}, &strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	md, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(md), "cache written: scenario tiny-b") {
		t.Fatalf("stale cache was not regenerated for the new scenario: %q", string(md)[:300])
	}
	// And now tiny-b hits its own regenerated cache.
	if err := run([]string{"-scenario", specB, "-dataset", cache, "-out", out}, &strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	md, _ = os.ReadFile(out)
	if !strings.Contains(string(md), "cache hit, synthesis skipped") {
		t.Fatalf("regenerated cache should hit for its own scenario: %q", string(md)[:300])
	}
}

// TestScenarioFlagConflicts: scenario runs reject the knobs the spec
// owns, with usage exit codes.
func TestScenarioFlagConflicts(t *testing.T) {
	for _, args := range [][]string{
		{"-scenario", "quick", "-scale", "quick"},
		{"-scenario", "quick", "-shards", "2", "-data", "x.bin"},
		{"-scenario", "quick", "-checkpoint", "ck", "-data", "x.bin"},
	} {
		err := run(args, &strings.Builder{})
		if err == nil {
			t.Fatalf("%v: want a usage error", args)
		}
		if exitCode(err) != 2 {
			t.Fatalf("%v: usage error should exit 2, got %d (%v)", args, exitCode(err), err)
		}
	}
	err := run([]string{"-scenario", "galactic"}, &strings.Builder{})
	if err == nil || exitCode(err) != 2 || !strings.Contains(err.Error(), "no built-in named") {
		t.Fatalf("unknown scenario should be a usage error listing the catalog: %v", err)
	}
}
