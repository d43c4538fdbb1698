package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"meshlab"
)

func TestRunQuickJSONL(t *testing.T) {
	out := filepath.Join(t.TempDir(), "fleet.jsonl")
	var buf strings.Builder
	if err := run([]string{"-seed", "3", "-out", out}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "probe sets") {
		t.Fatalf("summary missing: %q", buf.String())
	}
	fleet, err := meshlab.LoadFleet(out)
	if err != nil {
		t.Fatal(err)
	}
	if fleet.Meta.Seed != 3 || fleet.NumProbeSets() == 0 {
		t.Fatal("written dataset wrong")
	}
}

func TestRunBinaryOutput(t *testing.T) {
	out := filepath.Join(t.TempDir(), "fleet.bin")
	if err := run([]string{"-seed", "4", "-out", out, "-no-clients"}, &strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	fleet, err := meshlab.LoadFleet(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(fleet.Clients) != 0 {
		t.Fatal("-no-clients ignored")
	}
	// Binary magic at the head (the current format version).
	b, _ := os.ReadFile(out)
	if string(b[:4]) != "MLF2" {
		t.Fatalf(".bin output is not binary: %q", b[:4])
	}
}

// TestRunFlatSamples: -flat-samples appends the §4 sample section to a
// .bin output and is rejected for JSONL paths.
func TestRunFlatSamples(t *testing.T) {
	out := filepath.Join(t.TempDir(), "fleet.bin")
	if err := run([]string{"-seed", "4", "-out", out, "-flat-samples"}, &strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	_, sum, err := meshlab.StreamFleet(out, meshlab.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !sum.FlatSamples || sum.SampleGroups == 0 {
		t.Fatal("-flat-samples output carries no sample section")
	}
	if err := run([]string{"-out", "f.jsonl", "-flat-samples"}, &strings.Builder{}); err == nil {
		t.Fatal("-flat-samples with a JSONL output should error")
	}
}

func TestRunOverrides(t *testing.T) {
	out := filepath.Join(t.TempDir(), "f.jsonl")
	if err := run([]string{"-seed", "5", "-out", out, "-probe-hours", "1", "-interval", "600"}, &strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	fleet, err := meshlab.LoadFleet(out)
	if err != nil {
		t.Fatal(err)
	}
	if fleet.Meta.ProbeDuration != 3600 || fleet.Meta.ProbeInterval != 600 {
		t.Fatalf("overrides not applied: %+v", fleet.Meta)
	}
}

func TestRunRejectsBadScale(t *testing.T) {
	if err := run([]string{"-scale", "galactic"}, &strings.Builder{}); err == nil {
		t.Fatal("bad scale should error")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}, &strings.Builder{}); err == nil {
		t.Fatal("unknown flag should error")
	}
}

// TestRunDatasetCache checks meshgen's -dataset flag: the second run
// loads the cache instead of re-synthesizing and still writes -out.
func TestRunDatasetCache(t *testing.T) {
	dir := t.TempDir()
	cache := filepath.Join(dir, "cache.bin")
	out := filepath.Join(dir, "fleet.jsonl")
	if err := run([]string{"-seed", "3", "-dataset", cache, "-out", out}, &strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(cache); err != nil {
		t.Fatalf("cache not written: %v", err)
	}
	var warm strings.Builder
	out2 := filepath.Join(dir, "fleet2.jsonl")
	if err := run([]string{"-seed", "3", "-dataset", cache, "-out", out2}, &warm); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(warm.String(), "loaded from cache") {
		t.Fatalf("warm run did not report a cache load: %q", warm.String())
	}
	a, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(out2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "\"seed\":3") || !bytes.Equal(a, b) {
		t.Fatal("cached run wrote a different dataset")
	}
	// A different seed against the same cache must regenerate.
	var cold strings.Builder
	if err := run([]string{"-seed", "4", "-dataset", cache, "-out", out2}, &cold); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(cold.String(), "loaded from cache") {
		t.Fatal("seed mismatch should not load the cache")
	}
	f, err := meshlab.LoadFleet(cache)
	if err != nil {
		t.Fatal(err)
	}
	if f.Meta.Seed != 4 {
		t.Fatalf("cache holds seed %d after regeneration, want 4", f.Meta.Seed)
	}
}

// TestRunWorkersIdentical pins the CLI's -workers flag to byte-identical
// output.
func TestRunWorkersIdentical(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.bin")
	b := filepath.Join(dir, "b.bin")
	if err := run([]string{"-seed", "3", "-workers", "1", "-out", a}, &strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-seed", "3", "-workers", "4", "-out", b}, &strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	ab, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab, bb) {
		t.Fatal("-workers changed the generated dataset bytes")
	}
}

// TestRunScenarioMatchesScale: `-scenario quick` writes byte-identical
// output to the hard-coded `-scale quick -seed 42` path — the catalog is
// a faithful data form of the preset.
func TestRunScenarioMatchesScale(t *testing.T) {
	dir := t.TempDir()
	byScale := filepath.Join(dir, "scale.bin")
	byScenario := filepath.Join(dir, "scenario.bin")
	if err := run([]string{"-scale", "quick", "-seed", "42", "-out", byScale}, &strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := run([]string{"-scenario", "quick", "-out", byScenario}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "scenario quick (spec sha256 ") {
		t.Fatalf("summary does not name the scenario and spec hash: %q", buf.String())
	}
	a, _ := os.ReadFile(byScale)
	b, _ := os.ReadFile(byScenario)
	if !bytes.Equal(a, b) {
		t.Fatal("-scenario quick and -scale quick -seed 42 wrote different datasets")
	}
}

// TestRunScenarioSeedOverride: an explicit -seed wins over the spec's.
func TestRunScenarioSeedOverride(t *testing.T) {
	out := filepath.Join(t.TempDir(), "f.bin")
	if err := run([]string{"-scenario", "quick", "-seed", "7", "-out", out}, &strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	fleet, err := meshlab.LoadFleet(out)
	if err != nil {
		t.Fatal(err)
	}
	if fleet.Meta.Seed != 7 {
		t.Fatalf("seed override ignored: %d", fleet.Meta.Seed)
	}
}

// TestRunScenarioConflictsAndErrors: the spec owns the scale knobs, and
// unknown names fail with the catalog listed.
func TestRunScenarioConflictsAndErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-scenario", "quick", "-scale", "quick"},
		{"-scenario", "quick", "-probe-hours", "1"},
		{"-scenario", "quick", "-interval", "600"},
	} {
		err := run(args, &strings.Builder{})
		if err == nil || !strings.Contains(err.Error(), "-scenario conflicts") {
			t.Fatalf("%v: want a conflict error, got %v", args, err)
		}
	}
	err := run([]string{"-scenario", "galactic"}, &strings.Builder{})
	if err == nil || !strings.Contains(err.Error(), "no built-in named") {
		t.Fatalf("unknown scenario: %v", err)
	}
}

// TestRunScenarioFromFile: a path argument loads a user spec file.
func TestRunScenarioFromFile(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "tiny.json")
	if err := os.WriteFile(spec, []byte(`{
		"version": 1, "name": "tiny", "seed": 6,
		"fleet": {
			"networks": 2,
			"env_mix": {"indoor": 2},
			"band_mix": {"bg": 2},
			"size": {"min": 3, "max": 6, "log_mean": 1.2, "log_std": 0.3}
		},
		"probe": {"duration_s": 900, "interval_s": 300}
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "tiny.bin")
	if err := run([]string{"-scenario", spec, "-out", out}, &strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	fleet, err := meshlab.LoadFleet(out)
	if err != nil {
		t.Fatal(err)
	}
	if fleet.Meta.Seed != 6 || len(fleet.Networks) != 2 {
		t.Fatalf("spec-file dataset wrong: seed %d, %d networks", fleet.Meta.Seed, len(fleet.Networks))
	}
}

// TestRunListScenarios: -list-scenarios prints every built-in and exits
// without generating anything.
func TestRunListScenarios(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-list-scenarios"}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"quick", "reference", "dense-urban", "sparse-rural", "high-churn", "mixed-band-steering"} {
		if !strings.Contains(buf.String(), name) {
			t.Fatalf("-list-scenarios missing %q:\n%s", name, buf.String())
		}
	}
}

// TestExitCodeClassification pins the regression the sibling CLIs
// already enforce: main must route errors through the exit-code
// contract instead of exiting 1 for everything — usage errors are 2,
// corrupt input is 3, plain runtime failures stay 1.
func TestExitCodeClassification(t *testing.T) {
	if got := exitCode(usagef("bad invocation")); got != 2 {
		t.Errorf("usage error: exit %d, want 2", got)
	}
	if got := exitCode(flag.ErrHelp); got != 2 {
		t.Errorf("flag.ErrHelp: exit %d, want 2", got)
	}
	if got := exitCode(errors.New("runtime")); got != 1 {
		t.Errorf("runtime error: exit %d, want 1", got)
	}

	// run() classifies its own failures: a bad flag parses to usage...
	err := run([]string{"-no-such-flag"}, &strings.Builder{})
	if err == nil || exitCode(err) != 2 {
		t.Errorf("bad flag: err %v, exit %d, want 2", err, exitCode(err))
	}
	err = run([]string{"-scale", "galactic"}, &strings.Builder{})
	if err == nil || exitCode(err) != 2 {
		t.Errorf("bad scale: err %v, exit %d, want 2", err, exitCode(err))
	}
	err = run([]string{"-flat-samples", "-out", "fleet.jsonl"}, &strings.Builder{})
	if err == nil || exitCode(err) != 2 {
		t.Errorf("-flat-samples on jsonl: err %v, exit %d, want 2", err, exitCode(err))
	}
	err = run([]string{"-scenario", "quick", "-scale", "reference"}, &strings.Builder{})
	if err == nil || exitCode(err) != 2 {
		t.Errorf("scenario conflict: err %v, exit %d, want 2", err, exitCode(err))
	}
}

// TestCorruptDatasetCacheExits3 pins the corrupt-input path: a -dataset
// file that claims the binary format but cannot be decoded must be
// reported with exit code 3 — and left intact — rather than silently
// clobbered by a fresh synthesis.
func TestCorruptDatasetCacheExits3(t *testing.T) {
	dir := t.TempDir()
	cache := filepath.Join(dir, "cache.bin")
	garbage := append([]byte("MLF2"), bytes.Repeat([]byte{0xFF}, 64)...)
	if err := os.WriteFile(cache, garbage, 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "fleet.bin")
	err := run([]string{"-seed", "4", "-out", out, "-dataset", cache, "-no-clients"}, &strings.Builder{})
	if err == nil {
		t.Fatal("corrupt cache: run succeeded, want a corrupt-input error")
	}
	if got := exitCode(err); got != 3 {
		t.Fatalf("corrupt cache: err %v, exit %d, want 3", err, got)
	}
	// The corrupt file is evidence; it must not have been overwritten.
	b, readErr := os.ReadFile(cache)
	if readErr != nil || !bytes.Equal(b, garbage) {
		t.Fatal("corrupt cache file was modified")
	}
	if _, statErr := os.Stat(out); statErr == nil {
		t.Fatal("output written despite corrupt cache")
	}
}

// TestRusageFlag: -rusage prints the max-RSS line after the run (CLI
// parity with meshanalyze and meshreport; the CI guardrail greps it).
func TestRusageFlag(t *testing.T) {
	out := filepath.Join(t.TempDir(), "fleet.jsonl")
	var buf strings.Builder
	if err := run([]string{"-seed", "3", "-out", out, "-rusage"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "max RSS (getrusage):") {
		t.Fatalf("-rusage output missing the RSS line:\n%s", buf.String())
	}
}

// TestCorruptCacheIgnoredWhenBypassed: options the cache file cannot
// record bypass -dataset entirely — the file is neither read nor
// rewritten — so a corrupt file there must not fail the run (the
// corruption probe only guards files the loader would consult).
func TestCorruptCacheIgnoredWhenBypassed(t *testing.T) {
	dir := t.TempDir()
	cache := filepath.Join(dir, "cache.bin")
	garbage := append([]byte("MLF2"), bytes.Repeat([]byte{0xFF}, 64)...)
	if err := os.WriteFile(cache, garbage, 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "fleet.jsonl")
	var buf strings.Builder
	// A fractional report interval cannot be recorded in the dataset
	// metadata, so these options are not cache-validatable.
	if err := run([]string{"-seed", "4", "-interval", "300.5", "-out", out, "-dataset", cache, "-no-clients"}, &buf); err != nil {
		t.Fatalf("bypassed run failed on a corrupt cache it would never touch: %v", err)
	}
	if !strings.Contains(buf.String(), "-dataset bypassed") {
		t.Fatalf("run was not bypassed:\n%s", buf.String())
	}
	// Bypassed means untouched: the file's bytes are preserved.
	b, err := os.ReadFile(cache)
	if err != nil || !bytes.Equal(b, garbage) {
		t.Fatal("bypassed run modified the cache file")
	}
}
