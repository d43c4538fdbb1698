package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"meshlab"
)

func TestList(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-list"}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"fig3.1", "fig5.1", "fig7.5", "ext6.mac"} {
		if !strings.Contains(buf.String(), id) {
			t.Fatalf("-list output missing %s", id)
		}
	}
}

func TestSingleExperimentInMemory(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-seed", "11", "-exp", "fig6.1"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "fig6.1") || !strings.Contains(buf.String(), "1M") {
		t.Fatalf("experiment output wrong:\n%s", buf.String())
	}
}

func TestFromDatasetWithPlot(t *testing.T) {
	fleet, err := meshlab.GenerateFleet(meshlab.QuickOptions(12))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "f.bin")
	if err := meshlab.SaveFleet(path, fleet); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := run([]string{"-data", path, "-exp", "fig5.2", "-plot"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "fwd/rev delivery ratio") {
		t.Fatalf("plot missing:\n%s", buf.String())
	}
}

func TestPlotFallback(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-seed", "13", "-exp", "tab4.1", "-plot"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no plot for this experiment") {
		t.Fatal("missing plot fallback message")
	}
}

func TestUnknownExperiment(t *testing.T) {
	if err := run([]string{"-seed", "14", "-exp", "fig99.9"}, &strings.Builder{}); err == nil {
		t.Fatal("unknown experiment should error")
	}
}

func TestMissingDataFile(t *testing.T) {
	if err := run([]string{"-data", "/nonexistent/fleet.jsonl"}, &strings.Builder{}); err == nil {
		t.Fatal("missing dataset should error")
	}
}

// TestSec4StreamsSamples: the -sec4 mode reproduces a §4 table
// byte-identically to the full in-memory analysis, from both a
// sample-carrying and a plain binary dataset.
func TestSec4StreamsSamples(t *testing.T) {
	fleet, err := meshlab.GenerateFleet(meshlab.QuickOptions(15))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	sampled := filepath.Join(dir, "sampled.bin")
	if err := meshlab.SaveFleetWithSamples(sampled, fleet); err != nil {
		t.Fatal(err)
	}
	plain := filepath.Join(dir, "plain.bin")
	if err := meshlab.SaveFleet(plain, fleet); err != nil {
		t.Fatal(err)
	}

	var want strings.Builder
	res, err := meshlab.AnalyzeFleet(fleet, "fig4.2")
	if err != nil {
		t.Fatal(err)
	}
	want.WriteString(res[0].Format())
	want.WriteString("\n")

	for _, path := range []string{sampled, plain} {
		var got strings.Builder
		if err := run([]string{"-data", path, "-sec4", "-exp", "fig4.2"}, &got); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if got.String() != want.String() {
			t.Fatalf("%s: -sec4 output diverges from the in-memory analysis:\n%s", path, got.String())
		}
	}

	// -sec4 -exp all runs the whole sample-only population.
	var all strings.Builder
	if err := run([]string{"-data", sampled, "-sec4"}, &all); err != nil {
		t.Fatal(err)
	}
	for _, id := range meshlab.SampleExperimentIDs() {
		if !strings.Contains(all.String(), id) {
			t.Fatalf("-sec4 all output missing %s", id)
		}
	}
}

// TestSec4Errors: -sec4 refuses fleet-needing experiments and a missing
// -data with actionable messages instead of silently regenerating, and
// streams JSON lines like a binary file.
func TestSec4Errors(t *testing.T) {
	if err := run([]string{"-sec4"}, &strings.Builder{}); err == nil {
		t.Fatal("-sec4 without -data should error")
	}
	fleet, err := meshlab.GenerateFleet(meshlab.QuickOptions(16))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "f.bin")
	if err := meshlab.SaveFleet(bin, fleet); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"-data", bin, "-sec4", "-exp", "fig5.1"}, &strings.Builder{})
	if err == nil || !strings.Contains(err.Error(), "needs the full fleet") {
		t.Fatalf("fleet experiment under -sec4: got %v", err)
	}

	// JSON lines streams too, flattening each network as it is read.
	jsonl := filepath.Join(dir, "f.jsonl")
	if err := meshlab.SaveFleet(jsonl, fleet); err != nil {
		t.Fatal(err)
	}
	var fromBin, fromJSON strings.Builder
	if err := run([]string{"-data", bin, "-sec4"}, &fromBin); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-data", jsonl, "-sec4"}, &fromJSON); err != nil {
		t.Fatal(err)
	}
	if fromJSON.String() != fromBin.String() {
		t.Fatal("-sec4 over JSON lines diverges from the binary file")
	}
}

func TestShardedRunMatchesSinglePass(t *testing.T) {
	fleet, err := meshlab.GenerateFleet(meshlab.QuickOptions(17))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "f.bin")
	if err := meshlab.SaveFleetWithSamples(path, fleet); err != nil {
		t.Fatal(err)
	}
	var whole, sharded strings.Builder
	if err := run([]string{"-data", path, "-exp", "fig6.1"}, &whole); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-data", path, "-exp", "fig6.1", "-shards", "3"}, &sharded); err != nil {
		t.Fatal(err)
	}
	if whole.String() != sharded.String() {
		t.Fatalf("sharded output diverges:\n--- whole ---\n%s\n--- sharded ---\n%s", whole.String(), sharded.String())
	}
}

func TestExitCodes(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-shards", "2"}, &buf); exitCode(err) != 2 {
		t.Fatalf("missing -data: exit %d (%v), want 2", exitCode(err), err)
	}
	if err := run([]string{"-bogus-flag"}, &buf); exitCode(err) != 2 {
		t.Fatalf("bad flag: exit %d (%v), want 2", exitCode(err), err)
	}
	if err := run([]string{"-shards", "2", "-sec4", "-data", "x.bin"}, &buf); exitCode(err) != 2 {
		t.Fatalf("-shards with -sec4: exit %d (%v), want 2", exitCode(err), err)
	}
	// The experiment selection is a usage error in every mode.
	for _, args := range [][]string{
		{"-exp", "fig99.9"},
		{"-exp", "fig99.9", "-sec4", "-data", "x.bin"},
		{"-exp", "fig99.9", "-shards", "2", "-data", "x.bin"},
		{"-sec4"},
		{"-sec4", "-exp", "fig5.1", "-data", "x.bin"},
	} {
		if err := run(args, &buf); exitCode(err) != 2 {
			t.Fatalf("%v: exit %d (%v), want 2", args, exitCode(err), err)
		}
	}
	if exitCode(nil) != 0 {
		t.Fatal("nil error must exit 0")
	}
	// A truncated MLF2 file is corrupt input: exit 3 in sharded mode.
	fleet, err := meshlab.GenerateFleet(meshlab.QuickOptions(18))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "f.bin")
	if err := meshlab.SaveFleetWithSamples(path, fleet); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-data", path, "-shards", "2"}, &buf); exitCode(err) != 3 {
		t.Fatalf("truncated input: exit %d (%v), want 3", exitCode(err), err)
	}
}

// TestScenarioInMemory: -scenario generates the declared fleet in memory
// and runs the requested experiment over it.
func TestScenarioInMemory(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "tiny.json")
	if err := os.WriteFile(spec, []byte(`{
		"version": 1, "name": "tiny", "seed": 9,
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
	var buf strings.Builder
	if err := run([]string{"-scenario", spec, "-exp", "fig3.1"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "fig3.1") {
		t.Fatalf("scenario run produced no fig3.1 output:\n%s", buf.String())
	}
}

// TestScenarioUsageErrors: -scenario excludes the file-driven modes, and
// unknown names are usage errors.
func TestScenarioUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-scenario", "quick", "-data", "x.bin"},
		{"-scenario", "quick", "-sec4"},
		{"-scenario", "quick", "-shards", "2"},
		{"-scenario", "quick", "-checkpoint", "ck"},
	} {
		err := run(args, &strings.Builder{})
		if err == nil || exitCode(err) != 2 {
			t.Fatalf("%v: want usage error (exit 2), got %v", args, err)
		}
	}
	err := run([]string{"-scenario", "galactic", "-exp", "fig3.1"}, &strings.Builder{})
	if err == nil || exitCode(err) != 2 || !strings.Contains(err.Error(), "no built-in named") {
		t.Fatalf("unknown scenario: %v", err)
	}
}

// TestResumeUnderAnotherSelection: checkpoints written under one -exp
// selection resume that selection, and are a checkpoint mismatch (exit
// 2) under another, never a silent fresh start.
func TestResumeUnderAnotherSelection(t *testing.T) {
	fleet, err := meshlab.GenerateFleet(meshlab.QuickOptions(19))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "f.bin")
	if err := meshlab.SaveFleetWithSamples(path, fleet); err != nil {
		t.Fatal(err)
	}
	ck := filepath.Join(dir, "ck")
	var first, resumed strings.Builder
	if err := run([]string{"-data", path, "-exp", "fig5.1", "-checkpoint", ck, "-checkpoint-every", "2"}, &first); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-data", path, "-exp", "fig5.1", "-checkpoint", ck, "-resume"}, &resumed); err != nil {
		t.Fatal(err)
	}
	if resumed.String() != first.String() {
		t.Fatal("resuming under the same selection changed the output")
	}
	err = run([]string{"-data", path, "-exp", "all", "-checkpoint", ck, "-resume"}, &strings.Builder{})
	if !errors.Is(err, meshlab.ErrCheckpointMismatch) || exitCode(err) != 2 {
		t.Fatalf("resume under -exp all: err %v, exit %d; want a checkpoint mismatch, exit 2", err, exitCode(err))
	}
}
