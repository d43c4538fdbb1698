// Scenario end-to-end tests: declare a built-in scenario, synthesize its
// dataset, run the full suite through the polling e2e harness in five
// variants (streamed, sharded, kill-and-resume, in-memory, generated),
// and pin every scenario's report against a checked-in golden. External
// test package: the harness imports meshlab, so an internal test would
// be a cycle.
package meshlab_test

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"meshlab"
	"meshlab/internal/atomicio"
	"meshlab/internal/scenario"
	"meshlab/internal/scenario/e2e"
	"meshlab/internal/snr"
)

var updateGoldens = flag.Bool("update", false, "rewrite testdata/scenarios goldens from the current run")

// scenarioGoldenPath is where a scenario's pinned report lives.
func scenarioGoldenPath(name string) string {
	return filepath.Join("testdata", "scenarios", name+".golden")
}

// TestScenarioE2EGoldens runs every built-in scenario (except the
// reference, which is guardrail-scale) through all five run variants,
// requires the converged reports to be byte-identical, and
// compares them against the scenario's golden. Run with -update to
// regenerate goldens after an intentional change — the embedded spec
// sha256 keeps a stale golden from going unnoticed (scripts/
// check_goldens.sh).
func TestScenarioE2EGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full suite per scenario and variant")
	}
	for _, name := range scenario.Names() {
		if name == "reference" {
			continue // covered at reference scale by the guardrail workflow
		}
		t.Run(name, func(t *testing.T) {
			sp, err := scenario.Builtin(name)
			if err != nil {
				t.Fatal(err)
			}
			h := e2e.New(t.TempDir())
			h.Workers = 2
			dataset, err := h.Synthesize(sp)
			if err != nil {
				t.Fatal(err)
			}
			variants := []e2e.Variant{
				e2e.Streamed(),
				e2e.Sharded(3),
				e2e.CheckpointResume(3, "pre-rename"),
				e2e.InMemory(),
				e2e.Generated(),
			}
			runs := make([]*e2e.Run, len(variants))
			for i, v := range variants {
				runs[i] = h.Start(sp, dataset, v)
				t.Cleanup(runs[i].Wait)
			}
			reports := make([][]byte, len(runs))
			for i, r := range runs {
				reports[i], err = h.WaitConverged(r)
				if err != nil {
					t.Fatal(err)
				}
			}
			for i := 1; i < len(reports); i++ {
				if string(reports[i]) != string(reports[0]) {
					t.Fatalf("variant %s report diverges from %s:\n%s\nvs\n%s",
						runs[i].Variant, runs[0].Variant, reports[i], reports[0])
				}
			}
			golden := scenarioGoldenPath(name)
			if *updateGoldens {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := atomicio.WriteBytes(golden, 0o644, reports[0]); err != nil {
					t.Fatal(err)
				}
				t.Logf("updated %s", golden)
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run `go test -run TestScenarioE2EGoldens -update .`): %v", err)
			}
			if string(reports[0]) != string(want) {
				t.Fatalf("%s: converged report differs from golden %s\n--- got ---\n%s\n--- want ---\n%s",
					name, golden, reports[0], want)
			}
		})
	}
}

// TestScenarioSubChunkedGoldens: with the §4 sub-chunk size lowered far
// below the scenarios' network sample counts, networks reach the §4 cores in
// link-aligned chunks on every path — flattened on the walk (generated,
// in-memory) and decoded from the flat-sample section (streamed) — and
// every scenario must still render its golden.
func TestScenarioSubChunkedGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full suite per scenario and variant")
	}
	defer func(old int) { snr.ChunkRows = old }(snr.ChunkRows)
	snr.ChunkRows = 100
	for _, name := range scenario.Names() {
		if name == "reference" {
			continue // covered at reference scale by the guardrail workflow
		}
		t.Run(name, func(t *testing.T) {
			sp, err := scenario.Builtin(name)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(scenarioGoldenPath(name))
			if err != nil {
				t.Fatal(err)
			}
			h := e2e.New(t.TempDir())
			h.Workers = 2
			dataset, err := h.Synthesize(sp)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range []e2e.Variant{e2e.Streamed(), e2e.InMemory(), e2e.Generated()} {
				r := h.Start(sp, dataset, v)
				t.Cleanup(r.Wait)
				got, err := h.WaitConverged(r)
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != string(want) {
					t.Fatalf("%s with %d-sample chunks: report differs from the golden\n--- got ---\n%s\n--- want ---\n%s",
						v.Name, snr.ChunkRows, got, want)
				}
			}
		})
	}
}

// TestScenarioStaleCacheDetected pins the cache-identity contract: a
// dataset generated from one scenario must not silently stand in for a
// different scenario, even when the generation metadata (seed,
// durations) is identical and only the fleet layout differs.
func TestScenarioStaleCacheDetected(t *testing.T) {
	mkSpec := func(t *testing.T, extra string) *scenario.Spec {
		t.Helper()
		sp, err := scenario.Parse([]byte(`{
			"version": 1, "name": "cachecheck", "seed": 3,
			"fleet": {
				"networks": 4,
				"env_mix": {"indoor": 2, "outdoor": 1, "mixed": 1},
				"band_mix": {"bg": 3, "n": 1},
				"size": {"min": 3, "max": 8, "log_mean": 1.2, "log_std": 0.4}`+extra+`
			},
			"probe": {"duration_s": 900, "interval_s": 300}
		}`), "inline")
		if err != nil {
			t.Fatal(err)
		}
		return sp
	}
	spA := mkSpec(t, "")
	spB := mkSpec(t, `, "spacing_scale": 0.5`) // same meta, different layout

	optsA, optsB := spA.Options(), spB.Options()
	if optsA.Meta() != optsB.Meta() {
		t.Fatal("test premise broken: the two scenarios should share generation metadata")
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "a.bin")
	f, err := meshlab.GenerateFleet(optsA)
	if err != nil {
		t.Fatal(err)
	}
	if err := meshlab.SaveFleetWithSamples(path, f); err != nil {
		t.Fatal(err)
	}

	// Streaming with validation: the matching scenario passes, the
	// stale one aborts with ErrCacheMismatch.
	if _, _, err := meshlab.StreamFleet(path, meshlab.StreamOptions{Validate: &optsA}); err != nil {
		t.Fatalf("matching scenario failed validation: %v", err)
	}
	if _, _, err := meshlab.StreamFleet(path, meshlab.StreamOptions{Validate: &optsB}); !errors.Is(err, meshlab.ErrCacheMismatch) {
		t.Fatalf("stale dataset passed validation for a different scenario: %v", err)
	}

	// The dataset cache: a hit for the generating scenario, a
	// regeneration (not a silent reuse) for the other.
	out := filepath.Join(dir, "out.bin")
	if _, status, err := meshlab.GenerateDatasetCached(out, optsA, false, path); err != nil || status != meshlab.CacheHit {
		t.Fatalf("matching scenario should hit the cache (status=%v, err=%v)", status, err)
	}
	if _, status, err := meshlab.GenerateDatasetCached(out, optsB, false, path); err != nil || status != meshlab.CacheWritten {
		t.Fatalf("stale cache should be regenerated, not reused (status=%v, err=%v)", status, err)
	}
	// After the miss the file holds scenario B's fleet, so B now hits
	// and A must in turn regenerate.
	if _, status, err := meshlab.GenerateDatasetCached(out, optsB, false, path); err != nil || status != meshlab.CacheHit {
		t.Fatalf("regenerated cache should now serve scenario B (status=%v, err=%v)", status, err)
	}
}
