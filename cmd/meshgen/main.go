// Command meshgen generates a synthetic Meraki-style mesh measurement
// dataset (probe data + client associations) and writes it to disk.
//
// Usage:
//
//	meshgen -seed 42 -scale quick -out fleet.jsonl
//	meshgen -seed 42 -scale reference -interval 1200 -out fleet.bin
//	meshgen -seed 42 -scale reference -dataset cache.bin -out fleet.jsonl
//	meshgen -scenario dense-urban -out dense.bin
//	meshgen -scenario specs/my-campus.json -out campus.bin
//
// -scenario replaces the -scale/-probe-hours/-interval knobs with a
// declarative spec: a built-in name (see -list-scenarios) or a path to a
// scenario JSON file (schema: docs/SCENARIOS.md). The spec pins the
// seed; an explicit -seed overrides it.
//
// A ".bin" output suffix selects the compact binary format (spec:
// docs/FORMAT.md); anything else writes JSON lines. -flat-samples
// additionally appends the pre-flattened §4 sample section to a .bin
// output so analysis warm starts skip re-flattening (dataset caches get
// it automatically). Synthesis fans out across -workers cores (0 = all);
// the dataset is byte-identical at any worker count.
//
// meshgen never holds the fleet: each network is validated and encoded
// as it leaves the synthesis pipeline, in fleet order, and the sample
// section spools beside the output until the last network is written.
// Peak memory is the in-flight window — at most one network per worker
// — not the fleet. Every output is written atomically (temp file, fsync,
// rename; a device such as /dev/null is written in place), so a failed
// run leaves any previous file at -out intact.
//
// With -dataset, the dataset is cached at the given path in the binary
// format, flat-sample section included. A later run with a matching
// seed/config streams the cache into -out instead of re-synthesizing; a
// miss synthesizes once, writing each network to both files. A cache
// file that claims the binary format but whose header cannot be decoded
// is corrupt input — reported with exit 3 rather than silently clobbered
// by a fresh synthesis. See docs/FORMAT.md for the cache rules.
//
// Exit codes: 0 success, 1 runtime failure, 2 usage error, 3 corrupt
// input, 4 transient-retry budget exhausted, 130 interrupted — the same
// contract meshanalyze and meshreport document.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"meshlab"
	"meshlab/internal/conc"
	"meshlab/internal/rusage"
	"meshlab/internal/scenario"
)

// usageError marks an error as the caller's invocation being wrong (bad
// flag, bad combination), mapping it to exit code 2 instead of the
// runtime-failure codes.
type usageError struct{ err error }

func (u usageError) Error() string { return u.err.Error() }
func (u usageError) Unwrap() error { return u.err }

func usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

// exitCode implements the documented contract: 2 for usage errors, then
// the streaming classification — 3 corrupt input, 4 transient
// exhaustion, 130 interrupted, 1 anything else. The authoritative table
// lives on shard.ExitCode.
func exitCode(err error) int {
	var u usageError
	if errors.As(err, &u) || errors.Is(err, flag.ErrHelp) {
		return 2
	}
	return meshlab.ShardExitCode(err)
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "meshgen: %v\n", err)
		os.Exit(exitCode(err))
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("meshgen", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		seed       = fs.Uint64("seed", 42, "root RNG seed; equal seeds give identical datasets")
		scale      = fs.String("scale", "quick", "dataset scale: quick (12 networks, 4h) or reference (110 networks, 24h)")
		out        = fs.String("out", "fleet.jsonl", "output path (JSON lines; use a .bin suffix for the compact binary format)")
		probeHours = fs.Float64("probe-hours", 0, "override probe snapshot length in hours")
		interval   = fs.Float64("interval", 0, "override probe report interval in seconds")
		noClients  = fs.Bool("no-clients", false, "skip client simulation")
		workers    = fs.Int("workers", 0, "synthesis worker pool size (0: all cores, 1: serial)")
		cache      = fs.String("dataset", "", "dataset cache path: loaded when it matches the seed/config, (re)written otherwise")
		flatSamp   = fs.Bool("flat-samples", false, "append the pre-flattened §4 sample section to a .bin -out file (larger file, O(read) warm analysis)")
		scen       = fs.String("scenario", "", "declarative scenario: a built-in name or a spec-file path (overrides -scale; see -list-scenarios)")
		listScen   = fs.Bool("list-scenarios", false, "list the built-in scenarios and exit")
		rss        = fs.Bool("rusage", false, "print the process max RSS (getrusage) after the run — what the CI guardrail records")
	)
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	if *listScen {
		return listScenarios(stdout)
	}
	// The flag doubles as the process-wide worker budget, so probe-link
	// fan-out inside each network obeys it too.
	conc.SetBudget(*workers)
	if *rss {
		defer func() {
			fmt.Fprintf(stdout, "max RSS (getrusage): %d MB\n", rusage.MaxRSSBytes()>>20)
		}()
	}
	if *flatSamp && !strings.HasSuffix(*out, ".bin") {
		return usagef("-flat-samples requires a .bin -out path (the JSON-lines format has no sample section)")
	}

	var opts meshlab.Options
	if *scen != "" {
		// The spec owns the fleet and probe knobs; mixing them with the
		// imperative flags would make the scenario name a lie.
		var conflict []string
		seedSet := false
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "scale", "probe-hours", "interval":
				conflict = append(conflict, "-"+f.Name)
			case "seed":
				seedSet = true
			}
		})
		if len(conflict) > 0 {
			return usagef("-scenario conflicts with %s: the spec declares the fleet and probe window", strings.Join(conflict, ", "))
		}
		sp, err := scenario.Resolve(*scen)
		if err != nil {
			return err
		}
		opts = sp.Options()
		if seedSet {
			opts.Seed = *seed
		}
		fmt.Fprintf(stdout, "scenario %s (spec sha256 %s)\n", sp.Name, sp.SHA256)
	} else {
		switch *scale {
		case "quick":
			opts = meshlab.QuickOptions(*seed)
		case "reference":
			opts = meshlab.ReferenceOptions(*seed)
		default:
			return usagef("unknown scale %q (quick|reference)", *scale)
		}
		if *probeHours > 0 {
			opts.Probe.Duration = *probeHours * 3600
		}
		if *interval > 0 {
			opts.Probe.ReportInterval = *interval
		}
	}
	opts.SkipClients = opts.SkipClients || *noClients
	opts.Workers = *workers

	// The timing line covers synthesis or the cache load, each of which
	// writes -out as it goes.
	start := time.Now()
	var sum meshlab.DatasetSummary
	status := meshlab.CacheWritten
	var err error
	if *cache != "" {
		sum, status, err = meshlab.GenerateDatasetCached(*out, opts, *flatSamp, *cache)
		if status == meshlab.CacheBypassed {
			fmt.Fprintf(stdout, "note: -dataset bypassed: these options cannot be validated against a cache file\n")
		}
	} else {
		sum, err = meshlab.GenerateDataset(*out, opts, *flatSamp)
	}
	if err != nil {
		return err
	}
	dur := time.Since(start)

	fmt.Fprintf(stdout, "wrote %s\n", *out)
	fmt.Fprintf(stdout, "  seed             %d\n", sum.Meta.Seed)
	fmt.Fprintf(stdout, "  network datasets %d (bg: %d, n: %d)\n", sum.Datasets, sum.BG, sum.N)
	fmt.Fprintf(stdout, "  directed links   %d\n", sum.Links)
	fmt.Fprintf(stdout, "  probe sets       %d\n", sum.ProbeSets)
	fmt.Fprintf(stdout, "  clients          %d\n", sum.Clients)
	if status == meshlab.CacheHit {
		fmt.Fprintf(stdout, "  loaded from cache %s in %v\n", *cache, dur.Round(time.Millisecond))
	} else {
		fmt.Fprintf(stdout, "  generated in     %v\n", dur.Round(time.Millisecond))
	}
	return nil
}

// listScenarios prints the built-in catalog, one scenario per entry.
func listScenarios(stdout io.Writer) error {
	for _, name := range scenario.Names() {
		sp, err := scenario.Builtin(name)
		if err != nil {
			return err
		}
		total, bg, n := sp.Datasets()
		fmt.Fprintf(stdout, "%s\n  %d networks, %d datasets (bg %d, n %d), probe %gs @ %gs, seed %d\n  %s\n",
			name, sp.Fleet.Networks, total, bg, n, sp.Probe.DurationS, sp.Probe.IntervalS, *sp.Seed, sp.Description)
	}
	return nil
}
