// Command meshanalyze runs one (or all) of the thesis's experiments
// against a dataset and prints the regenerated table, optionally with an
// ASCII rendering of the figure's primary CDF.
//
// Usage:
//
//	meshanalyze -data fleet.jsonl -exp fig5.1
//	meshanalyze -seed 42 -exp all          # generate a quick fleet in memory
//	meshanalyze -scenario high-churn -exp fig7.2   # generate a scenario in memory
//	meshanalyze -data fleet.jsonl -exp fig5.2 -plot
//	meshanalyze -data fleet.bin -sec4      # §4 tables at table-sized memory
//
// -scenario generates the declared fleet in memory (a built-in name or a
// spec-file path; schema: docs/SCENARIOS.md) in place of the default
// quick fleet. It does not combine with -data — the spec declares a
// dataset, a file provides one.
//
// -sec4 streams the §4 samples out of a binary dataset one per-network
// group at a time (the flat-sample section when present, decoded across
// -workers cores; an incremental per-network flatten otherwise) and runs
// the sample-only experiments through their chunked accumulators without
// ever materializing the fleet *or* the samples — peak memory is the
// experiments' count/histogram tables plus a bounded window of groups,
// which is what makes reference-scale caches analyzable on small
// machines. Experiments outside that population, or a dataset in a
// format that cannot stream, are clear errors rather than silent
// fallbacks.
//
// -shards N runs the full suite as a fault-tolerant sharded stream over
// an MLF2 file (or a directory of per-shard MLF2 files): shard workers
// retry transient I/O failures with capped exponential backoff
// (-max-retries per shard), corrupt shards are quarantined, and
// -allow-partial turns a quarantine from a fatal error into a degraded
// run whose coverage manifest is printed to stderr.
//
// -checkpoint DIR makes the sharded run crash-resumable: every
// -checkpoint-every fully-observed networks, each shard durably
// snapshots its accumulator state into DIR (atomic temp+fsync+rename,
// CRC-guarded, last two generations kept). A killed run restarted with
// -resume seeks straight past the checkpointed work and finalizes
// byte-identically to an uninterrupted run; checkpoints from a
// different dataset or shard layout are a usage error (exit 2), and
// stale or corrupt generations are skipped by checksum and reported in
// the manifest. -checkpoint without -shards runs one shard.
//
// Exit codes: 0 success, 1 runtime failure, 2 usage error (including a
// -resume dataset mismatch), 3 corrupt input, 4 transient-retry budget
// exhausted, 130 interrupted.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"meshlab"
	"meshlab/internal/conc"
	"meshlab/internal/dataset"
	"meshlab/internal/phy"
	"meshlab/internal/routing"
	"meshlab/internal/rusage"
	"meshlab/internal/scenario"
	"meshlab/internal/textplot"
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

// exitCode implements the documented contract: 2 for usage errors
// (flag-parse failures, and a -resume whose checkpoints name a
// different dataset), then the streaming classification — 3 corrupt
// input, 4 transient exhaustion, 130 interrupted, 1 anything else. The
// authoritative table lives on shard.ExitCode.
func exitCode(err error) int {
	var u usageError
	if errors.As(err, &u) || errors.Is(err, flag.ErrHelp) || errors.Is(err, meshlab.ErrCheckpointMismatch) {
		return 2
	}
	return meshlab.ShardExitCode(err)
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "meshanalyze: %v\n", err)
		os.Exit(exitCode(err))
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("meshanalyze", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		data    = fs.String("data", "", "dataset file from meshgen (empty: generate a quick fleet from -seed)")
		seed    = fs.Uint64("seed", 42, "seed for in-memory generation when -data is empty")
		exp     = fs.String("exp", "all", "experiment ID (see -list) or 'all'")
		list    = fs.Bool("list", false, "list experiment IDs and exit")
		plot    = fs.Bool("plot", false, "also render an ASCII plot where the figure is a CDF")
		sec4    = fs.Bool("sec4", false, "stream the §4 samples from a binary -data file group by group and run the sample-only experiments at table-sized memory")
		shards  = fs.Int("shards", 0, "run the suite as N fault-tolerant shards over an MLF2 -data file or shard directory (0: single-pass)")
		retries = fs.Int("max-retries", 3, "per-shard transient-failure retry budget (sharded mode)")
		partial = fs.Bool("allow-partial", false, "complete a sharded run without its quarantined shards, printing a coverage manifest to stderr (default: a corrupt shard is fatal)")
		ckdir   = fs.String("checkpoint", "", "checkpoint directory: durably snapshot each shard's progress so a killed run can -resume (implies one shard if -shards is 0)")
		ckevery = fs.Int("checkpoint-every", 16, "networks between durable checkpoints per shard")
		resume  = fs.Bool("resume", false, "resume from the newest valid checkpoints in -checkpoint before streaming")
		workers = fs.Int("workers", 0, "process-wide worker budget for every parallel kernel (0: all cores, 1: effectively single-threaded)")
		rss     = fs.Bool("rusage", false, "print the process max RSS (getrusage) after the run")
		scen    = fs.String("scenario", "", "declarative scenario to generate in memory: a built-in name or a spec-file path (conflicts with -data)")
	)
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	conc.SetBudget(*workers)
	if *rss {
		defer func() {
			fmt.Fprintf(stdout, "max RSS (getrusage): %d MB\n", rusage.MaxRSSBytes()>>20)
		}()
	}

	if *list {
		for _, id := range meshlab.ExperimentIDs() {
			fmt.Fprintln(stdout, id)
		}
		return nil
	}

	if *resume && *ckdir == "" {
		return usagef("-resume needs -checkpoint DIR to resume from")
	}
	// Every mode takes the same experiment selection, validated once.
	ids, err := selectIDs(*exp, *sec4)
	if err != nil {
		return err
	}
	if *scen != "" {
		if *data != "" {
			return usagef("-scenario and -data are mutually exclusive: the spec declares a dataset, the file provides one (use meshreport -scenario -data to validate a file against a scenario)")
		}
		if *sec4 || *shards != 0 || *ckdir != "" {
			return usagef("-scenario generates in memory; -sec4/-shards/-checkpoint stream a -data file (generate one with `meshgen -scenario %s`)", *scen)
		}
	}
	if *shards != 0 || *ckdir != "" {
		if *sec4 {
			return usagef("-shards already streams the §4 samples chunked; drop -sec4")
		}
		k := *shards
		if k == 0 {
			// -checkpoint alone: one shard, byte-identical to a plain
			// streaming run but resumable.
			k = 1
		}
		return runSharded(stdout, *data, *exp, *plot, meshlab.ShardOptions{
			Shards: k, Workers: *workers, MaxRetries: *retries, AllowPartial: *partial,
			CheckpointDir: *ckdir, CheckpointEvery: *ckevery, Resume: *resume,
		})
	}

	if *sec4 {
		return runSampleOnly(stdout, *data, ids, *plot, *workers)
	}

	fleet, err := loadOrGenerate(*data, *scen, *seed)
	if err != nil {
		return err
	}
	// One run for every requested experiment, so experiments that share
	// per-network work (routing, censuses) compute it once.
	results, err := meshlab.AnalyzeFleet(fleet, ids...)
	if err != nil {
		return err
	}
	for _, res := range results {
		fmt.Fprint(stdout, res.Format())
		if *plot {
			renderPlot(stdout, fleet, res.ID)
		}
		fmt.Fprintln(stdout)
	}
	return nil
}

// selectIDs resolves -exp into the experiments to run: nil for the full
// suite (the §4 population under -sec4), otherwise the one named
// experiment. An unknown ID, or one -sec4 cannot run, is a usage error.
func selectIDs(exp string, sec4 bool) ([]string, error) {
	if exp == "all" {
		if sec4 {
			return meshlab.SampleExperimentIDs(), nil
		}
		return nil, nil
	}
	if !slices.Contains(meshlab.ExperimentIDs(), exp) {
		return nil, usagef("unknown experiment %q (see -list)", exp)
	}
	if sec4 && !meshlab.SampleOnlyExperiment(exp) {
		return nil, usagef("experiment %s needs the full fleet; -sec4 can only run %s (drop -sec4 to materialize the dataset)",
			exp, strings.Join(meshlab.SampleExperimentIDs(), ", "))
	}
	return []string{exp}, nil
}

// runSharded is the -shards mode: the full suite over a fault-tolerant
// sharded stream, with the degraded-mode coverage manifest (if any) on
// stderr so piped table output stays clean.
func runSharded(stdout io.Writer, data, exp string, plot bool, so meshlab.ShardOptions) error {
	if data == "" {
		return usagef("-shards/-checkpoint stream a binary dataset: pass -data fleet.bin or -data shard-dir/")
	}
	res, err := meshlab.ShardedStream(context.Background(), data, so)
	if err != nil {
		return err
	}
	if res.Manifest.Degraded || res.Manifest.CheckpointNotes() {
		fmt.Fprint(os.Stderr, res.Manifest.Format())
	}
	for _, r := range res.Results {
		if exp != "all" && r.ID != exp {
			continue
		}
		fmt.Fprint(stdout, r.Format())
		if plot {
			fmt.Fprintln(stdout, "(no plot in sharded mode)")
		}
		fmt.Fprintln(stdout)
	}
	return nil
}

// runSampleOnly is the -sec4 mode: the §4 sample-only experiments over a
// chunked sample-group stream, never materializing the fleet or the
// samples.
func runSampleOnly(stdout io.Writer, data string, ids []string, plot bool, workers int) error {
	if data == "" {
		return usagef("-sec4 streams samples from a dataset file: pass -data fleet.bin (generate one with `meshgen -out fleet.bin -flat-samples`)")
	}
	results, err := meshlab.StreamSampleExperiments(data, ids, workers)
	if err != nil {
		return err
	}
	for _, res := range results {
		fmt.Fprint(stdout, res.Format())
		if plot {
			// No sample-only experiment has a CDF plot; keep the fallback
			// message the full mode prints.
			fmt.Fprintln(stdout, "(no plot for this experiment)")
		}
		fmt.Fprintln(stdout)
	}
	return nil
}

func loadOrGenerate(path, scen string, seed uint64) (*meshlab.Fleet, error) {
	if path != "" {
		return meshlab.LoadFleet(path)
	}
	if scen != "" {
		sp, err := scenario.Resolve(scen)
		if err != nil {
			return nil, usageError{err}
		}
		return meshlab.GenerateFleet(sp.Options())
	}
	return meshlab.GenerateFleet(meshlab.QuickOptions(seed))
}

// renderPlot draws the figure's primary distribution for the experiments
// where a terminal CDF is meaningful, computed straight from the fleet.
func renderPlot(stdout io.Writer, f *meshlab.Fleet, id string) {
	ri := phy.BandBG.RateIndex("1M")
	switch id {
	case "fig5.1":
		var imps []float64
		for _, nd := range f.ByBand("bg") {
			if nd.NumAPs() < 5 {
				continue
			}
			ms, err := routing.SuccessMatrices(nd)
			if err != nil {
				return
			}
			for _, pr := range routing.Improvements(ms[ri], routing.ETX1) {
				imps = append(imps, pr.Improvement)
			}
		}
		fmt.Fprint(stdout, textplot.CDF(imps, 60, 14, "ETX1 improvement @1M"))
	case "fig5.2":
		var ratios []float64
		for _, nd := range f.ByBand("bg") {
			ms, err := routing.SuccessMatrices(nd)
			if err != nil {
				return
			}
			ratios = append(ratios, routing.AsymmetryRatios(ms[ri])...)
		}
		fmt.Fprint(stdout, textplot.CDF(ratios, 60, 14, "fwd/rev delivery ratio @1M"))
	case "fig3.1":
		var stds []float64
		f.EachProbeSet("", func(_ *dataset.NetworkData, _ *dataset.Link, ps *dataset.ProbeSet) {
			stds = append(stds, float64(ps.SNRStd))
		})
		fmt.Fprint(stdout, textplot.CDF(stds, 60, 14, "intra-probe-set SNR std (dB)"))
	default:
		fmt.Fprintln(stdout, "(no plot for this experiment)")
	}
}
