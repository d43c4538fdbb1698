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
// Every mode streams its input through the one experiment engine and
// never holds the fleet: a -data file in either format, or a fresh
// synthesis of the quick fleet (or of -scenario's, a built-in name or a
// spec-file path; schema: docs/SCENARIOS.md), analyzed network by
// network as it is generated. Only the selected experiments' work is
// paid for. -scenario does not combine with -data — the spec declares a
// dataset, a file provides one. -plot prints the CDF the experiment
// itself built (fig3.1, fig5.1, fig5.2).
//
// -sec4 streams the §4 samples out of a dataset one per-network group
// at a time (a binary file's flat-sample section when present, decoded
// across -workers cores; an incremental per-network flatten otherwise)
// and runs the sample-only experiments through their chunked
// accumulators without ever materializing the fleet *or* the samples —
// peak memory is the experiments' count/histogram tables plus a bounded
// window of groups, which is what makes reference-scale caches
// analyzable on small machines. Experiments outside that population are
// clear errors rather than silent fallbacks.
//
// -shards N runs the selected experiments as a fault-tolerant sharded
// stream over an MLF2 file (or a directory of per-shard MLF2 files):
// shard workers retry transient I/O failures with capped exponential
// backoff (-max-retries per shard), corrupt shards are quarantined, and
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
// the manifest. Checkpoints resume only under the -exp selection that
// wrote them; another selection is a usage error too. -checkpoint
// without -shards runs one shard.
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
		seed    = fs.Uint64("seed", 42, "generation seed when -data is empty")
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
		scen    = fs.String("scenario", "", "declarative scenario to generate: a built-in name or a spec-file path (conflicts with -data)")
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
			return usagef("-scenario generates its dataset; -sec4/-shards/-checkpoint stream a -data file (generate one with `meshgen -scenario %s`)", *scen)
		}
	}
	var results []*meshlab.Result
	switch {
	case *shards != 0 || *ckdir != "":
		if *sec4 {
			return usagef("-shards already streams the §4 samples chunked; drop -sec4")
		}
		k := *shards
		if k == 0 {
			// -checkpoint alone: one shard, byte-identical to a plain
			// streaming run but resumable.
			k = 1
		}
		results, err = runSharded(*data, meshlab.ShardOptions{
			Shards: k, Workers: *workers, Experiments: ids, MaxRetries: *retries, AllowPartial: *partial,
			CheckpointDir: *ckdir, CheckpointEvery: *ckevery, Resume: *resume,
		})
	case *sec4:
		if *data == "" {
			return usagef("-sec4 streams samples from a dataset file: pass -data fleet.bin (generate one with `meshgen -out fleet.bin -flat-samples`)")
		}
		results, err = meshlab.StreamSampleExperiments(*data, ids, *workers)
	case *data != "":
		results, _, err = meshlab.StreamFleet(*data, meshlab.StreamOptions{Workers: *workers}, ids...)
	default:
		opts := meshlab.QuickOptions(*seed)
		if *scen != "" {
			sp, err := scenario.Resolve(*scen)
			if err != nil {
				return usageError{err}
			}
			opts = sp.Options()
		}
		results, _, err = meshlab.StreamGenerated(opts, meshlab.StreamOptions{Workers: *workers}, ids...)
	}
	if err != nil {
		return err
	}
	for _, res := range results {
		fmt.Fprint(stdout, res.Format())
		if *plot {
			if res.Plot == "" {
				fmt.Fprintln(stdout, "(no plot for this experiment)")
			}
			fmt.Fprint(stdout, res.Plot)
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
		return nil, usagef("experiment %s needs the full fleet; -sec4 can only run %s (drop -sec4 to run it)",
			exp, strings.Join(meshlab.SampleExperimentIDs(), ", "))
	}
	return []string{exp}, nil
}

// runSharded is the -shards mode: the selected experiments over a
// fault-tolerant sharded stream, with the degraded-mode coverage
// manifest (if any) on stderr so piped table output stays clean.
func runSharded(data string, so meshlab.ShardOptions) ([]*meshlab.Result, error) {
	if data == "" {
		return nil, usagef("-shards/-checkpoint stream a binary dataset: pass -data fleet.bin or -data shard-dir/")
	}
	res, err := meshlab.ShardedStream(context.Background(), data, so)
	if err != nil {
		return nil, err
	}
	if res.Manifest.Degraded || res.Manifest.CheckpointNotes() {
		fmt.Fprint(os.Stderr, res.Manifest.Format())
	}
	return res.Results, nil
}
