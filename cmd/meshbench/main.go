// Command meshbench is meshlab's benchmark. It builds meshgen,
// meshreport, meshanalyze and meshd from the checkout it runs in, drives
// them through one workload, checks their outputs, and prints every
// end-to-end metric by name with its unit. With -trace 1 it instead runs
// the same work in-process, times each layer's public functions, writes
// the spans as a JSON trace and prints the per-layer metrics. See
// README.md for the workloads, the metrics and how to compare runs.
//
// Usage, from the checkout root:
//
//	bash cmd/meshbench/bench.sh -workload scenarios -seed 1 -seconds 30 -trace 0
//	bash cmd/meshbench/bench.sh -workload reference -seed 1 -trace 1
//	bash cmd/meshbench/bench.sh -workload scenarios -seed 2 -out runs.json
//	bash cmd/meshbench/bench.sh -compare before.json after.json
//
// The last line of a run's output is a JSON object with the keys
// correct, attempted, failed and metrics. A run whose outputs fail a
// check still prints it, and exits 1.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("meshbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run: reference or scenarios")
		seed    = fs.Uint64("seed", 1, "seed of the request stream and of the order of CLI invocations")
		seconds = fs.Int("seconds", 30, "measurement budget of the run, in seconds")
		trace   = fs.Int("trace", 0, "1: the traced in-process run, reporting per-layer metrics")
		out     = fs.String("out", "", "bench file to append this run's record to")
		cmp     = fs.Bool("compare", false, "compare two bench files: -compare A.json B.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintf(stderr, "meshbench: %v\n", err)
		return 1
	}
	if *cmp {
		return runCompare(root, fs.Args(), stdout, stderr)
	}
	if fs.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fs.Usage()
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintf(stderr, "meshbench: %v\n", err)
		return 2
	}
	rec := &runRecord{Workload: w.name, Seed: *seed, Trace: *trace == 1, Seconds: *seconds, Stamp: takeStamp(root)}
	defs := endToEnd
	if rec.Trace {
		defs = perLayer
	}
	r, err := measure(ctx, root, w, rec)
	if err == nil {
		err = r.finish(defs, rec)
	}
	if err != nil {
		fmt.Fprintf(stderr, "meshbench: %s: %v\n", w.name, err)
		return 1
	}
	printTable(stdout, rec, defs)
	if *out != "" {
		if err := appendRun(*out, rec); err != nil {
			fmt.Fprintf(stderr, "meshbench: %v\n", err)
			return 1
		}
	}
	line, err := summaryLine(rec, defs)
	if err != nil {
		fmt.Fprintf(stderr, "meshbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rec.Correct {
		return 1
	}
	return 0
}

// measure builds what the run needs and runs it, leaving nothing behind
// but the build cache, the binaries and, for a traced run, the trace.
func measure(ctx context.Context, root string, w *workload, rec *runRecord) (*recorder, error) {
	build := filepath.Join(root, ".bench_build")
	e := &env{root: root, bin: filepath.Join(build, "bin"), work: filepath.Join(build, "work", w.name)}
	if err := os.RemoveAll(e.work); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(e.work)
	if rec.Trace {
		tracePath := filepath.Join(build, "traces", fmt.Sprintf("%s-seed%d.json", w.name, rec.Seed))
		return runTrace(ctx, e, w, rec.Seed, tracePath)
	}
	if err := buildCLIs(ctx, root, e.bin); err != nil {
		return nil, err
	}
	return runWorkload(ctx, e, w, rec.Seed, float64(rec.Seconds))
}

// findRoot returns the checkout root: the nearest directory at or above
// the working directory that holds BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json at or above the working directory")
		}
		dir = parent
	}
}

func runCompare(root string, files []string, stdout, stderr io.Writer) int {
	if len(files) != 2 {
		fmt.Fprintln(stderr, "meshbench: -compare takes two bench files: A.json B.json")
		return 2
	}
	sp, err := readSpec(root)
	if err != nil {
		fmt.Fprintf(stderr, "meshbench: %v\n", err)
		return 1
	}
	var sides [2]*benchFile
	for i, f := range files {
		if sides[i], err = readBench(f); err != nil {
			fmt.Fprintf(stderr, "meshbench: %v\n", err)
			return 1
		}
	}
	if _, regressed := compare(stdout, sp, sides[0], sides[1]); regressed {
		return 1
	}
	return 0
}
