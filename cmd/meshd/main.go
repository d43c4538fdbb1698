// Command meshd serves the analysis suite as a long-running HTTP
// service: registered datasets warm through the bounded streaming
// pipeline in the background, then report, experiment, §4-section, and
// network queries resolve against immutable in-memory snapshots —
// byte-identical to what meshreport and meshanalyze print for the same
// dataset. See docs/MESHD.md for the HTTP API.
//
// Usage:
//
//	meshd -addr :8080 -dir data -register quick
//	meshd -addr 127.0.0.1:8080 -dir data -register campus=fleet.bin,quick
//
// -register seeds the server at startup with a comma-separated list of
// entries, each NAME=SOURCE or bare SOURCE: a SOURCE ending in .bin is
// a dataset file path, anything else is a scenario (a built-in name or
// a spec-file path; a bare scenario entry registers under the
// scenario's own name). Additional datasets register at runtime via
// POST /v1/datasets.
//
// -workers is the warm budget: warms run one at a time, and queries,
// which serve bytes rendered at warm time, take no worker. -warm-retries
// controls how many times a transiently-failed warm re-runs with
// backoff before the dataset is marked failed; -dataset-ttl and
// -max-datasets bound how many warmed snapshots a long-lived process
// retains (TTL and LRU eviction). See docs/MESHD.md.
//
// SIGINT/SIGTERM shut down gracefully: the listener stops accepting,
// in-flight queries drain, then background warms drain (a warm sitting
// in a retry backoff aborts immediately); exceeding -drain hard-cancels
// in-flight warm streams and exits 1.
//
// Exit codes: 0 clean shutdown, 1 runtime failure, 2 usage error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"meshlab/internal/meshd"
)

// usageError marks an error as the caller's invocation being wrong,
// mapping it to exit code 2 (the CLI-wide contract).
type usageError struct{ err error }

func (u usageError) Error() string { return u.err.Error() }
func (u usageError) Unwrap() error { return u.err }

func usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

// exitCode maps errors to the documented contract: 2 usage, 1 anything
// else (the serving loop has no corrupt/transient classification — a
// bad dataset fails its warm, not the process).
func exitCode(err error) int {
	var u usageError
	if errors.As(err, &u) || errors.Is(err, flag.ErrHelp) {
		return 2
	}
	return 1
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "meshd: %v\n", err)
		os.Exit(exitCode(err))
	}
}

// registerAll seeds the server from the -register list.
func registerAll(s *meshd.Server, list string, stdout io.Writer) error {
	for _, entry := range strings.Split(list, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, source, named := strings.Cut(entry, "=")
		if !named {
			name, source = "", entry
		}
		if strings.HasSuffix(source, ".bin") {
			if !named {
				return usagef("-register entry %q: a dataset file needs a name (NAME=%s)", entry, source)
			}
			if err := s.RegisterPath(name, source); err != nil {
				return fmt.Errorf("-register %s: %w", entry, err)
			}
		} else {
			var err error
			if name, err = s.RegisterScenario(name, source); err != nil {
				return fmt.Errorf("-register %s: %w", entry, err)
			}
		}
		fmt.Fprintf(stdout, "meshd: registered %s (warming)\n", name)
	}
	return nil
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("meshd", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		addr     = fs.String("addr", "127.0.0.1:8080", "address to listen on")
		dir      = fs.String("dir", "", "directory where scenario registrations synthesize their dataset files (required for scenario sources)")
		workers  = fs.Int("workers", 0, "warm budget: warms run one at a time, each streaming on about three quarters of it (0: all cores)")
		register = fs.String("register", "", "datasets to register at startup: comma-separated NAME=SOURCE or SOURCE entries (.bin file paths or scenario names/spec paths)")
		drain    = fs.Duration("drain", 30*time.Second, "graceful-shutdown budget for draining in-flight queries and warms")

		warmRetries = fs.Int("warm-retries", 3, "retries for a transiently-failed warm before the dataset is marked failed (-1: never retry; corrupt data never retries)")
		datasetTTL  = fs.Duration("dataset-ttl", 0, "evict a ready dataset unqueried for this long, releasing its snapshot (0: keep forever)")
		maxDatasets = fs.Int("max-datasets", 0, "cap on registered datasets; past it the least-recently-queried ready dataset is evicted (0: unlimited)")
	)
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	if fs.NArg() > 0 {
		return usagef("unexpected arguments %q (datasets register via -register or POST /v1/datasets)", fs.Args())
	}

	if *dir != "" {
		if err := os.MkdirAll(*dir, 0o755); err != nil {
			return fmt.Errorf("-dir: %w", err)
		}
	}
	s := meshd.New(meshd.Config{
		Dir:         *dir,
		Workers:     *workers,
		WarmRetries: *warmRetries,
		MaxDatasets: *maxDatasets,
		DatasetTTL:  *datasetTTL,
	})
	if err := registerAll(s, *register, stdout); err != nil {
		if errors.Is(err, meshd.ErrBadRequest) {
			return usageError{err}
		}
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: s.Handler()}
	fmt.Fprintf(stdout, "meshd: serving on http://%s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err // listener died before any signal
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintln(stdout, "meshd: shutting down")

	// Drain in-flight queries first, then background warms, both under
	// the same budget.
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		s.Shutdown(drainCtx)
		return fmt.Errorf("draining queries: %w", err)
	}
	if err := s.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("draining warms: %w", err)
	}
	return nil
}
