// Package shard runs the streaming experiment suite across network-range
// shards with fault tolerance: each shard streams its contiguous slice of
// the fleet through its own experiments.StreamContext (re-opening the
// dataset with its own file handle), transient I/O failures are retried
// with capped exponential backoff, corrupt shards are quarantined, and
// the surviving partials merge — in shard order — into one context whose
// results are byte-identical to a whole-fleet streaming run.
//
// Two dataset shapes are supported:
//
//   - A single MLF2 file: wire.BuildPlan indexes the network records
//     once, the plan partitions them into contiguous index ranges, and
//     each shard worker seeks straight to its range (and filters the
//     shared flat-sample section down to its own networks). The framing
//     — record length prefixes and group headers — must be intact for
//     planning and filtering; corruption confined to a record body or a
//     group's rows quarantines only the shard that decodes it.
//   - A directory of MLF2 files: each file is one shard, walked whole,
//     in file-name order; client sections concatenate in the same order.
//
// Failure policy: an error that wire.IsCorrupt classifies as data
// corruption is never retried — the bytes are wrong, not unlucky — and
// quarantines the shard. Any other error is presumed transient and
// retried on a fresh file handle up to Options.MaxRetries times; a shard
// that exhausts its budget is reported as such. Without
// Options.AllowPartial any failed shard fails the run, wrapping
// ErrCorruptShard or ErrExhausted so callers can exit with distinct
// codes. With it, the run completes in degraded mode over the surviving
// shards, and the Manifest names every network observed and skipped with
// each failed shard's full error chain.
package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"meshlab/internal/checkpoint"
	"meshlab/internal/conc"
	"meshlab/internal/dataset"
	"meshlab/internal/experiments"
	"meshlab/internal/wire"
)

// ErrCorruptShard marks a run that failed (or degraded) because a shard
// hit data corruption: retrying cannot help, the input needs fixing.
var ErrCorruptShard = errors.New("shard: corrupt input")

// ErrExhausted marks a run that failed because a shard's transient-retry
// budget ran out: the input may be fine, the environment was not.
var ErrExhausted = errors.New("shard: transient retry budget exhausted")

// State classifies how one shard ended.
type State int

const (
	// OK: the shard streamed completely (possibly after retries).
	OK State = iota
	// Quarantined: the shard hit corrupt data and was excluded without
	// retrying.
	Quarantined
	// Exhausted: every attempt failed with a presumed-transient error.
	Exhausted
	// Failed: the shard stopped for a non-transient, non-corrupt reason
	// — a checkpoint-write failure (including an injected kill), a
	// checkpoint identity mismatch, or cancellation. Never dressed up as
	// an exhausted retry budget: the storage or invocation is wrong, not
	// unlucky.
	Failed
)

func (s State) String() string {
	switch s {
	case OK:
		return "ok"
	case Quarantined:
		return "quarantined"
	case Exhausted:
		return "exhausted"
	case Failed:
		return "failed"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// classify maps a shard attempt's final error to its report state.
func classify(err error) State {
	switch {
	case err == nil:
		return OK
	case wire.IsCorrupt(err):
		return Quarantined
	case errors.Is(err, ErrCheckpoint) || errors.Is(err, checkpoint.ErrMismatch),
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return Failed
	default:
		return Exhausted
	}
}

// Report describes one shard's outcome.
type Report struct {
	// Index is the shard's position (fleet order / file-name order).
	Index int
	// File is the dataset file the shard streamed.
	File string
	// Networks names the shard's networks in fleet order; nil when the
	// shard's plan itself failed before the names were known.
	Networks []string
	// Attempts counts how many times the shard ran (≥ 1).
	Attempts int
	State    State
	// Err is the shard's final error (nil for OK shards), with its full
	// wrap chain intact: wire.Error context, ErrCorrupt/transient cause.
	Err error
	// Checkpoint carries the shard's checkpoint activity notes: resume
	// points taken, and stale or corrupt generations skipped by checksum.
	Checkpoint []string
}

// Manifest is the coverage record of a sharded run: what was observed,
// what was lost, and why — the artifact a degraded-mode run hands the
// user in place of silent omission.
type Manifest struct {
	// Degraded reports whether any shard failed (so the results cover a
	// subset of the dataset).
	Degraded bool
	Shards   []Report
	// Observed and Skipped name the networks covered by, and missing
	// from, the merged results, each in fleet order.
	Observed []string
	Skipped  []string
}

// Format renders the manifest as an indented block, one line per shard
// plus the skipped-network roll-up — the degraded-mode report the CLIs
// print to stderr.
func (m *Manifest) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sharded run: %d shards, %d networks observed, %d skipped\n",
		len(m.Shards), len(m.Observed), len(m.Skipped))
	for i := range m.Shards {
		r := &m.Shards[i]
		nets := fmt.Sprintf("%d networks", len(r.Networks))
		if r.Networks == nil {
			nets = "networks unknown (plan failed)"
		}
		fmt.Fprintf(&b, "  shard %d [%s]: %s, %s, %d attempt(s)\n", r.Index, r.File, r.State, nets, r.Attempts)
		if r.Err != nil {
			fmt.Fprintf(&b, "    cause: %v\n", r.Err)
		}
		for _, note := range r.Checkpoint {
			fmt.Fprintf(&b, "    checkpoint: %s\n", note)
		}
	}
	if len(m.Skipped) > 0 {
		fmt.Fprintf(&b, "  skipped networks: %s\n", strings.Join(m.Skipped, ", "))
	}
	return b.String()
}

// CheckpointNotes reports whether any shard recorded checkpoint
// activity (resumes, or corrupt generations skipped) — the CLIs print
// the manifest when this is true even for non-degraded runs.
func (m *Manifest) CheckpointNotes() bool {
	for i := range m.Shards {
		if len(m.Shards[i].Checkpoint) > 0 {
			return true
		}
	}
	return false
}

// Result is a sharded run's output.
type Result struct {
	// Results holds every selected experiment's rendered table, in
	// selection order — byte-identical to a whole-fleet streaming run
	// when no shard failed.
	Results []*experiments.Result
	// Meta is the dataset's stamped generation metadata (the first
	// planned shard's, in directory mode).
	Meta dataset.Meta
	// Networks counts the networks the merged results actually cover;
	// NetworksBG, NetworksN, and ProbeSets break the same coverage down
	// for report preambles.
	Networks, NetworksBG, NetworksN int
	ProbeSets                       int
	// FlatSamples reports whether the dataset carried the flat-sample
	// section (every planned shard in directory mode must agree in
	// practice; any one having it sets this).
	FlatSamples bool
	Manifest    *Manifest
}

// Options configures a sharded run.
type Options struct {
	// Shards is the shard count for single-file datasets; ≤ 0 means the
	// process worker budget, and the count is clamped to the network
	// count. Ignored in directory mode (one shard per file).
	Shards int
	// Workers bounds each shard's StreamContext pipeline and sample
	// decode pool; ≤ 0 means the process worker budget.
	Workers int
	// Experiments selects the experiments to run, in result order; none
	// means the full suite in paper order. A checkpoint resumes only
	// under the selection that wrote it.
	Experiments []string
	// MaxRetries is how many times a shard re-runs after a
	// presumed-transient failure (0 = fail on the first).
	MaxRetries int
	// AllowPartial completes the run in degraded mode when shards fail,
	// instead of failing it; the Manifest records the damage. A run where
	// every shard fails still errors.
	AllowPartial bool
	// Open opens the dataset file; nil means os.Open. Tests inject
	// faults here (faultfs.Injector.WrapOpen).
	Open func(path string) (io.ReadSeekCloser, error)
	// RetryBase is the backoff unit: attempt k sleeps in
	// [base·2ᵏ, 1.5·base·2ᵏ), capped at 64·base. ≤ 0 means 5ms.
	RetryBase time.Duration
	// CheckpointDir enables durable checkpoints: each shard periodically
	// snapshots its accumulator state into this directory (in the
	// internal/checkpoint format) so a crashed or killed run can resume.
	// Empty disables checkpointing.
	CheckpointDir string
	// CheckpointEvery is how many networks a shard fully observes between
	// checkpoints; ≤ 0 means 16.
	CheckpointEvery int
	// Resume seeds each shard from the newest valid checkpoint in
	// CheckpointDir before streaming (fresh start when none exists, with
	// corrupt generations skipped by checksum). A checkpoint whose
	// manifest names a different dataset or shard layout, or whose state
	// holds a different experiment selection, fails the run with
	// checkpoint.ErrMismatch.
	Resume bool
	// CheckpointHook, when non-nil, observes every checkpoint write phase
	// — the crash-injection seam (see faultfs.CrashPlan.Hook). Nil in
	// production.
	CheckpointHook func(phase, path string) error
}

func (o *Options) open() func(string) (io.ReadSeekCloser, error) {
	if o.Open != nil {
		return o.Open
	}
	return func(path string) (io.ReadSeekCloser, error) { return os.Open(path) }
}

func (o *Options) retryBase() time.Duration {
	if o.RetryBase > 0 {
		return o.RetryBase
	}
	return 5 * time.Millisecond
}

// ExitCode maps a sharded-run (or any streaming) error to the CLI exit
// code. This is the single authoritative statement of the contract —
// the CLI doc headers and README mirror it:
//
//	0   success
//	1   any other failure (I/O, internal, checkpoint write)
//	2   usage errors — never reach this function; the CLIs exit 2
//	    directly, including a -resume whose checkpoints name a
//	    different dataset (checkpoint.ErrMismatch)
//	3   corrupt input: wire-level corruption, a quarantined shard, or
//	    malformed JSON lines
//	4   transient retry budget exhausted
//	130 interrupted: context canceled or deadline exceeded (the shell
//	    convention for SIGINT), checked first so a cancellation that
//	    surfaces wrapped in a shard error still reports as such
func ExitCode(err error) int {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return 130
	case errors.Is(err, ErrCorruptShard) || wire.IsCorrupt(err) || errors.Is(err, dataset.ErrMalformed):
		return 3
	case errors.Is(err, ErrExhausted):
		return 4
	}
	return 1
}

// Run executes the selected experiments over the dataset at path —
// a single MLF2 file, or a directory of per-shard MLF2 files — sharded
// per opts. ctx cancellation aborts between attempts and during backoff
// sleeps.
func Run(ctx context.Context, path string, opts Options) (*Result, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	if info.IsDir() {
		return runDir(ctx, path, opts)
	}
	return runFile(ctx, path, opts)
}

// backoff returns attempt k's sleep: capped exponential with
// deterministic jitter from the shard's own rng, so concurrent shards
// desynchronize without making test runs timing-dependent.
func backoff(base time.Duration, attempt int, rng *rand.Rand) time.Duration {
	d := base << uint(attempt)
	if max := base << 6; d > max || d <= 0 {
		d = max
	}
	return d + time.Duration(rng.Int63n(int64(d)/2+1))
}

// sleep waits d or until ctx cancels, whichever first.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// shardRng seeds a shard's jitter stream from its index alone, so a
// scenario replays identically at any concurrency.
func shardRng(index int) *rand.Rand {
	return rand.New(rand.NewSource(int64(index)*0x9E3779B9 + 0x6A09E667))
}

// shardOut is one shard's successful yield: the drained context plus
// the dataset tallies a report preamble wants.
type shardOut struct {
	sc               *experiments.StreamContext
	bg, n, probeSets int
	flatSamples      bool
}

// attempt runs one shard's body up to 1+MaxRetries times on fresh file
// handles, returning the shard's yield, the attempt count, and the
// final error. Corruption short-circuits the loop; ctx cancellation
// surfaces as the context's error.
func attempt(ctx context.Context, index int, opts Options, run func() (*shardOut, error)) (*shardOut, int, error) {
	rng := shardRng(index)
	for try := 0; ; try++ {
		if err := ctx.Err(); err != nil {
			return nil, try, err
		}
		out, err := run()
		if err == nil {
			return out, try + 1, nil
		}
		// Corruption, checkpoint-write failures (including injected
		// kills), and checkpoint identity mismatches are not transient:
		// retrying re-streams data without fixing the cause.
		if wire.IsCorrupt(err) || errors.Is(err, ErrCheckpoint) || errors.Is(err, checkpoint.ErrMismatch) || try >= opts.MaxRetries {
			return nil, try + 1, err
		}
		if serr := sleep(ctx, backoff(opts.retryBase(), try, rng)); serr != nil {
			return nil, try + 1, serr
		}
	}
}

// streamRange streams networks [first, first+count) of a planned file
// into a fresh StreamContext, then the flat-sample section filtered to
// those networks, and drains the pipeline. keep holds band-qualified
// "band/name" keys of the shard's dataset entries; nil takes every
// sample group (directory mode, where the shard is the whole file).
//
// With a non-nil ck, the walk checkpoints every ck.every fully-observed
// networks (and, in the sample phase, every ck.every fully-fed sample
// networks), and first resumes from the newest valid checkpoint: the
// restored snapshot replaces the zero state, and the existing
// ResumeNetworks/ResumeSamples seek path skips straight past the work
// already covered instead of re-walking the shard from byte zero.
func streamRange(f io.ReadSeeker, plan *wire.Plan, first, count int, keep map[string]bool, opts Options, ck *ckptState) (*shardOut, error) {
	out := &shardOut{sc: experiments.NewStreamContext(opts.Workers, opts.Experiments...)}
	done := false
	// The collector goroutine must be released on every exit path; a
	// failed attempt's context is abandoned, not merged.
	defer func() {
		if !done {
			out.sc.Drain()
		}
	}()
	out.flatSamples = plan.SamplesOffset != 0
	// A selection without §4 experiments skips the section.
	hasSamples := out.flatSamples && out.sc.WantsSamples()
	if hasSamples {
		out.sc.DeferSamples()
	}

	// Resume bookkeeping: how far a prior run got. resumeDone holds
	// band-qualified "band/net" sample-group keys and is immutable once
	// built (the sample filter reads it from decode goroutines); groups
	// finished by *this* run accumulate separately.
	netsDone := 0
	var resumeDone map[string]bool
	if ck != nil {
		loaded, err := ck.load()
		if err != nil {
			return nil, err
		}
		if loaded != nil {
			if err := out.sc.Restore(bytes.NewReader(loaded.State)); errors.Is(err, checkpoint.ErrMismatch) {
				// The state is another experiment selection's: resuming
				// it would blend two runs.
				return nil, err
			} else if err != nil {
				// The file passed its checksums but the state does not fit
				// this build's registry: never trust it, start fresh on a
				// clean context (Restore may have partially mutated this one).
				ck.note(fmt.Sprintf("shard %d: checkpoint g%d state unusable (%v), starting fresh",
					ck.shard, loaded.Manifest.Generation, err))
				out.sc.Drain()
				out.sc = experiments.NewStreamContext(opts.Workers, opts.Experiments...)
				if hasSamples {
					out.sc.DeferSamples()
				}
			} else {
				m := &loaded.Manifest
				netsDone = m.NetworksDone
				if len(m.SampleNetsDone) > 0 {
					resumeDone = make(map[string]bool, len(m.SampleNetsDone))
					for _, key := range m.SampleNetsDone {
						resumeDone[key] = true
					}
				}
				out.bg, out.n, out.probeSets = m.BG, m.N, m.ProbeSets
				phase := "network walk"
				if m.SamplePhase {
					phase = fmt.Sprintf("sample phase, %d sample groups done", len(m.SampleNetsDone))
				}
				ck.note(fmt.Sprintf("shard %d: resumed from checkpoint g%d (%d/%d networks, %s)",
					ck.shard, m.Generation, netsDone, count, phase))
			}
		}
	}
	sc := out.sc

	if count > 0 && netsDone < count {
		if _, err := f.Seek(plan.Networks[first+netsDone].Offset, io.SeekStart); err != nil {
			return nil, err
		}
		r, err := plan.ResumeNetworks(f, first+netsDone, count-netsDone)
		if err != nil {
			return nil, err
		}
		err = r.EachNetwork(wire.Filter{}, func(nd *dataset.NetworkData) error {
			switch nd.Info.Band {
			case "bg":
				out.bg++
			case "n":
				out.n++
			}
			for _, l := range nd.Links {
				out.probeSets += len(l.Sets)
			}
			if err := sc.Observe(nd); err != nil {
				return err
			}
			netsDone++
			if ck != nil && netsDone%ck.every == 0 && netsDone < count {
				return ck.save(sc, out, netsDone, false, nil)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	if hasSamples {
		if _, err := f.Seek(plan.SamplesOffset, io.SeekStart); err != nil {
			return nil, err
		}
		r, err := plan.ResumeSamples(f)
		if err != nil {
			return nil, err
		}
		var filter func(band, net string) bool
		if keep != nil || resumeDone != nil {
			filter = func(band, net string) bool {
				return (keep == nil || keep[band+"/"+net]) && !resumeDone[band+"/"+net]
			}
		}
		// Sample-phase checkpoints land on group boundaries: when a new
		// (band, network) group's first chunk arrives, the previous group
		// is fully fed and joins the done set — and the save happens before
		// observing the new group, so a resumed run's filter excludes
		// exactly the groups whose every sample reached the accumulators.
		// Keys are band-qualified ("band/net"): a network streams one group
		// per band it appears in, so a bare name would wrongly mark its
		// later bands done along with its first.
		var doneThisRun []string
		cur := ""
		pending := 0
		err = r.FilterSampleGroups(opts.Workers, filter, func(g *wire.SampleGroup) error {
			if key := g.Band + "/" + g.Net; ck != nil && key != cur {
				if cur != "" {
					doneThisRun = append(doneThisRun, cur)
					pending++
					if pending >= ck.every {
						all := make([]string, 0, len(doneThisRun)+len(resumeDone))
						all = append(all, doneThisRun...)
						for k := range resumeDone {
							all = append(all, k)
						}
						if err := ck.save(sc, out, netsDone, true, all); err != nil {
							return err
						}
						pending = 0
					}
				}
				cur = key
			}
			return sc.ObserveSampleGroup(g.Band, g.Samples)
		})
		if err != nil {
			return nil, err
		}
		sc.FinishSamples()
	}
	if err := sc.Drain(); err != nil {
		return nil, err
	}
	done = true
	return out, nil
}

// runFile shards one MLF2 file by contiguous network-index ranges.
func runFile(ctx context.Context, path string, opts Options) (*Result, error) {
	open := opts.open()
	// The plan scan is an I/O pass like any shard, with the same retry
	// policy (shard index -1 keeps its jitter stream distinct).
	var plan *wire.Plan
	rng := shardRng(-1)
	for try := 0; ; try++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		f, err := open(path)
		if err == nil {
			plan, err = wire.BuildPlan(f)
			f.Close()
			if err == nil {
				break
			}
		}
		if wire.IsCorrupt(err) {
			return nil, fmt.Errorf("%w: planning %s: %w", ErrCorruptShard, path, err)
		}
		if try >= opts.MaxRetries {
			return nil, fmt.Errorf("%w: planning %s after %d attempt(s): %w", ErrExhausted, path, try+1, err)
		}
		if serr := sleep(ctx, backoff(opts.retryBase(), try, rng)); serr != nil {
			return nil, serr
		}
	}

	n := len(plan.Networks)
	k := opts.Shards
	if k <= 0 {
		k = conc.Budget()
	}
	if k > n {
		k = n
	}
	if k < 1 {
		k = 1 // an empty fleet still walks its (empty) sample section once
	}
	tasks := make([]Report, k)
	outs := make([]*shardOut, k)
	var wg sync.WaitGroup
	for s := 0; s < k; s++ {
		first, next := s*n/k, (s+1)*n/k
		r := &tasks[s]
		r.Index = s
		r.File = path
		r.Networks = make([]string, 0, next-first)
		keep := make(map[string]bool, next-first)
		for _, pn := range plan.Networks[first:next] {
			r.Networks = append(r.Networks, pn.Name)
			// Band-qualified: a dual-band network's bg and n dataset
			// entries share a name, and a shard boundary can fall
			// between them — a bare-name key would make both shards
			// claim both of its sample groups and double-count them.
			keep[pn.Band+"/"+pn.Name] = true
		}
		var ck *ckptState
		if opts.CheckpointDir != "" {
			ck = newCkptState(opts, s)
			ck.setIdent(checkpoint.Manifest{
				Meta:         plan.Meta,
				File:         filepath.Base(path),
				PlanNetworks: n,
				Shard:        s,
				Shards:       k,
				First:        first,
				Count:        next - first,
				FlatSamples:  plan.SamplesOffset != 0,
			})
		}
		wg.Add(1)
		go func(s, first, count int, ck *ckptState) {
			defer wg.Done()
			out, tries, err := attempt(ctx, s, opts, func() (*shardOut, error) {
				f, err := open(path)
				if err != nil {
					return nil, err
				}
				defer f.Close()
				return streamRange(f, plan, first, count, keep, opts, ck)
			})
			r.Attempts = tries
			r.Err = err
			outs[s] = out
			if ck != nil {
				r.Checkpoint = ck.takeNotes()
			}
			r.State = classify(err)
		}(s, first, next-first, ck)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return assemble(tasks, outs, plan.Meta, plan.Clients, opts)
}

// runDir treats each MLF2 file in the directory as one shard, in
// file-name order. Each attempt plans and streams the file whole on a
// fresh handle; client sections concatenate across surviving shards in
// the same order.
func runDir(ctx context.Context, dir string, opts Options) (*Result, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".bin") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(files)
	if len(files) == 0 {
		return nil, fmt.Errorf("shard: no .bin shard files in %s", dir)
	}
	open := opts.open()
	tasks := make([]Report, len(files))
	outs := make([]*shardOut, len(files))
	plans := make([]*wire.Plan, len(files))
	var wg sync.WaitGroup
	for s, path := range files {
		r := &tasks[s]
		r.Index = s
		r.File = path
		var ck *ckptState
		if opts.CheckpointDir != "" {
			ck = newCkptState(opts, s)
		}
		wg.Add(1)
		go func(s int, path string, ck *ckptState) {
			defer wg.Done()
			out, tries, err := attempt(ctx, s, opts, func() (*shardOut, error) {
				f, err := open(path)
				if err != nil {
					return nil, err
				}
				defer f.Close()
				plan, err := wire.BuildPlan(f)
				if err != nil {
					return nil, err
				}
				plans[s] = plan
				nets := make([]string, 0, len(plan.Networks))
				for _, pn := range plan.Networks {
					nets = append(nets, pn.Name)
				}
				r.Networks = nets
				if ck != nil {
					// The identity is only known once the shard's own plan
					// exists (directory mode plans inside the attempt).
					ck.setIdent(checkpoint.Manifest{
						Meta:         plan.Meta,
						File:         filepath.Base(path),
						PlanNetworks: len(plan.Networks),
						Shard:        s,
						Shards:       len(files),
						First:        0,
						Count:        len(plan.Networks),
						FlatSamples:  plan.SamplesOffset != 0,
					})
				}
				return streamRange(f, plan, 0, len(plan.Networks), nil, opts, ck)
			})
			r.Attempts = tries
			r.Err = err
			outs[s] = out
			if ck != nil {
				r.Checkpoint = ck.takeNotes()
			}
			r.State = classify(err)
		}(s, path, ck)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var meta dataset.Meta
	var clients []*dataset.ClientData
	metaSet := false
	for s := range tasks {
		if plans[s] == nil {
			continue
		}
		if !metaSet {
			meta = plans[s].Meta
			metaSet = true
		}
		if tasks[s].State == OK {
			clients = append(clients, plans[s].Clients...)
		}
	}
	return assemble(tasks, outs, meta, clients, opts)
}

// assemble applies the failure policy and folds the surviving shard
// contexts — in shard order — into the final results.
func assemble(reports []Report, outs []*shardOut, meta dataset.Meta, clients []*dataset.ClientData, opts Options) (*Result, error) {
	// A checkpoint identity mismatch is always fatal — even with
	// AllowPartial — because it means the resume would have blended two
	// datasets, not that data was lost.
	for s := range reports {
		if reports[s].Err != nil && errors.Is(reports[s].Err, checkpoint.ErrMismatch) {
			return nil, fmt.Errorf("shard %d (%s): %w", reports[s].Index, reports[s].File, reports[s].Err)
		}
	}
	m := &Manifest{Shards: reports}
	res := &Result{Meta: meta, Manifest: m}
	var primary *experiments.StreamContext
	var firstErr error
	for s := range reports {
		r := &reports[s]
		if r.State == OK {
			out := outs[s]
			m.Observed = append(m.Observed, r.Networks...)
			res.Networks += len(r.Networks)
			res.NetworksBG += out.bg
			res.NetworksN += out.n
			res.ProbeSets += out.probeSets
			res.FlatSamples = res.FlatSamples || out.flatSamples
			if primary == nil {
				primary = out.sc
			} else if err := primary.Merge(out.sc); err != nil {
				return nil, fmt.Errorf("shard: merging shard %d: %w", s, err)
			}
			continue
		}
		m.Degraded = true
		m.Skipped = append(m.Skipped, r.Networks...)
		if firstErr == nil {
			// Failed shards keep their own classification (checkpoint
			// failure, cancellation) instead of being dressed up as an
			// exhausted retry budget or corruption.
			switch r.State {
			case Quarantined:
				firstErr = fmt.Errorf("%w: shard %d (%s) after %d attempt(s): %w", ErrCorruptShard, r.Index, r.File, r.Attempts, r.Err)
			case Failed:
				firstErr = fmt.Errorf("shard %d (%s) after %d attempt(s): %w", r.Index, r.File, r.Attempts, r.Err)
			default:
				firstErr = fmt.Errorf("%w: shard %d (%s) after %d attempt(s): %w", ErrExhausted, r.Index, r.File, r.Attempts, r.Err)
			}
		}
	}
	if firstErr != nil && !opts.AllowPartial {
		return nil, firstErr
	}
	if primary == nil {
		if firstErr != nil {
			// Degraded mode needs at least one surviving shard to report on.
			return nil, fmt.Errorf("every shard failed: %w", firstErr)
		}
		return nil, fmt.Errorf("shard: no shards ran")
	}
	primary.SetClients(clients)
	results, err := primary.Finalize()
	if err != nil {
		return nil, err
	}
	res.Results = results
	return res, nil
}
