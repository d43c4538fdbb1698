// Package e2e is the polling end-to-end harness for declarative
// scenarios: declare a spec, synthesize its dataset once, launch the
// full experiment suite in the background in one or more run variants
// (plain streamed, sharded, kill-and-resume from checkpoints, in-memory
// fleet), and poll for the converged report artifact. Convergence is the
// artifact's existence — reports are written atomically (temp + fsync +
// rename), so a readable artifact is always a complete one. Every
// variant renders the same deterministic Report, so a single golden per
// scenario pins all of them byte for byte.
package e2e

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"meshlab"
	"meshlab/internal/atomicio"
	"meshlab/internal/faultfs"
	"meshlab/internal/scenario"
)

// Harness drives scenario runs inside one artifact directory.
type Harness struct {
	// Dir holds datasets, checkpoints, and report artifacts.
	Dir string
	// PollInterval is how often WaitConverged re-reads the artifact
	// (≤ 0: 20ms).
	PollInterval time.Duration
	// Timeout bounds one WaitConverged call (≤ 0: 4 minutes).
	Timeout time.Duration
	// Workers bounds synthesis and streaming parallelism (≤ 0: the
	// process budget).
	Workers int
}

// New returns a Harness rooted at dir with default pacing.
func New(dir string) *Harness { return &Harness{Dir: dir} }

func (h *Harness) pollInterval() time.Duration {
	if h.PollInterval > 0 {
		return h.PollInterval
	}
	return 20 * time.Millisecond
}

func (h *Harness) timeout() time.Duration {
	if h.Timeout > 0 {
		return h.Timeout
	}
	return 4 * time.Minute
}

// DatasetPath is where Synthesize puts (or finds) a scenario's dataset.
func (h *Harness) DatasetPath(sp *scenario.Spec) string {
	return filepath.Join(h.Dir, sp.Name+".bin")
}

// Synthesize materializes the scenario's dataset file, reusing an
// existing one (the compilation is deterministic and the save is atomic
// — temp + fsync + rename — so a present file is the right, complete
// file even against concurrent synthesizers or a mid-write kill; the
// streamed variant still cross-checks it when the scenario is
// cache-validatable). Concurrent Synthesize calls for one path are
// safe but may each pay the generation; callers wanting to share one
// synthesis serialize per path, as meshd does.
func (h *Harness) Synthesize(sp *scenario.Spec) (string, error) {
	path := h.DatasetPath(sp)
	if _, err := os.Stat(path); err == nil {
		return path, nil
	}
	opts := sp.Options()
	opts.Workers = h.Workers
	if _, err := meshlab.GenerateDataset(path, opts, true); err != nil {
		return "", fmt.Errorf("e2e %s: synthesize: %w", sp.Name, err)
	}
	return path, nil
}

// Variant is one way of running the suite over a scenario's dataset.
type Variant struct {
	// Name labels the variant's artifact (`<scenario>.<name>.report`).
	Name string
	run  func(h *Harness, sp *scenario.Spec, dataset string) ([]*meshlab.Result, error)
}

// Streamed runs the suite in one streaming pass. When the scenario is
// cache-validatable, the walk doubles as cache validation against the
// compiled options.
func Streamed() Variant {
	return Variant{Name: "streamed", run: func(h *Harness, sp *scenario.Spec, dataset string) ([]*meshlab.Result, error) {
		so := meshlab.StreamOptions{Workers: h.Workers}
		opts := sp.Options()
		opts.Workers = h.Workers
		if opts.CacheValidatable() {
			so.Validate = &opts
		}
		results, _, err := meshlab.StreamFleet(dataset, so)
		return results, err
	}}
}

// InMemory regenerates the scenario's fleet in memory (the dataset file
// is not read) and runs the suite over it with meshlab.AnalyzeFleet: the
// loop behind every in-memory caller, pinned to the same golden as the
// file-driven variants.
func InMemory() Variant {
	return Variant{Name: "in-memory", run: func(h *Harness, sp *scenario.Spec, _ string) ([]*meshlab.Result, error) {
		opts := sp.Options()
		opts.Workers = h.Workers
		f, err := meshlab.GenerateFleet(opts)
		if err != nil {
			return nil, err
		}
		return meshlab.AnalyzeFleet(f)
	}}
}

// Sharded runs the suite as n parallel shards and requires full
// coverage (a degraded manifest is an error here — scenario goldens pin
// complete runs).
func Sharded(n int) Variant {
	return Variant{Name: fmt.Sprintf("sharded%d", n), run: func(h *Harness, sp *scenario.Spec, dataset string) ([]*meshlab.Result, error) {
		res, err := meshlab.ShardedStream(context.Background(), dataset, meshlab.ShardOptions{
			Shards:  n,
			Workers: h.Workers,
		})
		if err != nil {
			return nil, err
		}
		if res.Manifest != nil && len(res.Manifest.Skipped) > 0 {
			return nil, fmt.Errorf("e2e %s: sharded run skipped %d networks", sp.Name, len(res.Manifest.Skipped))
		}
		return res.Results, nil
	}}
}

// CheckpointResume runs the suite sharded with checkpointing, injects a
// kill at the named snapshot phase (see faultfs.CrashPlan) partway
// through, verifies the kill fired, then resumes from the surviving
// checkpoints. The returned results come from the resumed run.
func CheckpointResume(shards int, phase string) Variant {
	return Variant{Name: "resume-" + phase, run: func(h *Harness, sp *scenario.Spec, dataset string) ([]*meshlab.Result, error) {
		ckDir := filepath.Join(h.Dir, sp.Name+".ck."+phase)
		base := meshlab.ShardOptions{
			Shards:          shards,
			Workers:         h.Workers,
			CheckpointDir:   ckDir,
			CheckpointEvery: 2,
			RetryBase:       time.Millisecond,
		}
		plan := &faultfs.CrashPlan{KillAt: phase, Skip: 1, Torn: 3}
		killed := base
		killed.CheckpointHook = plan.Hook
		if _, err := meshlab.ShardedStream(context.Background(), dataset, killed); !errors.Is(err, faultfs.ErrKilled) {
			return nil, fmt.Errorf("e2e %s: injected kill at %s did not surface (err: %v)", sp.Name, phase, err)
		}
		if !plan.Fired() {
			return nil, fmt.Errorf("e2e %s: crash plan for %s never fired", sp.Name, phase)
		}
		resumed := base
		resumed.Resume = true
		res, err := meshlab.ShardedStream(context.Background(), dataset, resumed)
		if err != nil {
			return nil, err
		}
		if res.Manifest != nil && len(res.Manifest.Skipped) > 0 {
			return nil, fmt.Errorf("e2e %s: resumed run skipped %d networks", sp.Name, len(res.Manifest.Skipped))
		}
		return res.Results, nil
	}}
}

// Run is one in-flight variant execution.
type Run struct {
	// Scenario and Variant identify the run; Artifact is the report
	// path whose existence signals convergence.
	Scenario, Variant, Artifact string

	done chan struct{}
	err  error
}

// Err reports the run's failure, if any; valid after WaitConverged (or
// after Wait).
func (r *Run) Err() error { return r.err }

// Wait blocks until the run's goroutine has finished: published its
// artifact or failed. Convergence does not imply it — the artifact can
// appear first — so a caller that removes the harness directory joins
// the run first; tests register t.Cleanup(r.Wait) after creating the
// directory, so the join runs before its removal.
func (r *Run) Wait() { <-r.done }

// Start launches a variant in the background. The goroutine runs the
// suite, renders the deterministic Report, and publishes it atomically
// at r.Artifact — existence of the artifact is convergence.
func (h *Harness) Start(sp *scenario.Spec, dataset string, v Variant) *Run {
	r := &Run{
		Scenario: sp.Name,
		Variant:  v.Name,
		Artifact: filepath.Join(h.Dir, sp.Name+"."+v.Name+".report"),
		done:     make(chan struct{}),
	}
	go func() {
		defer close(r.done)
		results, err := v.run(h, sp, dataset)
		if err != nil {
			r.err = fmt.Errorf("e2e %s/%s: %w", sp.Name, v.Name, err)
			return
		}
		if err := atomicio.WriteBytes(r.Artifact, 0o644, []byte(Report(sp, results))); err != nil {
			r.err = fmt.Errorf("e2e %s/%s: publish: %w", sp.Name, v.Name, err)
		}
	}()
	return r
}

// WaitConverged polls for the run's artifact until it appears, the run
// fails, or the harness timeout elapses. It returns the artifact bytes.
func (h *Harness) WaitConverged(r *Run) ([]byte, error) {
	deadline := time.Now().Add(h.timeout())
	ticker := time.NewTicker(h.pollInterval())
	defer ticker.Stop()
	for {
		// The atomic rename makes a readable artifact a complete one.
		if data, err := os.ReadFile(r.Artifact); err == nil {
			return data, nil
		}
		select {
		case <-r.done:
			if r.err != nil {
				return nil, r.err
			}
			// Done without error: the artifact must exist now.
			data, err := os.ReadFile(r.Artifact)
			if err != nil {
				return nil, fmt.Errorf("e2e %s/%s: finished without artifact: %w", r.Scenario, r.Variant, err)
			}
			return data, nil
		case <-ticker.C:
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("e2e %s/%s: no converged artifact at %s after %v", r.Scenario, r.Variant, r.Artifact, h.timeout())
		}
	}
}

// Report renders the deterministic scenario report: a header binding the
// report to the spec (name, schema version, spec sha256 — the staleness
// key scripts/check_goldens.sh greps for), the compiled run identity,
// the declared dataset counts, and every experiment result. It depends
// only on the spec and the results, never on how the run was executed,
// so streamed, sharded, and checkpoint-resumed runs of one scenario
// render byte-identical reports.
func Report(sp *scenario.Spec, results []*meshlab.Result) string {
	opts := sp.Options()
	meta := opts.Meta()
	total, bg, n := sp.Datasets()
	var b strings.Builder
	fmt.Fprintf(&b, "== scenario: %s ==\n", sp.Name)
	fmt.Fprintf(&b, "spec: version %d sha256 %s\n", sp.Version, sp.SHA256)
	fmt.Fprintf(&b, "run: seed %d, probe %ds @ %ds", meta.Seed, meta.ProbeDuration, meta.ProbeInterval)
	if opts.SkipClients {
		b.WriteString(", no clients")
	} else {
		fmt.Fprintf(&b, ", clients %ds", meta.ClientDuration)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "datasets: %d (bg %d, n %d) across %d networks\n", total, bg, n, sp.Fleet.Networks)
	for _, res := range results {
		b.WriteString("\n")
		b.WriteString(res.Format())
	}
	return b.String()
}
