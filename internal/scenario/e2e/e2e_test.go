package e2e

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"meshlab"
	"meshlab/internal/atomicio"
	"meshlab/internal/leakcheck"
	"meshlab/internal/scenario"
)

// TestMain fails the package if a test leaves a run goroutine behind.
func TestMain(m *testing.M) { leakcheck.Main(m) }

// tinySpec parses a minimal valid scenario for harness-mechanics tests
// (no dataset is synthesized unless a test asks for one).
func tinySpec(t *testing.T) *scenario.Spec {
	t.Helper()
	raw, err := json.Marshal(map[string]any{
		"version": 1,
		"name":    "e2e-tiny",
		"seed":    9,
		"fleet": map[string]any{
			"networks": 2,
			"env_mix":  map[string]any{"indoor": 1, "outdoor": 1},
			"band_mix": map[string]any{"bg": 2},
			"size":     map[string]any{"min": 3, "max": 5, "log_mean": 1.1, "log_std": 0.3},
		},
		"probe":   map[string]any{"duration_s": 900, "interval_s": 300},
		"clients": map[string]any{"skip": true},
	})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := scenario.Parse(raw, "e2e-tiny.json")
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// fakeVariant builds a Variant around an arbitrary run function —
// the white-box hook that lets these tests drive the polling machinery
// without paying for a real suite run.
func fakeVariant(name string, fn func(h *Harness, sp *scenario.Spec, dataset string) ([]*meshlab.Result, error)) Variant {
	return Variant{Name: name, run: fn}
}

// fakeResults is a deterministic one-result set for report rendering.
func fakeResults() []*meshlab.Result {
	return []*meshlab.Result{{
		ID: "fig0.0", Title: "harness probe",
		Header: []string{"k", "v"},
		Rows:   [][]string{{"answer", "42"}},
	}}
}

// TestWaitConvergedSuccess: a variant that finishes publishes its
// artifact atomically and WaitConverged returns exactly those bytes.
func TestWaitConvergedSuccess(t *testing.T) {
	h := New(t.TempDir())
	h.PollInterval = time.Millisecond
	sp := tinySpec(t)
	v := fakeVariant("ok", func(h *Harness, sp *scenario.Spec, dataset string) ([]*meshlab.Result, error) {
		return fakeResults(), nil
	})
	r := h.Start(sp, "unused.bin", v)
	t.Cleanup(r.Wait)
	data, err := h.WaitConverged(r)
	if err != nil {
		t.Fatalf("WaitConverged: %v", err)
	}
	want := Report(sp, fakeResults())
	if string(data) != want {
		t.Errorf("artifact diverges from Report rendering:\ngot:\n%s\nwant:\n%s", data, want)
	}
	if r.Err() != nil {
		t.Errorf("Err() = %v after a clean run", r.Err())
	}
	if r.Artifact != filepath.Join(h.Dir, "e2e-tiny.ok.report") {
		t.Errorf("artifact path %q", r.Artifact)
	}
}

// TestWaitConvergedRunError: a failing variant surfaces its error from
// WaitConverged (wrapped with the scenario/variant identity) instead of
// polling until timeout.
func TestWaitConvergedRunError(t *testing.T) {
	h := New(t.TempDir())
	h.PollInterval = time.Millisecond
	boom := errors.New("suite exploded")
	r := h.Start(tinySpec(t), "unused.bin", fakeVariant("bad",
		func(h *Harness, sp *scenario.Spec, dataset string) ([]*meshlab.Result, error) {
			return nil, boom
		}))
	t.Cleanup(r.Wait)
	start := time.Now()
	_, err := h.WaitConverged(r)
	if !errors.Is(err, boom) {
		t.Fatalf("WaitConverged = %v, want the run error", err)
	}
	for _, part := range []string{"e2e-tiny", "bad"} {
		if !strings.Contains(err.Error(), part) {
			t.Errorf("error %q does not name %q", err, part)
		}
	}
	if time.Since(start) > 5*time.Second {
		t.Error("run error took the timeout path instead of failing fast")
	}
}

// TestWaitConvergedTimeout: a variant that never converges (blocked
// forever, no artifact) trips the harness timeout with a contextual
// error rather than hanging.
func TestWaitConvergedTimeout(t *testing.T) {
	h := New(t.TempDir())
	h.PollInterval = time.Millisecond
	h.Timeout = 50 * time.Millisecond
	release := make(chan struct{})
	defer close(release)
	r := h.Start(tinySpec(t), "unused.bin", fakeVariant("stuck",
		func(h *Harness, sp *scenario.Spec, dataset string) ([]*meshlab.Result, error) {
			<-release // never converges within the test's timeout
			return fakeResults(), nil
		}))
	// Registered after the TempDir, so it runs before the directory's
	// removal and after the deferred release: the goroutine publishes,
	// then the directory goes.
	t.Cleanup(r.Wait)
	_, err := h.WaitConverged(r)
	if err == nil {
		t.Fatal("WaitConverged returned without an artifact or a timeout")
	}
	for _, part := range []string{"no converged artifact", "e2e-tiny", "stuck"} {
		if !strings.Contains(err.Error(), part) {
			t.Errorf("timeout error %q does not mention %q", err, part)
		}
	}
}

// TestConvergenceIsArtifactExistence: the harness's convergence signal
// is the artifact file itself, not the run goroutine finishing — a
// variant that publishes its artifact out-of-band and then blocks still
// converges.
func TestConvergenceIsArtifactExistence(t *testing.T) {
	h := New(t.TempDir())
	h.PollInterval = time.Millisecond
	sp := tinySpec(t)
	published := Report(sp, fakeResults())
	release := make(chan struct{})
	defer close(release)
	r := h.Start(sp, "unused.bin", fakeVariant("sideways",
		func(h *Harness, sp *scenario.Spec, dataset string) ([]*meshlab.Result, error) {
			artifact := filepath.Join(h.Dir, sp.Name+".sideways.report")
			if err := atomicio.WriteBytes(artifact, 0o644, []byte(published)); err != nil {
				return nil, err
			}
			<-release // the goroutine itself never finishes in time
			return fakeResults(), nil
		}))
	t.Cleanup(r.Wait)
	data, err := h.WaitConverged(r)
	if err != nil {
		t.Fatalf("WaitConverged: %v", err)
	}
	if string(data) != published {
		t.Error("converged artifact is not the published bytes")
	}
}

// TestAtomicPublishNoTornReads hammers the artifact path with
// concurrent readers while a run publishes: every read that succeeds
// must see the complete report — the atomic temp+rename publish means
// there is no window where a partial file is visible.
func TestAtomicPublishNoTornReads(t *testing.T) {
	h := New(t.TempDir())
	h.PollInterval = time.Millisecond
	sp := tinySpec(t)
	// A large report makes a torn write (partial content visible under
	// a non-atomic publish) overwhelmingly likely to be caught.
	results := fakeResults()
	for i := 0; i < 2000; i++ {
		results[0].Rows = append(results[0].Rows, []string{fmt.Sprintf("row-%04d", i), "x"})
	}
	want := Report(sp, results)

	r := h.Start(sp, "unused.bin", fakeVariant("atomic",
		func(h *Harness, sp *scenario.Spec, dataset string) ([]*meshlab.Result, error) {
			return results, nil
		}))
	t.Cleanup(r.Wait)

	var wg sync.WaitGroup
	torn := make(chan string, 8)
	stop := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				data, err := os.ReadFile(r.Artifact)
				if err == nil && string(data) != want {
					select {
					case torn <- fmt.Sprintf("read %d bytes, want %d", len(data), len(want)):
					default:
					}
					return
				}
			}
		}()
	}
	if _, err := h.WaitConverged(r); err != nil {
		t.Fatalf("WaitConverged: %v", err)
	}
	close(stop)
	wg.Wait()
	close(torn)
	for msg := range torn {
		t.Errorf("torn read: a reader saw a partial artifact (%s)", msg)
	}
}

// TestSynthesizeReusesDataset: the first Synthesize writes the dataset
// file; the second returns the same path without rewriting (the
// compilation is deterministic, so a present file is the right file).
func TestSynthesizeReusesDataset(t *testing.T) {
	h := New(t.TempDir())
	sp := tinySpec(t)
	path, err := h.Synthesize(sp)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	if path != h.DatasetPath(sp) {
		t.Errorf("Synthesize path %q, want %q", path, h.DatasetPath(sp))
	}
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	again, err := h.Synthesize(sp)
	if err != nil || again != path {
		t.Fatalf("second Synthesize: %q, %v", again, err)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !after.ModTime().Equal(before.ModTime()) || after.Size() != before.Size() {
		t.Error("second Synthesize rewrote the dataset file")
	}
	f, err := meshlab.LoadFleet(path)
	if err != nil {
		t.Fatalf("synthesized dataset unreadable: %v", err)
	}
	if len(f.Networks) != 2 || f.Meta.Seed != 9 {
		t.Errorf("synthesized dataset wrong: %d networks, seed %d", len(f.Networks), f.Meta.Seed)
	}
}

// TestSynthesizeConcurrentAtomic: concurrent Synthesize calls for one
// spec race stat-then-generate, but the atomic save (temp + fsync +
// rename) means no caller can ever observe a partial dataset — every
// returned path loads as a complete fleet even mid-race. Callers
// wanting to share one synthesis serialize per path, as meshd does;
// this pins the safety floor underneath that.
func TestSynthesizeConcurrentAtomic(t *testing.T) {
	h := New(t.TempDir())
	sp := tinySpec(t)
	const n = 4
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			path, err := h.Synthesize(sp)
			if err != nil {
				errs[i] = err
				return
			}
			f, err := meshlab.LoadFleet(path)
			if err != nil {
				errs[i] = fmt.Errorf("synthesized dataset unreadable mid-race: %w", err)
				return
			}
			if len(f.Networks) != 2 || f.Meta.Seed != 9 {
				errs[i] = fmt.Errorf("partial dataset observed: %d networks, seed %d", len(f.Networks), f.Meta.Seed)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}
