package meshd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"meshlab/internal/leakcheck"
)

// TestMeshdConcurrentQueriesWhileWarming is the acceptance-criteria
// race test: ≥64 concurrent queries against a warm dataset while a
// second cold dataset registers and warms. Every query must complete
// (a warm never blocks the query path), the answers must all be the
// snapshot's exact bytes, and the warm workers' high-water mark must
// stay within the worker budget.
func TestMeshdConcurrentQueriesWhileWarming(t *testing.T) {
	dir := t.TempDir()
	spec := writeTinySpec(t, dir)
	// An explicit budget, so the witness below checks the configured
	// capacity rather than the process default.
	s := New(Config{Dir: dir, Workers: 8})
	defer s.Shutdown(context.Background())
	if _, err := s.RegisterScenario("hot", spec); err != nil {
		t.Fatal(err)
	}
	snap := waitReady(t, s, "hot")
	wantReport, wantSec4 := snap.Report(), snap.Sec4()

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const queries = 64
	var wg sync.WaitGroup
	errs := make(chan error, queries)
	start := make(chan struct{})
	for i := 0; i < queries; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			path, want := "/v1/datasets/hot/report", wantReport
			if i%2 == 1 {
				path, want = "/v1/datasets/hot/sec4", wantSec4
			}
			resp, err := http.Get(ts.URL + path)
			if err != nil {
				errs <- err
				return
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				errs <- err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("query %d: status %d", i, resp.StatusCode)
				return
			}
			if string(body) != want {
				errs <- fmt.Errorf("query %d: response diverged from the snapshot bytes", i)
			}
		}(i)
	}

	// Fire the queries and, mid-flight, register the cold dataset so
	// its warm streams while the queries drain.
	close(start)
	if _, err := s.RegisterScenario("cold", spec); err != nil {
		t.Fatalf("cold registration during query load: %v", err)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("concurrent queries blocked: the warm starved the query path")
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The cold dataset's warm must complete too — queries didn't starve
	// it either.
	waitReady(t, s, "cold")

	capacity, high := s.PoolStats()
	if high > capacity {
		t.Fatalf("worker budget exceeded: high-water mark %d > capacity %d", high, capacity)
	}
	if high == 0 {
		t.Fatal("pool high-water mark is 0: queries and warms never took slots")
	}
}

// TestMeshdConcurrentSameScenarioWarms: the API allows one scenario to
// register under two names at once (e.g. -register campus=quick,quick),
// so both warms target the same dataset file. The warm slot plus the
// atomic save must make them share one synthesis: both reach ready, off
// one complete file, serving identical bytes.
func TestMeshdConcurrentSameScenarioWarms(t *testing.T) {
	dir := t.TempDir()
	spec := writeTinySpec(t, dir)
	s := New(Config{Dir: dir})
	defer s.Shutdown(context.Background())
	if _, err := s.RegisterScenario("campus", spec); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RegisterScenario("quick-alias", spec); err != nil {
		t.Fatal(err)
	}
	sa, sb := waitReady(t, s, "campus"), waitReady(t, s, "quick-alias")
	if sa.DatasetPath != sb.DatasetPath {
		t.Fatalf("warms diverged on dataset path: %q vs %q", sa.DatasetPath, sb.DatasetPath)
	}
	if sa.Sec4() != sb.Sec4() {
		t.Fatal("one scenario under two names served different §4 bytes")
	}
	// Reports differ only in the run-specific wall-time preamble line.
	if stripRunLines(sa.Report()) != stripRunLines(sb.Report()) {
		t.Fatal("one scenario under two names served different reports")
	}
}

// TestWarmShare pins the workers a warm streams with under each budget:
// the budget less a quarter of it (at least one), and at least one.
func TestWarmShare(t *testing.T) {
	for budget, want := range map[int]int{1: 1, 2: 1, 3: 2, 4: 3, 8: 6, 16: 12} {
		if got := warmShare(budget); got != want {
			t.Errorf("warmShare(%d) = %d, want %d", budget, got, want)
		}
		s := New(Config{Workers: budget})
		if capacity, high := s.PoolStats(); capacity != budget || high != 0 {
			t.Errorf("Workers %d: PoolStats = %d, %d before any warm, want %d, 0", budget, capacity, high, budget)
		}
		s.Shutdown(context.Background())
	}
}

// TestMeshdQueryServesWhileWarmSlotWedged: queries take no worker slot,
// so a warm wedged inside the warm slot (its reads parked through
// Config.Open) leaves queries on a ready dataset answering 200 with the
// snapshot's bytes. A registration queued behind the wedge reports
// warming, and its queued warm exits without a trace on DELETE and on
// Shutdown while the wedge still holds the slot.
func TestMeshdQueryServesWhileWarmSlotWedged(t *testing.T) {
	dir, path := synthTiny(t)
	wedgedPath := filepath.Join(dir, "wedged.bin")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wedgedPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	release := make(chan struct{})
	wedge := gatedOpen(started, release)
	open := func(p string) (io.ReadSeekCloser, error) {
		if p == wedgedPath {
			return wedge(p)
		}
		return os.Open(p)
	}
	s := New(Config{Dir: dir, Open: open})
	released := false
	defer func() {
		if !released {
			close(release)
		}
		s.Shutdown(context.Background())
	}()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	// One connection per request, so the goroutine checks below see
	// only what the server keeps running.
	client := &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	do := func(method, path string) (int, string) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}
	warming := func(name string) {
		t.Helper()
		code, body := do(http.MethodGet, "/v1/datasets/"+name)
		var st Status
		if err := json.Unmarshal([]byte(body), &st); err != nil || code != http.StatusOK || st.State != StateWarming {
			t.Fatalf("%s status: %d %s, want 200 and state warming", name, code, body)
		}
		if code, _ := do(http.MethodGet, "/v1/datasets/"+name+"/report"); code != http.StatusServiceUnavailable {
			t.Fatalf("%s report while queued: %d, want 503", name, code)
		}
	}

	if err := s.RegisterPath("ready", path); err != nil {
		t.Fatal(err)
	}
	snap := waitReady(t, s, "ready")
	if err := s.RegisterPath("wedged", wedgedPath); err != nil {
		t.Fatal(err)
	}
	<-started // the wedged warm holds the slot, parked mid-read

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := range 16 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			path, want := "/v1/datasets/ready/report", snap.Report()
			if i%2 == 1 {
				path, want = "/v1/datasets/ready/sec4", snap.Sec4()
			}
			req, _ := http.NewRequest(http.MethodGet, ts.URL+path, nil)
			resp, err := client.Do(req)
			if err != nil {
				errs <- err
				return
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			switch {
			case err != nil:
				errs <- err
			case resp.StatusCode != http.StatusOK:
				errs <- fmt.Errorf("%s: %d while a warm holds the slot", path, resp.StatusCode)
			case string(body) != want:
				errs <- fmt.Errorf("%s: body differs from the snapshot's bytes", path)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// DELETE aborts a warm queued behind the wedge.
	before := leakcheck.Take()
	if err := s.RegisterPath("queued", path); err != nil {
		t.Fatal(err)
	}
	warming("queued")
	if code, body := do(http.MethodDelete, "/v1/datasets/queued"); code != http.StatusNoContent {
		t.Fatalf("DELETE queued: %d %s", code, body)
	}
	if err := before.Check(5 * time.Second); err != nil {
		t.Fatalf("DELETE left the queued warm running: %v", err)
	}

	// Shutdown aborts a queued warm at once, while the wedged warm keeps
	// the drain waiting until its budget runs out.
	if err := s.RegisterPath("queued", path); err != nil {
		t.Fatal(err)
	}
	warming("queued")
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown with a wedged warm = %v, want DeadlineExceeded", err)
	}
	st := waitFailed(t, s, "queued")
	if !strings.Contains(st.Error, ErrClosed.Error()) || st.Attempt != 1 {
		t.Fatalf("queued warm at shutdown: attempt %d, error %q; want attempt 1 failed with %q", st.Attempt, st.Error, ErrClosed)
	}
	// Once the wedge lets go, the drain finishes: Shutdown's waiter is
	// the last goroutine the check could find.
	close(release)
	released = true
	if err := before.Check(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if code, _ := do(http.MethodGet, "/v1/datasets/ready/sec4"); code != http.StatusOK {
		t.Fatalf("ready dataset after shutdown: %d, want 200 until the listener closes", code)
	}
}
