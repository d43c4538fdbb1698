// headers_test.go pins the cache and Retry-After surface: a query never
// waits for a worker slot, so a not-ready 503 comes back at once; not-
// ready 503s advise retrying after the observed warm time; and the
// pre-rendered text endpoints revalidate with strong ETags.

package meshd

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestMeshdQueryDeadline503NoLeak holds the warm slot, so a dataset
// registered behind it can only queue, and demands: a query on that
// dataset answers a not-ready 503 with a numeric Retry-After inside a
// short client deadline (queries take no slot, so nothing makes them
// wait), a query on a ready dataset answers 200, and once the slot is
// let go the queued warm finishes and leaves no slot held.
func TestMeshdQueryDeadline503NoLeak(t *testing.T) {
	dir, path := synthTiny(t)
	s := New(Config{Dir: dir})
	defer s.Shutdown(context.Background())
	if err := s.RegisterPath("ready", path); err != nil {
		t.Fatal(err)
	}
	waitReady(t, s, "ready")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if err := s.warmSlot.Acquire(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	held := true
	defer func() {
		if held {
			s.warmSlot.Release()
		}
	}()
	if err := s.RegisterPath("queued", path); err != nil {
		t.Fatal(err)
	}

	get := func(name string) (*http.Response, string) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/datasets/"+name+"/report", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: %v (a query waited on the held warm slot?)", name, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, string(body)
	}
	for range 3 {
		resp, body := get("queued")
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("queued dataset answered %d: %s", resp.StatusCode, body)
		}
		if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
			t.Fatalf("not-ready Retry-After %q, want an integer ≥ 1", resp.Header.Get("Retry-After"))
		}
		if resp, body := get("ready"); resp.StatusCode != http.StatusOK {
			t.Fatalf("ready dataset answered %d while the warm slot was held: %s", resp.StatusCode, body)
		}
	}
	if n := s.warmSlot.InFlight(); n != 1 {
		t.Fatalf("%d warm slots held by the test alone, want 1 (a query took one?)", n)
	}

	s.warmSlot.Release()
	held = false
	waitReady(t, s, "queued")
	if n := s.warmSlot.InFlight(); n != 0 {
		t.Fatalf("%d warm slots still held after the queued warm finished", n)
	}
	if capacity, high := s.PoolStats(); high > capacity || high == 0 {
		t.Fatalf("PoolStats high-water %d, want 1..%d", high, capacity)
	}
	if resp, body := get("queued"); resp.StatusCode != http.StatusOK {
		t.Fatalf("queued dataset after its warm: %d %s", resp.StatusCode, body)
	}
}

// TestCeilSeconds pins the Retry-After arithmetic: whole seconds,
// rounded up, floor 1.
func TestCeilSeconds(t *testing.T) {
	cases := map[int64]string{0: "1", 1: "1", 999: "1", 1000: "1", 1001: "2", 2500: "3", 60000: "60"}
	for ms, want := range cases {
		if got := ceilSeconds(ms); got != want {
			t.Errorf("ceilSeconds(%d) = %s, want %s", ms, got, want)
		}
	}
}

// TestMeshdRetryAfterDerivation: a not-ready 503 advises retrying after
// the dataset's own measured warm time when it has one, falling back to
// the most recent warm anywhere on the server — never the bare "1"
// unless there is no evidence at all.
func TestMeshdRetryAfterDerivation(t *testing.T) {
	dir, path := synthTiny(t)
	started := make(chan struct{})
	release := make(chan struct{})
	s := New(Config{Dir: dir, Open: gatedOpen(started, release)})
	defer s.Shutdown(context.Background())
	defer close(release)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if err := s.RegisterPath("stuck", path); err != nil {
		t.Fatal(err)
	}
	<-started // warming forever: every data query is a not-ready 503

	get := func() *http.Response {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/datasets/stuck/report")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("warming dataset answered %d", resp.StatusCode)
		}
		return resp
	}

	// No warm has ever finished: the floor.
	if ra := get().Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("no-evidence Retry-After = %q, want 1", ra)
	}
	// Server-wide evidence: some other dataset warmed in 2.5s.
	s.lastWarmMillis.Store(2500)
	if ra := get().Header.Get("Retry-After"); ra != "3" {
		t.Fatalf("server-evidence Retry-After = %q, want 3", ra)
	}
	// The dataset's own history wins over the server-wide figure.
	d, err := s.lookup("stuck")
	if err != nil {
		t.Fatal(err)
	}
	d.mu.Lock()
	d.lastWarmMillis = 7100
	d.mu.Unlock()
	if ra := get().Header.Get("Retry-After"); ra != "8" {
		t.Fatalf("dataset-evidence Retry-After = %q, want 8", ra)
	}
}

// TestMeshdETagRevalidation: report, §4, and experiment responses carry
// the snapshot's strong ETag; If-None-Match answers 304 with no body;
// a refresh (new generation) changes the tag.
func TestMeshdETagRevalidation(t *testing.T) {
	dir := t.TempDir()
	spec := writeTinySpec(t, dir)
	s := New(Config{Dir: dir})
	defer s.Shutdown(context.Background())
	if _, err := s.RegisterScenario("tiny", spec); err != nil {
		t.Fatal(err)
	}
	snap := waitReady(t, s, "tiny")
	etag := snap.ETag()
	if len(etag) < 4 || !strings.HasPrefix(etag, `"`) || !strings.HasSuffix(etag, `"`) {
		t.Fatalf("malformed ETag %q", etag)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(ep, inm string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/datasets/tiny"+ep, nil)
		if err != nil {
			t.Fatal(err)
		}
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	for _, ep := range []string{"/report", "/sec4", "/experiments/" + snap.ids[0]} {
		resp := get(ep, "")
		if resp.StatusCode != http.StatusOK || resp.Header.Get("ETag") != etag {
			t.Fatalf("%s: status %d etag %q, want 200 %q", ep, resp.StatusCode, resp.Header.Get("ETag"), etag)
		}
		io.Copy(io.Discard, resp.Body)
		for _, inm := range []string{etag, "*", "W/" + etag, `"zzz", ` + etag} {
			resp := get(ep, inm)
			body, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusNotModified || len(body) != 0 {
				t.Fatalf("%s If-None-Match %q: status %d body %q, want empty 304", ep, inm, resp.StatusCode, body)
			}
		}
		if resp := get(ep, `"bogus"`); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s with a stale tag: %d, want 200", ep, resp.StatusCode)
		}
	}

	// The selector-driven list endpoints are not ETagged.
	if resp := get("/experiments", ""); resp.Header.Get("ETag") != "" {
		t.Fatal("list endpoint grew an ETag")
	}

	// A refresh publishes a new generation: the tag must change and the
	// old tag must stop matching.
	if _, err := s.RegisterScenario("tiny", spec); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Minute)
	for {
		cur, err := s.Snapshot("tiny")
		if err == nil && cur.ETag() != etag {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("refresh never published a new ETag")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if resp := get("/report", etag); resp.StatusCode != http.StatusOK {
		t.Fatalf("old tag after refresh: %d, want 200", resp.StatusCode)
	}
}

// TestEtagMatch pins the If-None-Match comparison.
func TestEtagMatch(t *testing.T) {
	const tag = `"abc"`
	for header, want := range map[string]bool{
		tag: true, "*": true, "W/" + tag: true,
		`"x", ` + tag: true, `"x","y"`: false, `"ab"`: false, "": false,
	} {
		if got := etagMatch(header, tag); got != want {
			t.Errorf("etagMatch(%q) = %t, want %t", header, got, want)
		}
	}
}
