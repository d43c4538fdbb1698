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
	"testing"
	"time"

	"meshlab"
	"meshlab/internal/leakcheck"
	"meshlab/internal/report"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }

// tinySpecJSON is a 4-network scenario small enough to synthesize and
// stream in well under a second, with a short client snapshot so the
// client-path experiments stay exercised.
const tinySpecJSON = `{
  "version": 1,
  "name": "meshd-tiny",
  "seed": 11,
  "fleet": {
    "networks": 4,
    "env_mix": {"indoor": 2, "outdoor": 1, "mixed": 1},
    "band_mix": {"bg": 3, "n": 1},
    "size": {"min": 3, "max": 8, "log_mean": 1.2, "log_std": 0.4}
  },
  "probe": {"duration_s": 1800, "interval_s": 300},
  "clients": {"duration_s": 600}
}`

// writeTinySpec drops the tiny spec into dir and returns its path.
func writeTinySpec(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "meshd-tiny.json")
	if err := os.WriteFile(path, []byte(tinySpecJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// waitReady polls the status until the dataset is ready (the HTTP
// clients' polling discipline, inlined).
func waitReady(t *testing.T, s *Server, name string) *Snapshot {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		snap, err := s.Snapshot(name)
		if err == nil {
			return snap
		}
		if !errors.Is(err, ErrNotReady) {
			t.Fatalf("Snapshot(%s): %v", name, err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("dataset %s never became ready", name)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// newWarmServer builds a server, registers the tiny scenario under
// name, and waits for it to warm.
func newWarmServer(t *testing.T, name string) (*Server, *Snapshot) {
	t.Helper()
	dir := t.TempDir()
	spec := writeTinySpec(t, dir)
	s := New(Config{Dir: dir})
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	got, err := s.RegisterScenario(name, spec)
	if err != nil {
		t.Fatalf("RegisterScenario: %v", err)
	}
	if name == "" {
		name = "meshd-tiny"
	}
	if got != name {
		t.Fatalf("RegisterScenario returned name %q, want %q", got, name)
	}
	return s, waitReady(t, s, name)
}

// TestMeshdOracleByteIdentity is the oracle: every byte the server
// serves must equal the CLIs' output for the same dataset —
// Experiment(id) is `meshanalyze -exp id`, Sec4 is `meshanalyze -sec4`,
// and Report is `meshreport` up to the run-specific preamble lines.
func TestMeshdOracleByteIdentity(t *testing.T) {
	s, snap := newWarmServer(t, "")
	defer s.Shutdown(context.Background())

	// Independent reference run over the same dataset file.
	results, sum, err := meshlab.StreamFleet(snap.DatasetPath, meshlab.StreamOptions{})
	if err != nil {
		t.Fatalf("reference StreamFleet: %v", err)
	}
	if len(results) == 0 || len(results) != len(snap.Results) {
		t.Fatalf("got %d results, reference has %d", len(snap.Results), len(results))
	}
	for _, r := range results {
		want := r.Format() + "\n" // the `meshanalyze -exp` byte path
		got, err := snap.Experiment(r.ID)
		if err != nil {
			t.Fatalf("Experiment(%s): %v", r.ID, err)
		}
		if got != want {
			t.Errorf("Experiment(%s) diverges from meshanalyze output:\ngot:\n%s\nwant:\n%s", r.ID, got, want)
		}
	}
	if _, err := snap.Experiment("no-such"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Experiment(no-such) = %v, want ErrNotFound", err)
	}

	// §4 section: what `meshanalyze -sec4` prints.
	sample, err := meshlab.StreamSampleExperiments(snap.DatasetPath, meshlab.SampleExperimentIDs(), 0)
	if err != nil {
		t.Fatalf("reference StreamSampleExperiments: %v", err)
	}
	var sec4 strings.Builder
	for _, r := range sample {
		sec4.WriteString(r.Format() + "\n")
	}
	if snap.Sec4() != sec4.String() {
		t.Errorf("Sec4 diverges from meshanalyze -sec4 output:\ngot:\n%s\nwant:\n%s", snap.Sec4(), sec4.String())
	}

	// Report: cmd/meshreport's markdown up to the dataset-label and
	// wall-time preamble lines (the same lines guardrail.yml strips).
	want := report.Markdown(report.Preamble{Label: "ref", Sum: sum, ExpDuration: time.Second}, results)
	if got, want := stripRunLines(snap.Report()), stripRunLines(want); got != want {
		t.Errorf("Report diverges from meshreport output (modulo run lines):\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// stripRunLines removes the two run-specific preamble lines, mirroring
// the guardrail workflow's grep -v filters.
func stripRunLines(md string) string {
	var out []string
	for _, line := range strings.Split(md, "\n") {
		if strings.Contains(line, "dataset:") || strings.Contains(line, "wall time") {
			continue
		}
		out = append(out, line)
	}
	return strings.Join(out, "\n")
}

// TestMeshdRegistrationRules pins the registration contract: name
// validation, source validation, the no-concurrent-warm rule, and
// rejection after shutdown.
func TestMeshdRegistrationRules(t *testing.T) {
	dir := t.TempDir()
	spec := writeTinySpec(t, dir)
	s := New(Config{Dir: dir})

	if err := s.RegisterPath("Bad Name", "x.bin"); !errors.Is(err, ErrBadRequest) {
		t.Errorf("invalid name: got %v, want ErrBadRequest", err)
	}
	if err := s.RegisterPath("ok", ""); !errors.Is(err, ErrBadRequest) {
		t.Errorf("empty path: got %v, want ErrBadRequest", err)
	}
	if _, err := s.RegisterScenario("ok", "no-such-builtin"); !errors.Is(err, ErrBadRequest) {
		t.Errorf("unknown scenario: got %v, want ErrBadRequest", err)
	}
	noDir := New(Config{})
	if _, err := noDir.RegisterScenario("", spec); !errors.Is(err, ErrBadRequest) {
		t.Errorf("scenario without Dir: got %v, want ErrBadRequest", err)
	}
	noDir.Shutdown(context.Background())

	// A dataset whose warm is in flight rejects re-registration.
	if _, err := s.RegisterScenario("tiny", spec); err != nil {
		t.Fatalf("RegisterScenario: %v", err)
	}
	if err := s.RegisterPath("tiny", "other.bin"); err == nil || !errors.Is(err, ErrBadRequest) {
		t.Errorf("re-register while warming: got %v, want ErrBadRequest", err)
	}
	waitReady(t, s, "tiny")

	// A failed warm surfaces as StateFailed + ErrWarmFailed, and a
	// re-registration retries it.
	if err := s.RegisterPath("broken", filepath.Join(dir, "missing.bin")); err != nil {
		t.Fatalf("RegisterPath: %v", err)
	}
	deadline := time.Now().Add(time.Minute)
	for {
		st, err := s.Status("broken")
		if err != nil {
			t.Fatalf("Status(broken): %v", err)
		}
		if st.State == StateFailed {
			if st.Error == "" {
				t.Error("failed status carries no error text")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("broken dataset never reached failed state")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := s.Snapshot("broken"); !errors.Is(err, ErrWarmFailed) {
		t.Errorf("Snapshot(broken): got %v, want ErrWarmFailed", err)
	}

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := s.RegisterPath("late", "x.bin"); !errors.Is(err, ErrClosed) {
		t.Errorf("register after shutdown: got %v, want ErrClosed", err)
	}
}

// TestMeshdHTTPSurface drives the whole API over a real listener:
// registration returns 202 + Location, polling converges, every data
// endpoint serves, selectors filter, and the error taxonomy maps to
// the right status codes.
func TestMeshdHTTPSurface(t *testing.T) {
	dir := t.TempDir()
	spec := writeTinySpec(t, dir)
	s := New(Config{Dir: dir})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		if _, err := io.Copy(&sb, resp.Body); err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		return resp.StatusCode, sb.String()
	}

	if code, body := get("/healthz"); code != http.StatusOK || body != "ok\n" {
		t.Fatalf("healthz: %d %q", code, body)
	}

	// Register by scenario spec path; expect 202 + a pollable Location.
	resp, err := http.Post(ts.URL+"/v1/datasets", "application/json",
		strings.NewReader(fmt.Sprintf(`{"name":"tiny","scenario":%q}`, spec)))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("register: status %d, want 202", resp.StatusCode)
	}
	loc := resp.Header.Get("Location")
	if loc != "/v1/datasets/tiny" {
		t.Fatalf("register Location = %q", loc)
	}

	// A data query against a warming dataset is 503 with Retry-After —
	// unless the warm already finished; both are legal here.
	if code, _ := get("/v1/datasets/tiny/report"); code != http.StatusServiceUnavailable && code != http.StatusOK {
		t.Errorf("warming report query: status %d, want 503 or 200", code)
	}

	// Poll the Location to ready.
	deadline := time.Now().Add(2 * time.Minute)
	for {
		code, body := get(loc)
		if code != http.StatusOK {
			t.Fatalf("poll %s: status %d: %s", loc, code, body)
		}
		var st Status
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			t.Fatalf("poll: bad status doc: %v", err)
		}
		if st.State == StateReady {
			if st.Networks != 4 || st.Seed != 11 {
				t.Fatalf("ready status = %+v, want 4 networks, seed 11", st)
			}
			break
		}
		if st.State == StateFailed {
			t.Fatalf("warm failed: %s", st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatal("dataset never became ready over HTTP")
		}
		time.Sleep(5 * time.Millisecond)
	}

	snap, err := s.Snapshot("tiny")
	if err != nil {
		t.Fatal(err)
	}

	// The data endpoints serve the snapshot's exact bytes.
	if code, body := get("/v1/datasets/tiny/report"); code != http.StatusOK || body != snap.Report() {
		t.Errorf("report endpoint: status %d, bytes match: %t", code, body == snap.Report())
	}
	if code, body := get("/v1/datasets/tiny/sec4"); code != http.StatusOK || body != snap.Sec4() {
		t.Errorf("sec4 endpoint: status %d, bytes match: %t", code, body == snap.Sec4())
	}
	expID := snap.Results[0].ID
	wantExp, _ := snap.Experiment(expID)
	if code, body := get("/v1/datasets/tiny/experiments/" + expID); code != http.StatusOK || body != wantExp {
		t.Errorf("experiment endpoint: status %d, bytes match: %t", code, body == wantExp)
	}

	// List + selector filtering.
	var exps []experimentEntry
	if code, body := get("/v1/datasets/tiny/experiments?selector=section=4"); code != http.StatusOK {
		t.Errorf("experiment list: status %d", code)
	} else if err := json.Unmarshal([]byte(body), &exps); err != nil {
		t.Errorf("experiment list: %v", err)
	} else {
		if len(exps) == 0 {
			t.Error("section=4 selector matched nothing")
		}
		for _, e := range exps {
			if e.Section != "4" {
				t.Errorf("section=4 selector let through %q", e.ID)
			}
		}
	}
	// Boolean selector values accept every strconv.ParseBool spelling
	// ("1" means true) and reject anything else loudly, matching the
	// fail-loudly rule for field names.
	if code, body := get("/v1/datasets/tiny/experiments?selector=sampleOnly=1"); code != http.StatusOK {
		t.Errorf("sampleOnly=1: status %d", code)
	} else {
		exps = nil
		if err := json.Unmarshal([]byte(body), &exps); err != nil {
			t.Errorf("sampleOnly=1 list: %v", err)
		}
		if len(exps) == 0 {
			t.Error("sampleOnly=1 selector matched nothing")
		}
		for _, e := range exps {
			if !e.SampleOnly {
				t.Errorf("sampleOnly=1 selector let through %q", e.ID)
			}
		}
	}
	if code, _ := get("/v1/datasets/tiny/experiments?selector=sampleOnly=yes"); code != http.StatusBadRequest {
		t.Errorf("sampleOnly=yes: status %d, want 400", code)
	}

	var nets []NetworkEntry
	if code, body := get("/v1/datasets/tiny/networks?selector=band=bg"); code != http.StatusOK {
		t.Errorf("network list: status %d", code)
	} else if err := json.Unmarshal([]byte(body), &nets); err != nil {
		t.Errorf("network list: %v", err)
	} else {
		if len(nets) == 0 {
			t.Error("band=bg selector matched nothing")
		}
		for _, n := range nets {
			if n.Band != "bg" {
				t.Errorf("band=bg selector let through %q (band %s)", n.Name, n.Band)
			}
		}
	}
	if code, body := get("/v1/datasets/tiny/networks?minAPs=0&maxAPs=1000"); code != http.StatusOK {
		t.Errorf("network range query: status %d", code)
	} else {
		nets = nil
		if err := json.Unmarshal([]byte(body), &nets); err != nil || len(nets) != 4 {
			t.Errorf("full-range network list: err %v, %d entries, want 4", err, len(nets))
		}
	}

	// The dataset list resource, filterable by state.
	var sts []Status
	if code, body := get("/v1/datasets?selector=state=ready"); code != http.StatusOK {
		t.Errorf("dataset list: status %d", code)
	} else if err := json.Unmarshal([]byte(body), &sts); err != nil || len(sts) != 1 || sts[0].Name != "tiny" {
		t.Errorf("dataset list = %v (err %v), want [tiny]", sts, err)
	}

	// Error taxonomy over HTTP.
	if code, _ := get("/v1/datasets/ghost/report"); code != http.StatusNotFound {
		t.Errorf("unknown dataset: status %d, want 404", code)
	}
	if code, _ := get("/v1/datasets/tiny/experiments/no-such"); code != http.StatusNotFound {
		t.Errorf("unknown experiment: status %d, want 404", code)
	}
	if code, body := get("/v1/datasets/tiny/networks?selector=bandwidth=9"); code != http.StatusBadRequest {
		t.Errorf("unknown selector field: status %d (%s), want 400", code, body)
	}
	if code, _ := get("/v1/datasets/tiny/experiments?selector=garbage"); code != http.StatusBadRequest {
		t.Errorf("malformed selector term: status %d, want 400", code)
	}
	resp, err = http.Post(ts.URL+"/v1/datasets", "application/json",
		strings.NewReader(`{"name":"x","path":"a.bin","scenario":"quick"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("path+scenario registration: status %d, want 400", resp.StatusCode)
	}
}

// TestMeshdRefreshKeepsServing pins the copy-on-write contract: while a
// re-registration warms a replacement snapshot, the old snapshot keeps
// serving, and the refresh publishes a new pointer without mutating the
// old one.
func TestMeshdRefreshKeepsServing(t *testing.T) {
	s, snap := newWarmServer(t, "tiny")
	defer s.Shutdown(context.Background())
	oldReport := snap.Report()

	// Re-register the same source; the dataset stays ready throughout.
	dir := s.cfg.Dir
	if err := s.RegisterPath("tiny", filepath.Join(dir, "meshd-tiny.bin")); err != nil {
		t.Fatalf("refresh: %v", err)
	}
	for {
		st, err := s.Status("tiny")
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateReady {
			t.Fatalf("dataset left ready state during refresh: %v", st.State)
		}
		cur, err := s.Snapshot("tiny")
		if err != nil {
			t.Fatalf("Snapshot during refresh: %v", err)
		}
		if cur.Report() == "" {
			t.Fatal("empty report during refresh")
		}
		if !st.Refreshing {
			if snap.Report() != oldReport {
				t.Error("refresh mutated the old snapshot")
			}
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestStatusJSONKeepsZeroFacts: the dataset-fact fields carry no
// omitempty, so a ready dataset with legitimate zeros (seed 0, an
// empty fleet) serializes them explicitly instead of becoming
// indistinguishable from "fact not yet available".
func TestStatusJSONKeepsZeroFacts(t *testing.T) {
	b, err := json.Marshal(Status{Name: "z", Source: "path:z.bin", State: StateReady})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"networks":0`, `"probeSets":0`, `"seed":0`, `"warmMillis":0`} {
		if !strings.Contains(string(b), key) {
			t.Errorf("ready status JSON omits %s: %s", key, b)
		}
	}
}
