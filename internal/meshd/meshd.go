// Package meshd is the long-running analysis service: it registers
// datasets (binary fleet files by path, or declarative scenarios by
// name), warms each one's derived state through the bounded streaming
// pipeline (finalized accumulators, chunked §4 tables, memoized
// censuses), and serves report, section, and figure queries over HTTP
// with list-style filtering — the serving layer the ROADMAP's "meshd"
// item describes, modeled on flightctl's API server and field-selector
// list parameters.
//
// Heavy-traffic shape:
//
//   - Concurrent read queries share immutable finalized state through
//     copy-on-write snapshots: a warm publishes one atomic pointer
//     swap, readers never take the registry lock on the data path, and
//     a re-registration builds its replacement snapshot off to the
//     side while the old one keeps serving.
//   - Cold datasets stream in via meshlab.StreamFleet in background
//     goroutines, so warming never blocks serving warm datasets;
//     registration returns 202 plus a pollable status document (the
//     e2e harness's polling discipline, over HTTP).
//   - Queries take no worker slot: every answer is bytes rendered at
//     warm time, so a query is a map lookup and a write. Warms take one
//     slot and run one at a time, each streaming with a fixed share of
//     the worker budget (warmShare), so total workers never exceed it.
//   - Graceful shutdown stops accepting registrations, unblocks queued
//     warms, and drains in-flight work; an exceeded drain budget
//     hard-cancels in-flight warms (their streams abort at the next
//     read) instead of waiting forever.
//
// Long-lived-serving hardening (see docs/MESHD.md):
//
//   - Warm failures are classified with the shard taxonomy: corrupt
//     data (wire.IsCorrupt) fails fast with the evidence intact, while
//     presumed-transient I/O retries on a fresh handle with capped
//     exponential backoff + jitter (retry.go). Retries are
//     generation-numbered, so a retry superseded by a re-registration
//     or DELETE never publishes.
//   - A query on a dataset that is still warming answers 503 with a
//     Retry-After derived from observed warm times.
//   - Datasets have a lifecycle (lifecycle.go): TTL and LRU eviction
//     bound how many snapshots a long-lived process retains, and
//     DELETE cancels an in-flight warm. Eviction racing a query is
//     safe by the copy-on-write contract — an in-flight query finishes
//     on the snapshot generation it resolved.
//
// Responses reuse the CLIs' exact byte paths: an experiment query
// returns what `meshanalyze -exp ID` prints, the §4 section returns
// what `meshanalyze -sec4` prints, and the report is cmd/meshreport's
// markdown (shared internal/report renderer) — so the whole golden and
// scenario oracle net pins the server's output too. See docs/MESHD.md
// for the HTTP API.
package meshd

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"meshlab"
	"meshlab/internal/conc"
	"meshlab/internal/report"
	"meshlab/internal/scenario"
	"meshlab/internal/scenario/e2e"
)

// State is a registered dataset's lifecycle phase.
type State string

const (
	// StateWarming: registered, derived state still streaming in; no
	// snapshot is served yet.
	StateWarming State = "warming"
	// StateReady: a finalized snapshot is being served.
	StateReady State = "ready"
	// StateFailed: the warm failed; Status.Error says why. A
	// re-registration retries.
	StateFailed State = "failed"
)

// Errors the HTTP layer maps to status codes; see httpError.
var (
	// ErrNotFound: no dataset (or experiment) under that name.
	ErrNotFound = errors.New("meshd: not found")
	// ErrNotReady: the dataset is still warming; poll its status.
	ErrNotReady = errors.New("meshd: dataset not ready")
	// ErrWarmFailed: the dataset's warm failed; the status carries the
	// cause.
	ErrWarmFailed = errors.New("meshd: warm failed")
	// ErrClosed: the server is shutting down.
	ErrClosed = errors.New("meshd: server is shutting down")
	// ErrBadRequest: an invalid registration or query.
	ErrBadRequest = errors.New("meshd: bad request")
)

// Config tunes a Server.
type Config struct {
	// Dir is where scenario registrations synthesize their dataset
	// files (reused across registrations — the compilation is
	// deterministic, so a present file is the right file). Required
	// when scenarios are registered.
	Dir string
	// Workers is the warm budget (≤ 0: the process budget,
	// conc.Budget()). Warms run one at a time, each streaming with
	// warmShare(Workers) workers; queries take no worker.
	Workers int
	// WarmRetries is how many times a transiently-failed warm re-runs
	// on a fresh handle before the dataset is marked failed (< 0:
	// never retry; 0: the default, 3). Corrupt or otherwise permanent
	// failures never retry regardless.
	WarmRetries int
	// RetryBase is the warm-retry backoff unit: retry k sleeps in
	// [base·2ᵏ, 1.5·base·2ᵏ), capped at 64·base. ≤ 0 means 250ms.
	RetryBase time.Duration
	// MaxDatasets caps the registered-dataset count: a registration
	// pushing past it evicts the least-recently-queried ready datasets
	// first (warming datasets are never evicted). ≤ 0 means unlimited.
	MaxDatasets int
	// DatasetTTL evicts a ready dataset whose snapshot has gone
	// unqueried for this long, releasing its memory. ≤ 0 disables TTL
	// eviction.
	DatasetTTL time.Duration
	// Open opens dataset files for warming; nil means os.Open. The
	// service-level fault-injection suite hooks faultfs here.
	Open func(path string) (io.ReadSeekCloser, error)
}

// Server is the concurrent analysis service. Create with New, serve
// via Handler, stop with Shutdown.
type Server struct {
	cfg    Config
	warms  sync.WaitGroup
	base   context.Context
	cancel context.CancelFunc
	// closing is closed when Shutdown begins: queued warms abort their
	// slot waits and retrying warms abort their backoff sleeps, while
	// in-flight warm attempts keep draining until the budget expires
	// (then s.cancel hard-cancels their streams).
	closing chan struct{}

	// warmSlot is the one slot a warm holds while it streams, so warms
	// run one at a time.
	warmSlot conc.Slots
	// budget is the resolved Config.Workers; share is warmShare(budget),
	// the workers each warm streams with.
	budget, share int
	// warmed is set once any warm has taken the slot (PoolStats).
	warmed atomic.Bool

	// lastWarmMillis is the most recent successful warm duration
	// anywhere on the server, the fallback behind a not-ready
	// Retry-After.
	lastWarmMillis atomic.Int64

	mu       sync.RWMutex
	closed   bool
	datasets map[string]*dsEntry
}

// dsEntry is one registered dataset: mutable status under mu, plus the
// immutable published snapshot behind an atomic pointer so the query
// path never takes a lock that a warm holds.
type dsEntry struct {
	name   string
	source string

	mu      sync.Mutex
	state   State
	warmErr error
	gen     int  // bumped per (re)registration; a stale warm may not publish
	warming bool // a warm goroutine is in flight (initial or refresh)
	// cancel aborts the in-flight warm's context (DELETE, or shutdown's
	// drain budget expiring). Nil when no warm is in flight.
	cancel context.CancelFunc
	// attempt is the in-flight (or final) warm attempt number, 1-based;
	// nextRetry is when the next attempt starts while the warm sits in
	// a backoff sleep (zero while an attempt is actively running).
	attempt   int
	nextRetry time.Time
	// lastWarmMillis is the duration of this dataset's most recent
	// successful warm — the basis of its ErrNotReady Retry-After.
	lastWarmMillis int64

	// lastUsed is the unix-nano timestamp of the last snapshot
	// resolution (the query path), driving TTL and LRU eviction.
	lastUsed atomic.Int64

	snap atomic.Pointer[Snapshot]
}

// Snapshot is a dataset's finalized derived state: everything a query
// can ask for, fully materialized and immutable. Queries resolve
// against whichever snapshot pointer they load; a refresh publishes a
// new snapshot without touching the old one (copy-on-write).
type Snapshot struct {
	// Summary is the streaming walk's dataset summary.
	Summary meshlab.StreamSummary
	// Results holds every experiment result in paper order.
	Results []*meshlab.Result
	// Networks indexes the walked network datasets for filtered list
	// queries, in file order.
	Networks []NetworkEntry
	// DatasetPath is the binary file the snapshot was streamed from.
	DatasetPath string
	// WarmDuration is how long the streaming suite took.
	WarmDuration time.Duration

	report string            // cmd/meshreport markdown, rendered once
	byID   map[string]string // experiment ID → meshanalyze -exp bytes
	ids    []string          // experiment IDs in paper order
	sec4   string            // meshanalyze -sec4 bytes
	etag   string            // cache validator: source identity + warm generation
}

// NetworkEntry is one network dataset in a snapshot's queryable index.
type NetworkEntry struct {
	Name      string `json:"name"`
	Band      string `json:"band"`
	Env       string `json:"env"`
	APs       int    `json:"aps"`
	Links     int    `json:"links"`
	ProbeSets int    `json:"probeSets"`
}

// Status is the pollable registration document.
type Status struct {
	Name   string `json:"name"`
	Source string `json:"source"`
	State  State  `json:"state"`
	// Refreshing reports a re-registration warming a replacement
	// snapshot while the current one keeps serving.
	Refreshing bool `json:"refreshing,omitempty"`
	// Error carries the warm failure when State is failed, or the most
	// recent attempt's transient failure while the warm is retrying.
	Error string `json:"error,omitempty"`
	// Attempt is the warm attempt number (1-based) once a warm has
	// started; Retrying reports an in-flight warm that has already
	// failed at least once and will retry; NextRetry (RFC 3339, UTC) is
	// when the next attempt starts while the warm sleeps in backoff.
	Attempt   int    `json:"attempt,omitempty"`
	Retrying  bool   `json:"retrying,omitempty"`
	NextRetry string `json:"nextRetry,omitempty"`
	// Dataset facts, meaningful once State is ready. Always serialized
	// (no omitempty): a ready dataset with a legitimate zero value —
	// seed 0, an empty fleet — must be distinguishable from "fact not
	// yet available", and State already says which one a client holds.
	Networks   int    `json:"networks"`
	ProbeSets  int    `json:"probeSets"`
	Seed       uint64 `json:"seed"`
	WarmMillis int64  `json:"warmMillis"`
}

// New returns a Server ready to register datasets. A positive
// Config.DatasetTTL starts the eviction janitor (stopped by Shutdown).
func New(cfg Config) *Server {
	base, cancel := context.WithCancel(context.Background())
	budget := conc.Workers(cfg.Workers)
	s := &Server{
		cfg:      cfg,
		base:     base,
		cancel:   cancel,
		closing:  make(chan struct{}),
		warmSlot: conc.NewSlots(1),
		budget:   budget,
		share:    warmShare(budget),
		datasets: make(map[string]*dsEntry),
	}
	if cfg.DatasetTTL > 0 {
		go s.janitor()
	}
	return s
}

// warmShare is how many workers a warm streams with under a budget of
// c: the budget less a quarter of it (at least one), and at least one.
func warmShare(c int) int {
	return max(1, c-max(1, c/4))
}

// PoolStats reports the warm budget and the most warm workers ever held
// at once: the budget-enforcement witness the concurrency tests assert.
// Warms run one at a time with a fixed share, so high is that share
// once any warm has started, and 0 before.
func (s *Server) PoolStats() (capacity, high int) {
	if s.warmed.Load() {
		high = s.share
	}
	return s.budget, high
}

// validName matches the scenario-name discipline: lowercase letters,
// digits, dashes, dots (so a name can mirror a file stem).
func validName(name string) bool {
	if name == "" || len(name) > 128 {
		return false
	}
	for _, r := range name {
		ok := r == '-' || r == '.' || (r >= '0' && r <= '9') || (r >= 'a' && r <= 'z')
		if !ok {
			return false
		}
	}
	return strings.Trim(name, ".-") != "" // no all-punctuation names
}

// RegisterPath registers (or refreshes) name backed by a binary fleet
// file and starts warming it in the background. Returns immediately;
// poll Status until ready.
func (s *Server) RegisterPath(name, path string) error {
	if path == "" {
		return fmt.Errorf("%w: empty dataset path", ErrBadRequest)
	}
	return s.register(name, "path:"+path)
}

// RegisterScenario registers (or refreshes) a declarative scenario — a
// built-in name or a spec-file path — synthesizing its dataset into
// Config.Dir if it is not already there, then warming it. name may be
// empty to use the scenario's own name.
func (s *Server) RegisterScenario(name, scen string) (string, error) {
	sp, err := scenario.Resolve(scen)
	if err != nil {
		return "", fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if name == "" {
		name = sp.Name
	}
	if s.cfg.Dir == "" {
		return "", fmt.Errorf("%w: this server has no dataset directory for scenario synthesis", ErrBadRequest)
	}
	return name, s.register(name, "scenario:"+scen)
}

// register installs (or refreshes) the entry and launches the warm
// goroutine. A registration racing an in-flight warm of the same name
// is rejected rather than queued — callers poll to ready first.
func (s *Server) register(name, source string) error {
	if !validName(name) {
		return fmt.Errorf("%w: invalid dataset name %q (lowercase letters, digits, dashes, dots)", ErrBadRequest, name)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	d := s.datasets[name]
	if d == nil {
		d = &dsEntry{name: name, state: StateWarming}
		s.datasets[name] = d
	}
	d.mu.Lock()
	if d.warming {
		d.mu.Unlock()
		s.mu.Unlock()
		return fmt.Errorf("%w: dataset %q is already warming; poll its status", ErrBadRequest, name)
	}
	d.source = source
	d.warming = true
	d.warmErr = nil
	d.attempt = 0
	d.nextRetry = time.Time{}
	d.gen++
	if d.snap.Load() == nil {
		d.state = StateWarming
	}
	gen := d.gen
	ctx, cancel := context.WithCancel(s.base)
	d.cancel = cancel
	d.lastUsed.Store(time.Now().UnixNano())
	d.mu.Unlock()
	s.warms.Add(1)
	s.mu.Unlock()
	s.enforceMaxDatasets(d)
	go s.warm(ctx, cancel, d, source, gen)
	return nil
}

// buildSnapshot resolves the source to a binary dataset file, streams
// the full suite over it, and materializes every query answer once —
// the report markdown, the per-experiment texts, the §4 section, and
// the network index — so the query path is pure immutable reads. ctx is
// the warm's context: it cancels the slot wait, and every read of the
// dataset file, so DELETE and an expired shutdown drain abort the
// stream instead of waiting it out.
func (s *Server) buildSnapshot(ctx context.Context, source string, gen int) (*Snapshot, error) {
	// The slot wait additionally aborts when shutdown begins: a queued
	// warm should unblock immediately, while an already-streaming warm
	// keeps draining under the shutdown budget.
	if err := s.warmSlot.Acquire(ctx, s.closing); err != nil {
		if errors.Is(err, conc.ErrAborted) {
			return nil, fmt.Errorf("%w: warm still queued", ErrClosed)
		}
		return nil, err
	}
	defer s.warmSlot.Release()
	s.warmed.Store(true)

	path := source
	ident := source
	so := meshlab.StreamOptions{Workers: s.share, Open: s.warmOpen(ctx)}
	if scen, ok := strings.CutPrefix(source, "scenario:"); ok {
		sp, err := scenario.Resolve(scen)
		if err != nil {
			return nil, err
		}
		ident = "spec:" + sp.SHA256
		// The e2e harness owns the synthesize-once discipline (its atomic
		// save makes a present file a complete file), and the warm slot
		// means a second warm of one scenario starts after the first has
		// saved it, so both share one synthesis. The streamed walk below
		// still validates the file when the scenario is
		// cache-validatable.
		h := e2e.New(s.cfg.Dir)
		h.Workers = s.share
		path, err = h.Synthesize(sp)
		if err != nil {
			return nil, err
		}
		opts := sp.Options()
		if opts.CacheValidatable() {
			so.Validate = &opts
		}
	} else {
		path = strings.TrimPrefix(source, "path:")
	}

	snap := &Snapshot{DatasetPath: path}
	so.OnNetwork = func(info meshlab.NetworkInfo, links, probeSets int) {
		snap.Networks = append(snap.Networks, NetworkEntry{
			Name: info.Name, Band: info.Band, Env: info.Env,
			APs: len(info.APs), Links: links, ProbeSets: probeSets,
		})
	}
	start := time.Now()
	results, sum, err := meshlab.StreamFleet(path, so)
	if err != nil {
		return nil, err
	}
	snap.WarmDuration = time.Since(start)
	snap.Summary = *sum
	snap.Results = results

	// Pre-render every response on the CLIs' exact byte paths, so
	// serving is a map lookup and the golden/oracle net transfers.
	snap.byID = make(map[string]string, len(results))
	snap.ids = make([]string, 0, len(results))
	for _, r := range results {
		snap.ids = append(snap.ids, r.ID)
		snap.byID[r.ID] = r.Format() + "\n" // what `meshanalyze -exp ID` prints
	}
	var sec4 strings.Builder
	for _, id := range meshlab.SampleExperimentIDs() {
		if txt, ok := snap.byID[id]; ok {
			sec4.WriteString(txt) // what `meshanalyze -sec4` prints
		}
	}
	snap.sec4 = sec4.String()
	label := fmt.Sprintf("%s (meshd; warmed via streaming suite)", path)
	snap.report = report.Markdown(report.Preamble{Label: label, Sum: sum, ExpDuration: snap.WarmDuration}, results)
	snap.etag = etagFor(ident, gen)
	return snap, nil
}

// etagFor derives a snapshot's entity tag from its source identity —
// the scenario spec's sha256, or the registered dataset path — plus the
// registration generation that built it, so a refresh of the same name
// invalidates cached responses while a byte-identical re-serve stays a
// 304. The tag is strong: snapshots are immutable, and every response
// byte is pre-rendered at warm time.
func etagFor(ident string, gen int) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s#g%d", ident, gen)))
	return `"` + hex.EncodeToString(sum[:16]) + `"`
}

// ETag returns the snapshot's entity tag: the cache validator served
// (and honored via If-None-Match) on the report, §4, and experiment
// endpoints.
func (snap *Snapshot) ETag() string { return snap.etag }

// lookup returns the entry for name.
func (s *Server) lookup(name string) (*dsEntry, error) {
	s.mu.RLock()
	d := s.datasets[name]
	s.mu.RUnlock()
	if d == nil {
		return nil, fmt.Errorf("%w: dataset %q", ErrNotFound, name)
	}
	return d, nil
}

// Status returns the pollable status document for name.
func (s *Server) Status(name string) (Status, error) {
	d, err := s.lookup(name)
	if err != nil {
		return Status{}, err
	}
	d.mu.Lock()
	st := Status{
		Name: d.name, Source: d.source, State: d.state,
		Refreshing: d.warming && d.state == StateReady,
		Attempt:    d.attempt,
		Retrying:   d.warming && d.warmErr != nil,
	}
	if d.warmErr != nil {
		st.Error = d.warmErr.Error()
	}
	if d.warming && !d.nextRetry.IsZero() {
		st.NextRetry = d.nextRetry.UTC().Format(time.RFC3339Nano)
	}
	d.mu.Unlock()
	if snap := d.snap.Load(); snap != nil && st.State == StateReady {
		st.Networks = snap.Summary.Networks
		st.ProbeSets = snap.Summary.ProbeSets
		st.Seed = snap.Summary.Meta.Seed
		st.WarmMillis = snap.WarmDuration.Milliseconds()
	}
	return st, nil
}

// Statuses lists every registered dataset's status, sorted by name.
func (s *Server) Statuses() []Status {
	s.mu.RLock()
	names := make([]string, 0, len(s.datasets))
	for n := range s.datasets {
		names = append(names, n)
	}
	s.mu.RUnlock()
	sort.Strings(names)
	out := make([]Status, 0, len(names))
	for _, n := range names {
		if st, err := s.Status(n); err == nil {
			out = append(out, st)
		}
	}
	return out
}

// Snapshot returns name's current published snapshot: the immutable
// state every query of that dataset reads. ErrNotReady while the first
// warm is in flight, ErrWarmFailed (wrapping the cause) after a failed
// first warm.
func (s *Server) Snapshot(name string) (*Snapshot, error) {
	d, err := s.lookup(name)
	if err != nil {
		return nil, err
	}
	d.lastUsed.Store(time.Now().UnixNano())
	if snap := d.snap.Load(); snap != nil {
		return snap, nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	// warmErr only means failed once the warm goroutine has given up; a
	// retrying warm keeps its latest transient error visible in Status
	// while the dataset stays not-ready.
	if d.warmErr != nil && !d.warming {
		return nil, fmt.Errorf("%w: %w", ErrWarmFailed, d.warmErr)
	}
	return nil, fmt.Errorf("%w: %q is warming", ErrNotReady, name)
}

// Report returns the dataset's full markdown report — byte-identical to
// cmd/meshreport's output up to the dataset-label and wall-time
// preamble lines.
func (snap *Snapshot) Report() string { return snap.report }

// Experiment returns one experiment's rendered table: exactly what
// `meshanalyze -exp id` prints.
func (snap *Snapshot) Experiment(id string) (string, error) {
	txt, ok := snap.byID[id]
	if !ok {
		return "", fmt.Errorf("%w: experiment %q", ErrNotFound, id)
	}
	return txt, nil
}

// Sec4 returns the §4 sample-only section: exactly what
// `meshanalyze -sec4` prints for this dataset.
func (snap *Snapshot) Sec4() string { return snap.sec4 }

// Shutdown stops the server: no new registrations, queued warms are
// unblocked, retrying warms abort their backoff sleeps, and in-flight
// warm attempts are drained — bounded by ctx. When the drain budget
// expires, in-flight warms are hard-canceled (their dataset streams
// abort at the next read) and Shutdown returns ctx.Err(). Draining
// in-flight HTTP queries is the HTTP server's job
// (http.Server.Shutdown); cmd/meshd sequences the two.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.closing)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.warms.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.cancel()
		return nil
	case <-ctx.Done():
		// Drain budget exceeded: cancel every warm's context so their
		// streams abort, and report the unfinished drain.
		s.cancel()
		return ctx.Err()
	}
}
