package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The generator's load: its rate and its keep-alive connection cap.
// With the generator beside the server, a 2-vCPU box saturates near 20k
// req/s (closed loop, two connections). At half of that the generator's
// own schedule slips by milliseconds, and at 2k req/s the median swings
// by half run to run as the cores idle between requests; at a quarter it
// holds.
const (
	queryRate = 5000.0
	loadConns = 2
	sloLimit  = 10 * time.Millisecond
)

// opRecord is one sent op of an open-loop run.
type opRecord struct {
	i    int           // its place in the schedule
	lat  time.Duration // due time to response complete
	late time.Duration // due time to send
	err  error
}

// openLoop runs op(0) … op(n-1) on a fixed schedule: op i is due at
// start + i/rate whatever happened to earlier ops. It stops early when
// ctx is done. conns workers each take the next op, wait for
// its due time if that is still ahead, and run it; an op whose turn
// comes while every worker is busy starts late, and because latency is
// timed from the due time, that wait counts. op, told which worker runs
// it, returns when its response was complete. openLoop returns once
// every worker has, with the sent ops in schedule order.
func openLoop(ctx context.Context, rate float64, n, conns int, op func(worker, i int) (time.Time, error)) []opRecord {
	start := time.Now()
	var next atomic.Int64
	parts := make([][]opRecord, conns)
	var wg sync.WaitGroup
	for w := range parts {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				sleepUntil(due)
				if ctx.Err() != nil {
					return
				}
				sent := time.Now()
				done, err := op(w, i)
				parts[w] = append(parts[w], opRecord{i: i, lat: done.Sub(due), late: sent.Sub(due), err: err})
			}
		}(w)
	}
	wg.Wait()
	ops := slices.Concat(parts...)
	slices.SortFunc(ops, func(a, b opRecord) int { return a.i - b.i })
	return ops
}

// sleepUntil blocks the calling thread until t. time.Sleep wakes through
// the runtime's timers, which on a 2-vCPU VM overshoot a sub-millisecond
// wait by about a millisecond: more than a hot query takes. nanosleep
// overshoots by about 55µs there, so the schedule's own error stays
// below the latency it measures.
func sleepUntil(t time.Time) {
	for wait := time.Until(t); wait > 0; wait = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(wait))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

// window is how many consecutive requests one p99 window spans: 0.4 s
// of the load, with 20 samples beyond its p99.
const window = 2000

// loadSummary condenses an open-loop run: latency over every sent
// request (a failed one counts as missing the SLO), how late the
// generator ran, and the failures. p99 is the median of the p99s of
// consecutive windows of requests: a burst from a neighbour on a shared
// machine spoils one window, not the figure. p99All is the p99 of the
// whole run, and tail its highest percentile with ten samples beyond.
type loadSummary struct {
	sent, failed, sloMiss int
	p50, p99, p99All      time.Duration
	tail                  time.Duration
	tailQ                 float64
	lateP99               time.Duration
	firstErr              error
}

func summarize(ops []opRecord) loadSummary {
	sum := loadSummary{sent: len(ops)}
	lat := make([]time.Duration, len(ops))
	late := make([]time.Duration, len(ops))
	for k, o := range ops {
		lat[k], late[k] = o.lat, o.late
		switch {
		case o.err != nil:
			sum.failed++
			sum.sloMiss++
			if sum.firstErr == nil {
				sum.firstErr = o.err
			}
		case o.lat > sloLimit:
			sum.sloMiss++
		}
	}
	sum.p99 = windowedP99(lat)
	slices.Sort(lat)
	slices.Sort(late)
	sum.p50, sum.p99All = percentile(lat, 0.5), percentile(lat, 0.99)
	sum.tailQ = tailQuantile(len(lat), 10)
	sum.tail = percentile(lat, sum.tailQ)
	sum.lateP99 = percentile(late, 0.99)
	return sum
}

// windowedP99 is the median over consecutive windows of lat, in schedule
// order, of each window's p99. A trailing partial window is dropped,
// unless it is the only one.
func windowedP99(lat []time.Duration) time.Duration {
	if len(lat) == 0 {
		return 0
	}
	p99s := make([]float64, max(len(lat)/window, 1))
	for k := range p99s {
		w := slices.Clone(lat[k*window : min((k+1)*window, len(lat))])
		slices.Sort(w)
		p99s[k] = float64(percentile(w, 0.99))
	}
	return time.Duration(median(p99s))
}

// endpoint is one kind of query in the serving mix.
type endpoint int

const (
	epReport endpoint = iota
	epSec4
	epExperiment
	epNetworks
	epExpList
	numEndpoints
)

// The query mix, in percent: the pre-rendered report, §4 section and
// single experiments carry ETags and dominate; the selector-filtered
// lists vary by query and are computed per request.
var mixWeights = [numEndpoints]uint64{40, 20, 20, 10, 10}

var endpointNames = [numEndpoints]string{"report", "sec4", "experiment", "networks", "explist"}

const (
	networksQuery = "networks?band=bg&minAPs=10"
	expListQuery  = "experiments?section=5"
)

// wallTimeLine starts the one report line that differs between two
// renders of the same dataset.
const wallTimeLine = "- experiment wall time:"

// target is one served dataset as the generator sees it: the bodies
// every answer must repeat, and the entity tag that revalidates them.
type target struct {
	name        string
	etag        string
	report      []byte
	sec4        []byte
	experiments [][]byte // by index into ids
	networks    []byte
	expList     []byte
}

// query is one scheduled request.
type query struct {
	ds  *target
	ep  endpoint
	exp int  // experiment index, for epExperiment
	inm bool // carries If-None-Match
}

// mix maps op numbers to queries: datasets round-robin, experiments
// cycling through every ID, and the endpoint and the revalidation coin
// drawn from the seed, so one seed always sends the same requests.
type mix struct {
	seed     uint64
	datasets []*target
	ids      []string
}

func (m *mix) query(i int) query {
	q := query{ds: m.datasets[i%len(m.datasets)]}
	h := splitmix(m.seed ^ uint64(i)*0x9e3779b97f4a7c15)
	pick := h % 100
	for ep, w := range mixWeights {
		if pick < w {
			q.ep = endpoint(ep)
			break
		}
		pick -= w
	}
	q.exp = (i / len(m.datasets)) % len(m.ids)
	q.inm = q.ep <= epExperiment && (h>>32)&1 == 1
	return q
}

// splitmix is the SplitMix64 finalizer: a cheap, well-mixed hash.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// path is the request path of q under /v1/datasets/{name}/.
func (m *mix) path(q query) string {
	switch q.ep {
	case epReport:
		return "report"
	case epSec4:
		return "sec4"
	case epExperiment:
		return "experiments/" + m.ids[q.exp]
	case epNetworks:
		return networksQuery
	default:
		return expListQuery
	}
}

// want returns the body q must answer with.
func (q query) want() []byte {
	switch q.ep {
	case epReport:
		return q.ds.report
	case epSec4:
		return q.ds.sec4
	case epExperiment:
		return q.ds.experiments[q.exp]
	case epNetworks:
		return q.ds.networks
	default:
		return q.ds.expList
	}
}

// client is the generator's HTTP side: one keep-alive connection per
// worker and nothing in flight beyond that.
type client struct {
	http *http.Client
	base string
}

func newClient(base string) *client {
	return &client{
		base: base,
		http: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     loadConns,
			MaxIdleConnsPerHost: loadConns,
			DisableCompression:  true,
		}},
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do sends q and checks the answer: a 304 only when it revalidated, else
// a 200 with the expected body. It returns when the body was read. The
// body is read into buf, which the caller reuses, so the generator's own
// garbage stays small beside the server's.
func (c *client) do(ctx context.Context, m *mix, q query, buf *bytes.Buffer) (time.Time, error) {
	url := c.base + "/v1/datasets/" + q.ds.name + "/" + m.path(q)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return time.Now(), err
	}
	if q.inm {
		req.Header.Set("If-None-Match", q.ds.etag)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return time.Now(), err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	done := time.Now()
	if err != nil {
		return done, fmt.Errorf("GET %s: %w", url, err)
	}
	switch {
	case resp.StatusCode == http.StatusNotModified && q.inm:
		return done, nil
	case resp.StatusCode != http.StatusOK:
		return done, &statusError{url, resp.StatusCode}
	case !bytes.Equal(buf.Bytes(), q.want()):
		return done, fmt.Errorf("GET %s: body differs from the checked one", url)
	}
	return done, nil
}

// run sends n requests of m at rate.
func (c *client) run(ctx context.Context, m *mix, rate float64, n int) []opRecord {
	bufs := make([]bytes.Buffer, loadConns)
	return openLoop(ctx, rate, n, loadConns, func(w, i int) (time.Time, error) {
		return c.do(ctx, m, m.query(i), &bufs[w])
	})
}

// get fetches a body that must answer 200, and its ETag, for the reads
// outside the load.
func (c *client) get(ctx context.Context, path string) ([]byte, string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, "", err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, resp.Header.Get("ETag"), nil
}

// statusError is an answer with a status the check does not accept.
type statusError struct {
	url  string
	code int
}

func (e *statusError) Error() string { return fmt.Sprintf("GET %s: status %d", e.url, e.code) }

// equalExcept reports whether a and b hold the same lines once every
// line starting with one of skip is dropped from both.
func equalExcept(a, b []byte, skip ...string) bool {
	next := func(s []byte) ([]byte, []byte, bool) {
		for len(s) > 0 {
			line, rest, _ := bytes.Cut(s, []byte{'\n'})
			dropped := false
			for _, p := range skip {
				if bytes.HasPrefix(line, []byte(p)) {
					dropped = true
					break
				}
			}
			if !dropped {
				return line, rest, true
			}
			s = rest
		}
		return nil, nil, false
	}
	for {
		la, ra, okA := next(a)
		lb, rb, okB := next(b)
		if okA != okB || !bytes.Equal(la, lb) {
			return false
		}
		if !okA {
			return true
		}
		a, b = ra, rb
	}
}
