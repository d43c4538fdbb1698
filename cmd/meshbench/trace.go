package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"meshlab"
	"meshlab/internal/dataset"
	"meshlab/internal/experiments"
	"meshlab/internal/hidden"
	"meshlab/internal/meshd"
	"meshlab/internal/mobility"
	"meshlab/internal/report"
	"meshlab/internal/routing"
	"meshlab/internal/scenario"
	"meshlab/internal/scenario/e2e"
	"meshlab/internal/synth"
	"meshlab/internal/wire"
)

// span is one timed call into a layer. A span's self time is its
// duration minus its children's; the traced suite makes its calls one after
// another, so children never overlap.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent,omitempty"`
	Run    int                `json:"run"`
	Name   string             `json:"name"`
	Start  float64            `json:"start_s"`
	End    float64            `json:"end_s"`
	Counts map[string]float64 `json:"counts,omitempty"`

	t0     time.Time
	parent *span
	child  float64
}

func (s *span) dur() float64  { return s.End - s.Start }
func (s *span) self() float64 { return s.dur() - s.child }

func (s *span) end() {
	s.End = time.Since(s.t0).Seconds()
	if s.parent != nil {
		s.parent.child += s.dur()
	}
}

func (s *span) count(key string, v float64) {
	if s.Counts == nil {
		s.Counts = make(map[string]float64)
	}
	s.Counts[key] += v
}

// tracer keeps a traced run's spans in memory until the run writes them
// out. Spans of one pass of the suite over one dataset share a run id.
// Only the goroutine running the suite begins and ends spans.
type tracer struct {
	t0    time.Time
	run   int
	spans []*span
}

func (t *tracer) begin(name string, parent *span) *span {
	s := &span{ID: len(t.spans) + 1, Run: t.run, Name: name, Start: time.Since(t.t0).Seconds(), t0: t.t0, parent: parent}
	if parent != nil {
		s.Parent = parent.ID
	}
	t.spans = append(t.spans, s)
	return s
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(struct {
		Spans []*span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// suiteRun is one pass of the streamed suite over one dataset.
type suiteRun struct {
	results []*meshlab.Result
	text    string // every result's Format(), in order
	md      string // the rendered report
	wall    float64
	root    *span   // nil for an untraced pass
	spans   []*span // every span of the pass, root first
}

const traceLabel = "meshbench"

// tracedSuite drives the streamed suite over path as meshlab.StreamFleet
// does, through the layers' public functions, with a span around each
// call, then renders the report. The root span counts the run's
// allocation and GC cycles.
func tracedSuite(t *tracer, path string) (*suiteRun, error) {
	t.run++
	first := len(t.spans)
	root := t.begin("suite", nil)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sp := t.begin("wire.NewReader", root)
	rd, err := wire.NewReader(bufio.NewReaderSize(f, 1<<20))
	sp.end()
	if err != nil {
		return nil, err
	}
	if !rd.HasFlatSamples() {
		return nil, fmt.Errorf("%s has no flat-sample section", path)
	}
	sc := experiments.NewStreamContext(0)
	sc.DeferSamples()
	sum := &meshlab.StreamSummary{Meta: rd.Meta(), FlatSamples: true}

	walk := t.begin("wire.EachNetwork", root)
	off := rd.Offset()
	walkErr := rd.EachNetwork(wire.Filter{}, func(nd *dataset.NetworkData) error {
		summarizeNetwork(sum, nd)
		o := t.begin("experiments.Observe", walk)
		err := sc.Observe(nd)
		o.end()
		return err
	})
	walk.count("bytes", float64(rd.Offset()-off))
	walk.count("networks", float64(sum.Networks))
	walk.end()
	if walkErr == nil {
		sp = t.begin("wire.Clients", root)
		var cds []*dataset.ClientData
		cds, walkErr = rd.Clients()
		sp.end()
		sp = t.begin("experiments.SetClients", root)
		sc.SetClients(cds)
		sp.end()
	}
	if walkErr == nil {
		groups := t.begin("wire.SampleGroups", root)
		walkErr = rd.SampleGroups(0, func(g *wire.SampleGroup) error {
			sum.SampleGroups++
			groups.count("groups", 1)
			groups.count("rows", float64(len(g.Samples)))
			o := t.begin("experiments.ObserveSampleGroup", groups)
			err := sc.ObserveSampleGroup(g.Band, g.Samples)
			o.end()
			return err
		})
		groups.end()
		sp = t.begin("experiments.FinishSamples", root)
		sc.FinishSamples()
		sp.end()
	}
	// Finalize also drains the pipeline, so it runs after a walk error too.
	sp = t.begin("experiments.Finalize", root)
	results, finErr := sc.Finalize()
	sp.end()
	if walkErr != nil {
		return nil, walkErr
	}
	if finErr != nil {
		return nil, finErr
	}
	_, sum.MaxLiveNetworks = sc.Stats()
	sp = t.begin("report.Markdown", root)
	md := report.Markdown(report.Preamble{Label: traceLabel, Sum: sum}, results)
	sp.end()
	runtime.ReadMemStats(&m1)
	root.count("alloc_bytes", float64(m1.TotalAlloc-m0.TotalAlloc))
	root.count("gc_cycles", float64(m1.NumGC-m0.NumGC))
	root.count("max_in_flight", float64(sum.MaxLiveNetworks))
	root.end()
	return &suiteRun{results: results, text: formatAll(results), md: md, wall: root.dur(), root: root, spans: t.spans[first:]}, nil
}

// summarizeNetwork accumulates what meshlab.StreamFleet's summary counts
// for one walked network.
func summarizeNetwork(sum *meshlab.StreamSummary, nd *dataset.NetworkData) {
	sum.Networks++
	switch nd.Info.Band {
	case "bg":
		sum.NetworksBG++
	case "n":
		sum.NetworksN++
	}
	for _, l := range nd.Links {
		sum.ProbeSets += len(l.Sets)
	}
}

// untracedSuite is the reference the traced suite must match and the
// baseline of the tracing overhead: meshlab.StreamFleet plus the report.
func untracedSuite(path string) (*suiteRun, error) {
	start := time.Now()
	results, sum, err := meshlab.StreamFleet(path, meshlab.StreamOptions{})
	if err != nil {
		return nil, err
	}
	md := report.Markdown(report.Preamble{Label: traceLabel, Sum: sum}, results)
	return &suiteRun{results: results, text: formatAll(results), md: md, wall: time.Since(start).Seconds()}, nil
}

func formatAll(results []*meshlab.Result) string {
	var b strings.Builder
	for _, r := range results {
		b.WriteString(r.Format())
	}
	return b.String()
}

// runTrace is the traced, in-process run over the workload's datasets: synthesis, the streamed suite (once cold, then untraced and
// traced passes in turn), each layer in isolation, and meshd's warm and
// handlers. It writes the spans to tracePath.
func runTrace(ctx context.Context, e *env, w *workload, seed uint64, tracePath string) (*recorder, error) {
	r := newRecorder()
	t := &tracer{t0: time.Now()}
	specs := make([]*scenario.Spec, len(w.datasets))
	paths := make([]string, len(w.datasets))
	for i, name := range w.datasets {
		sp, err := scenario.Builtin(name)
		if err != nil {
			return nil, err
		}
		specs[i], paths[i] = sp, e.dataPath(name)
	}
	if err := synthesize(t, specs, paths, r); err != nil {
		return nil, err
	}

	// The first pass pays the one-time costs (the ablation fleets built
	// in Finalize); the later traced and untraced passes alternate so
	// drift on the machine hits both alike.
	var cold, untraced, traced []*suiteRun
	for _, p := range paths {
		s, err := tracedSuite(t, p)
		if err != nil {
			return nil, err
		}
		cold = append(cold, s)
	}
	const warmPasses = 2
	for pass := range warmPasses {
		for i, p := range paths {
			u, err := untracedSuite(p)
			if err != nil {
				return nil, err
			}
			s, err := tracedSuite(t, p)
			if err != nil {
				return nil, err
			}
			untraced, traced = append(untraced, u), append(traced, s)
			r.op(sameSuite(s, u, w.datasets[i]))
			if pass == 0 {
				r.op(sameSuite(cold[i], u, w.datasets[i]))
			}
		}
	}
	for i, sp := range specs {
		r.op(checkGolden(e.root, sp, cold[i].results))
	}
	suiteMetrics(r, cold, untraced, traced, len(paths))

	acc := make(map[string]float64)
	for _, p := range paths {
		if err := isolatedPasses(t, p, acc); err != nil {
			return nil, err
		}
	}
	for k, v := range acc {
		r.stat(k, v, 1)
	}
	if err := traceServing(ctx, t, w.datasets, paths, traced, seed, r); err != nil {
		return nil, err
	}
	if err := t.write(tracePath); err != nil {
		return nil, err
	}
	r.extra["failed_frac"] = float64(r.failed) / float64(r.attempted)
	return r, nil
}

// synthesize generates each dataset in-process, as meshgen does, and
// writes it with the flat-sample section.
func synthesize(t *tracer, specs []*scenario.Spec, paths []string, r *recorder) error {
	var gen, enc, alloc float64
	for i, sp := range specs {
		t.run++
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		s := t.begin("synth.Generate", nil)
		fleet, err := synth.Generate(sp.Options())
		s.end()
		runtime.ReadMemStats(&m1)
		if err != nil {
			return err
		}
		gen += s.dur()
		alloc += float64(m1.TotalAlloc - m0.TotalAlloc)
		s = t.begin("wire.WriteWithSamples", nil)
		err = writeDataset(paths[i], fleet)
		s.end()
		if err != nil {
			return err
		}
		enc += s.dur()
	}
	runtime.GC() // the fleets are garbage; keep them out of the suite's heap
	r.stat("synth.generate_s", gen, 1)
	r.stat("synth.alloc_mb", alloc/(1<<20), 1)
	r.stat("wire.encode_s", enc, 1)
	return nil
}

func writeDataset(path string, fleet *dataset.Fleet) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if _, err := wire.WriteWithSamples(bw, fleet); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sameSuite checks a pass against the untraced StreamFleet pass over the
// same file: equal results, and equal reports up to the wall-time line.
func sameSuite(got, want *suiteRun, name string) error {
	if got.text != want.text {
		return fmt.Errorf("%s: the traced suite's results differ from meshlab.StreamFleet's", name)
	}
	if !equalExcept([]byte(got.md), []byte(want.md), wallTimeLine) {
		return fmt.Errorf("%s: the traced suite's report differs from meshlab.StreamFleet's", name)
	}
	return nil
}

// checkGolden compares a scenario's results with its checked-in golden,
// when it has one (reference is guardrail-scale and has none).
func checkGolden(root string, sp *scenario.Spec, results []*meshlab.Result) error {
	golden, err := os.ReadFile(filepath.Join(root, "testdata", "scenarios", sp.Name+".golden"))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	if e2e.Report(sp, results) != string(golden) {
		return fmt.Errorf("%s: results differ from testdata/scenarios/%s.golden", sp.Name, sp.Name)
	}
	return nil
}

// suiteMetrics derives the suite layers' metrics from the passes: each
// is summed over the workload's datasets per pass, then the median over
// the warm traced passes is taken.
func suiteMetrics(r *recorder, cold, untraced, traced []*suiteRun, perPass int) {
	byPass := func(runs []*suiteRun, f func(*suiteRun) float64) []float64 {
		var out []float64
		for i := 0; i < len(runs); i += perPass {
			v := 0.0
			for _, s := range runs[i : i+perPass] {
				v += f(s)
			}
			out = append(out, v)
		}
		return out
	}
	children := func(name string, self bool) func(*suiteRun) float64 {
		return func(s *suiteRun) float64 {
			v := 0.0
			for _, c := range s.spans {
				if c.Name == name {
					if self {
						v += c.self()
					} else {
						v += c.dur()
					}
				}
			}
			return v
		}
	}
	count := func(name, key string) func(*suiteRun) float64 {
		return func(s *suiteRun) float64 {
			v := 0.0
			for _, c := range s.spans {
				if c.Name == name {
					v += c.Counts[key]
				}
			}
			return v
		}
	}
	set := func(metric string, f func(*suiteRun) float64) { r.set(metric, byPass(traced, f)) }
	set("wire.decode_s", children("wire.EachNetwork", true))
	set("wire.decode_mb", func(s *suiteRun) float64 { return count("wire.EachNetwork", "bytes")(s) / (1 << 20) })
	set("wire.clients_s", children("wire.Clients", false))
	set("wire.samplegroups_s", children("wire.SampleGroups", true))
	set("wire.sample_groups", count("wire.SampleGroups", "groups"))
	set("experiments.observe_wait_s", children("experiments.Observe", false))
	set("experiments.sec4_feed_s", children("experiments.ObserveSampleGroup", false))
	set("experiments.finalize_s", children("experiments.Finalize", false))
	set("experiments.alloc_mb", func(s *suiteRun) float64 { return s.root.Counts["alloc_bytes"] / (1 << 20) })
	set("experiments.gc_cycles", func(s *suiteRun) float64 { return s.root.Counts["gc_cycles"] })
	set("report.render_s", children("report.Markdown", false))
	maxInFlight := 0.0
	for _, s := range traced {
		maxInFlight = max(maxInFlight, s.root.Counts["max_in_flight"])
	}
	r.stat("experiments.max_in_flight", maxInFlight, 1)
	r.set("experiments.finalize_cold_s", byPass(cold, children("experiments.Finalize", false)))
	// Coverage: the share of the traced suite's wall time its layer
	// calls account for; the rest is its own unattributed time.
	covered, wall := 0.0, 0.0
	for _, s := range traced {
		covered += s.root.child
		wall += s.root.dur()
	}
	r.stat("trace.coverage_frac", covered/wall, 1)
	walls := func(s *suiteRun) float64 { return s.wall }
	r.stat("trace.overhead_frac", median(byPass(traced, walls))/median(byPass(untraced, walls))-1, 1)
}

// isolatedPasses times each batch layer on its own over one dataset, in
// one walk of the file: per network the routing matrices, the
// improvement sweeps (both ETX variants, every rate) and, on b/g
// networks, the hidden-triple census at each threshold the suite uses;
// the mobility analysis of the client section; and one SampleRun per §4
// experiment, all fed from a single sample-group walk.
func isolatedPasses(t *tracer, path string, acc map[string]float64) error {
	t.run++
	root := t.begin("isolated", nil)
	defer root.end()
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	rd, err := wire.NewReader(bufio.NewReaderSize(f, 1<<20))
	if err != nil {
		return err
	}
	err = rd.EachNetwork(wire.Filter{}, func(nd *dataset.NetworkData) error {
		sp := t.begin("routing.SuccessMatrices", root)
		ms, err := routing.SuccessMatrices(nd)
		sp.end()
		if err != nil {
			return err
		}
		acc["routing.matrices_s"] += sp.dur()
		sp = t.begin("routing.Improvements", root)
		for _, v := range []routing.Variant{routing.ETX1, routing.ETX2} {
			for _, m := range ms {
				routing.Improvements(m, v)
			}
		}
		sp.end()
		sp.count("aps", float64(len(nd.Info.APs)))
		acc["routing.improvements_s"] += sp.dur()
		acc["routing.improvements_max_net_s"] = max(acc["routing.improvements_max_net_s"], sp.dur())
		if nd.Info.Band != "bg" {
			return nil
		}
		sp = t.begin("hidden.Census", root)
		for _, th := range censusThresholds {
			if _, err := hidden.Census(nd, ms, th); err != nil {
				sp.end()
				return err
			}
		}
		sp.end()
		acc["hidden.census_s"] += sp.dur()
		return nil
	})
	if err != nil {
		return err
	}
	cds, err := rd.Clients()
	if err != nil {
		return err
	}
	sp := t.begin("mobility.Analyze", root)
	mobility.Analyze(cds, mobility.DefaultGap)
	sp.end()
	acc["mobility.analyze_s"] += sp.dur()

	ids := meshlab.SampleExperimentIDs()
	runs := make([]*experiments.SampleRun, len(ids))
	for i, id := range ids {
		if runs[i], err = experiments.NewSampleRun([]string{id}); err != nil {
			return err
		}
	}
	took := make([]time.Duration, len(ids))
	err = rd.SampleGroups(0, func(g *wire.SampleGroup) error {
		for i, run := range runs {
			start := time.Now()
			err := run.ObserveGroup(g.Band, g.Samples)
			took[i] += time.Since(start)
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for i, run := range runs {
		sp := t.begin("experiments.SampleRun.Finalize", root)
		_, err := run.Finalize()
		sp.end()
		if err != nil {
			return err
		}
		acc["snr."+ids[i]+"_s"] += took[i].Seconds() + sp.dur()
		acc["snr.finalize_s"] += sp.dur()
	}
	return nil
}

// censusThresholds are the hearing thresholds the §6 experiments census
// b/g networks at.
var censusThresholds = []float64{0.05, 0.10, 0.25, 0.50}

// handlerCalls is how many requests of the mix the handler timing sends
// straight into meshd's handler.
const handlerCalls = 4000

// traceServing warms each dataset in an in-process meshd, one at a time,
// times the handler per endpoint on requests recorded in memory, then
// serves the mix over loopback HTTP to price the transport.
func traceServing(ctx context.Context, t *tracer, names, paths []string, traced []*suiteRun, seed uint64, r *recorder) error {
	t.run++
	srv := meshd.New(meshd.Config{})
	defer srv.Shutdown(context.Background())
	warm, render := 0.0, 0.0
	for i, name := range names {
		sp := t.begin("meshd.warm", nil)
		if err := srv.RegisterPath(name, paths[i]); err != nil {
			return err
		}
		for {
			st, err := srv.Status(name)
			if err != nil {
				return err
			}
			if st.State == meshd.StateFailed {
				return fmt.Errorf("warm of %s failed: %s", name, st.Error)
			}
			if st.State == meshd.StateReady {
				break
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(2 * time.Millisecond):
			}
		}
		sp.end()
		snap, err := srv.Snapshot(name)
		if err != nil {
			return err
		}
		warm += sp.dur()
		render += sp.dur() - snap.WarmDuration.Seconds()
		if formatAll(snap.Results) != traced[i].text {
			r.op(fmt.Errorf("meshd %s: snapshot results differ from the traced suite's", name))
		} else {
			r.op(nil)
		}
	}
	r.stat("meshd.warm_s", warm, 1)
	r.stat("meshd.snapshot_render_s", render, 1)

	h := srv.Handler()
	ids := meshlab.ExperimentIDs()
	m := &mix{seed: seed, ids: ids}
	for _, name := range names {
		ds, err := fetchTarget(name, ids, func(path string) ([]byte, string, error) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
			if rec.Code != http.StatusOK {
				return nil, "", &statusError{path, rec.Code}
			}
			return rec.Body.Bytes(), rec.Header().Get("ETag"), nil
		})
		if err != nil {
			return err
		}
		m.datasets = append(m.datasets, ds)
	}
	var all []time.Duration
	kinds := map[string][]time.Duration{}
	for i := range handlerCalls {
		q := m.query(i)
		req := httptest.NewRequest(http.MethodGet, "/v1/datasets/"+q.ds.name+"/"+m.path(q), nil)
		if q.inm {
			req.Header.Set("If-None-Match", q.ds.etag)
		}
		rec := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rec, req)
		d := time.Since(start)
		all = append(all, d)
		kind := endpointNames[q.ep]
		if rec.Code == http.StatusNotModified {
			kind = "304"
		}
		kinds[kind] = append(kinds[kind], d)
		r.op(checkRecorded(rec, q))
	}
	us := func(ds []time.Duration) float64 {
		slices.Sort(ds)
		return float64(percentile(ds, 0.5)) / float64(time.Microsecond)
	}
	for _, k := range []string{"report", "sec4", "experiment", "networks", "304"} {
		r.stat("meshd.handler_"+k+"_us", us(kinds[k]), len(kinds[k]))
	}
	handlerP50 := us(all)

	ts := httptest.NewServer(h)
	defer ts.Close()
	c := newClient(ts.URL)
	defer c.close()
	m2 := &mix{seed: splitmix(seed ^ 5), datasets: m.datasets, ids: ids}
	s := c.run(ctx, m2, queryRate, int(2*queryRate))
	sum := summarize(s)
	account(r, sum)
	r.stat("meshd.transport_us", float64(sum.p50)/float64(time.Microsecond)-handlerP50, sum.sent)
	_, high := srv.PoolStats()
	r.stat("meshd.pool_high", float64(high), 1)
	n503 := 0
	for _, o := range s {
		var se *statusError
		if errors.As(o.err, &se) && se.code == http.StatusServiceUnavailable {
			n503++
		}
	}
	r.stat("meshd.status_503_count", float64(n503), 1)
	r.stat("loadgen.late_p99_ms", ms(sum.lateP99), sum.sent)
	r.stat("loadgen.sent", float64(sum.sent), 1)
	return nil
}

// checkRecorded applies the generator's answer check to a recorded
// handler response.
func checkRecorded(rec *httptest.ResponseRecorder, q query) error {
	switch {
	case rec.Code == http.StatusNotModified && q.inm:
		return nil
	case rec.Code != http.StatusOK:
		return &statusError{"handler", rec.Code}
	case !bytes.Equal(rec.Body.Bytes(), q.want()):
		return fmt.Errorf("handler: answer differs from the first one")
	}
	return nil
}
