package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"meshlab"
)

// workload is one set of inputs. Both workloads run the batch CLIs and
// meshd over their datasets, so every end-to-end metric has a value on
// each; they differ in scale, which decides which layers dominate.
//
// The datasets are the built-in scenarios at their own seeds, the ones
// the checked-in goldens pin. Generation seeds change the work itself:
// at reference scale five seeds gave 1.30M to 2.21M probe sets, a spread
// no regression bound survives. So the benchmark seed drives what the
// benchmark generates instead: the order of the CLI invocations and the
// serving request stream.
type workload struct {
	name string
	// datasets lists the scenarios meshreport and meshanalyze -sec4 run
	// over, meshd serves, and each warm round re-registers.
	datasets []string
	// fullCheck reports whether every experiment answer is compared with
	// a materialized `meshanalyze -data` run. At reference scale that run
	// costs 9 s and 1.2 GB, so there only the §4 answers are compared,
	// with -sec4; the report comparison covers the rest, since both
	// render the same results.
	fullCheck bool
	// minRounds is the fewest batch rounds a run takes.
	minRounds int
}

// Shares of a run's seconds: the batch rounds (whole rounds, at least
// minRounds), the warm rounds (whole rounds, at least one) and the query
// load. Set-up lasts as long as it takes.
const (
	batchShare = 0.35
	warmShare  = 0.25
	loadShare  = 0.2
)

var workloads = []workload{
	{
		// Reference scale: §4 chunked cores, network decode and the
		// largest network's routing sweep carry the batch time; meshd's
		// warm streams the whole file and it then holds a
		// reference-sized snapshot.
		name:      "reference",
		datasets:  []string{"reference"},
		minRounds: 2,
	},
	{
		// The five small built-ins: per-process fixed cost (the ablation
		// fleets built in Finalize) dominates the CLIs, and every answer
		// is a small pre-rendered one.
		name:      "scenarios",
		datasets:  []string{"quick", "dense-urban", "sparse-rural", "high-churn", "mixed-band-steering"},
		fullCheck: true,
		minRounds: 4,
	},
}

// setupReps is how many times a run synthesizes its datasets; setup_s
// is the median.
const setupReps = 3

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// env locates a run's inputs and outputs.
type env struct {
	root string // checkout root
	bin  string // the programs under test
	work string // datasets and CLI outputs of this run
}

func (e *env) prog(name string) string     { return filepath.Join(e.bin, name) }
func (e *env) dataPath(scen string) string { return filepath.Join(e.work, scen+".bin") }

// order returns a seeded permutation of 0..n-1; salt tells rounds apart.
func order(n int, seed, salt uint64) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	x := splitmix(seed ^ splitmix(salt))
	for i := n - 1; i > 0; i-- {
		x = splitmix(x)
		j := int(x % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// runWorkload measures every end-to-end metric of w: set-up, batch
// rounds, then serving. Set-up or infrastructure failures abort the run;
// wrong outputs and failed requests are counted and the run goes on.
func runWorkload(ctx context.Context, e *env, w *workload, seed uint64, seconds float64) (*recorder, error) {
	r := newRecorder()
	if err := setup(ctx, e, w, seed, r); err != nil {
		return nil, err
	}
	outs, err := batch(ctx, e, w, seed, seconds, r)
	if err != nil {
		return nil, err
	}
	if err := serve(ctx, e, w, seed, seconds, outs, r); err != nil {
		return nil, err
	}
	return r, nil
}

// setup synthesizes the workload's datasets with meshgen, setupReps
// times over, and checks that every repetition wrote the same bytes.
func setup(ctx context.Context, e *env, w *workload, seed uint64, r *recorder) error {
	names := w.datasets
	sums := make(map[string][sha256.Size]byte)
	var walls, rss []float64
	for rep := range setupReps {
		var wall time.Duration
		peak := 0.0
		for _, k := range order(len(names), seed, uint64(rep)) {
			name, path := names[k], e.dataPath(names[k])
			p, err := runCLI(ctx, e.prog(cmdMeshgen), "-scenario", name, "-flat-samples", "-out", path)
			if err != nil {
				r.op(err)
				return err
			}
			wall += p.wall
			peak = max(peak, p.rssMB)
			sum, err := fileSum(path)
			if err == nil && rep > 0 && sum != sums[name] {
				err = fmt.Errorf("meshgen -scenario %s: repetition %d wrote different bytes", name, rep+1)
			}
			sums[name] = sum
			r.op(err)
		}
		walls = append(walls, wall.Seconds())
		rss = append(rss, peak)
	}
	r.set("setup_s", walls)
	r.set("setup_rss_mb", rss)
	return nil
}

func fileSum(path string) ([sha256.Size]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return [sha256.Size]byte{}, err
	}
	return [sha256.Size]byte(h.Sum(nil)), nil
}

// cliOutputs are a dataset's CLI answers, the references meshd's answers
// are checked against.
type cliOutputs struct {
	report []byte // meshreport -data
	sec4   []byte // meshanalyze -data -sec4
	all    []byte // meshanalyze -data (every experiment), when fullCheck
}

// batch runs rounds of meshreport and meshanalyze -sec4 over every
// dataset, in a seeded order per round, until the batch share of the
// run's seconds is spent and at least minRounds rounds ran. A round's
// time is the sum over its datasets; each metric is the median round.
// Every round's outputs must equal the first round's.
func batch(ctx context.Context, e *env, w *workload, seed uint64, seconds float64, r *recorder) (map[string]*cliOutputs, error) {
	outs := make(map[string]*cliOutputs)
	var reportS, reportRSS, sec4S, sec4RSS []float64
	start := time.Now()
	for round := 0; round < w.minRounds || time.Since(start).Seconds() < batchShare*seconds; round++ {
		var rep, s4 time.Duration
		var repRSS, s4RSS float64
		for _, k := range order(2*len(w.datasets), seed, uint64(1000+round)) {
			name := w.datasets[k/2]
			o := outs[name]
			if o == nil {
				o = &cliOutputs{}
				outs[name] = o
			}
			if k%2 == 1 {
				p, err := runCLI(ctx, e.prog(cmdMeshanalyze), "-data", e.dataPath(name), "-sec4")
				if err != nil {
					r.op(err)
					return nil, err
				}
				s4 += p.wall
				s4RSS = max(s4RSS, p.rssMB)
				if o.sec4 == nil {
					o.sec4 = p.stdout
				} else if !bytes.Equal(p.stdout, o.sec4) {
					err = fmt.Errorf("meshanalyze -sec4 %s: round %d output differs from round 1", name, round+1)
				}
				r.op(err)
				continue
			}
			md, p, err := runReport(ctx, e, name)
			if err != nil {
				r.op(err)
				return nil, err
			}
			rep += p.wall
			repRSS = max(repRSS, p.rssMB)
			if o.report == nil {
				o.report = md
			} else if !equalExcept(md, o.report, wallTimeLine) {
				err = fmt.Errorf("meshreport %s: round %d report differs from round 1", name, round+1)
			}
			r.op(err)
		}
		reportS = append(reportS, rep.Seconds())
		reportRSS = append(reportRSS, repRSS)
		sec4S = append(sec4S, s4.Seconds())
		sec4RSS = append(sec4RSS, s4RSS)
	}
	r.set("report_s", reportS)
	r.set("report_rss_mb", reportRSS)
	r.set("sec4_s", sec4S)
	r.set("sec4_rss_mb", sec4RSS)

	// Untimed: the materialized every-experiment runs.
	if w.fullCheck {
		for _, name := range w.datasets {
			p, err := runCLI(ctx, e.prog(cmdMeshanalyze), "-data", e.dataPath(name))
			r.op(err)
			if err != nil {
				return nil, err
			}
			outs[name].all = p.stdout
		}
	}
	return outs, nil
}

// runReport runs meshreport over a dataset and returns the report.
func runReport(ctx context.Context, e *env, name string) ([]byte, procRun, error) {
	out := filepath.Join(e.work, name+".md")
	p, err := runCLI(ctx, e.prog(cmdMeshreport), "-data", e.dataPath(name), "-out", out)
	if err != nil {
		return nil, p, err
	}
	md, err := os.ReadFile(out)
	return md, p, err
}

// serve starts meshd and registers the datasets one at a time, then
// re-registers them while the warm share of the run lasts; checks the
// answers against the CLIs'; and serves the query mix for the load
// share of the run. meshd must then drain and exit 0 on SIGTERM.
func serve(ctx context.Context, e *env, w *workload, seed uint64, seconds float64, outs map[string]*cliOutputs, r *recorder) error {
	d, err := startMeshd(ctx, e.prog(cmdMeshd))
	r.op(err)
	if err != nil {
		return err
	}
	defer d.stop()
	ctl := newClient(d.base)
	defer ctl.close()
	var warms []float64
	start := time.Now()
	for len(warms) == 0 || time.Since(start).Seconds() < warmShare*seconds {
		warm, err := warmRound(ctx, ctl, e, w, r)
		if err != nil {
			return err
		}
		warms = append(warms, warm)
	}

	ids := meshlab.ExperimentIDs()
	m := &mix{seed: seed, ids: ids}
	for _, name := range w.datasets {
		ds, err := fetchTarget(name, ids, func(path string) ([]byte, string, error) {
			return ctl.get(ctx, path)
		})
		r.op(err)
		if err != nil {
			return err
		}
		checkAgainstCLI(ds, outs[name], r)
		m.datasets = append(m.datasets, ds)
	}

	gen := newClient(d.base)
	defer gen.close()
	// Warm-up: connections open and the server's lazy state settles
	// before anything is timed.
	account(r, summarize(gen.run(ctx, &mix{seed: splitmix(seed), datasets: m.datasets, ids: ids}, queryRate, int(queryRate))))
	load := summarize(gen.run(ctx, m, queryRate, int(queryRate*loadShare*seconds)))
	account(r, load)

	rss, err := d.peakRSSMB()
	if err != nil {
		return err
	}
	err = d.stop()
	r.op(err)
	if err != nil {
		return err
	}

	r.set("warm_s", warms)
	r.stat("query_p50_ms", ms(load.p50), load.sent)
	r.stat("meshd_rss_mb", rss, 1)
	// The tail, recorded but not gated: on a shared two-core machine a
	// sub-millisecond query's p99 is set by millisecond stalls that come
	// and go with the neighbours, and it swings tenfold run to run.
	r.extra["query_p99_ms"] = ms(load.p99)
	r.extra["query_p99_all_ms"] = ms(load.p99All)
	r.extra["query_tail_q"] = load.tailQ
	r.extra["query_tail_ms"] = ms(load.tail)
	r.extra["slo_miss_frac"] = float64(load.sloMiss) / float64(load.sent)
	r.extra["loadgen_late_p99_ms"] = ms(load.lateP99)
	r.extra["failed_frac"] = float64(r.failed) / float64(r.attempted)
	return nil
}

// warmRound registers each dataset in turn, or re-registers it once it
// is served, and returns the total time until each one's new snapshot
// was served.
func warmRound(ctx context.Context, c *client, e *env, w *workload, r *recorder) (float64, error) {
	total := 0.0
	for _, name := range w.datasets {
		dur, err := register(ctx, c, name, e.dataPath(name))
		r.op(err)
		if err != nil {
			return 0, err
		}
		total += dur.Seconds()
	}
	return total, nil
}

// account adds a load window's requests to the run's operation counts.
func account(r *recorder, s loadSummary) {
	r.attempted += s.sent
	r.failed += s.failed
	if s.firstErr != nil && len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf("%d requests failed, first: %v", s.failed, s.firstErr))
	}
}

// status is the part of meshd's dataset status document polled here.
type status struct {
	State      string `json:"state"`
	Refreshing bool   `json:"refreshing"`
	Error      string `json:"error"`
}

// awaitWarm polls name's status until its warm has finished: ready and
// not refreshing. A failed warm, or one still going after ten minutes,
// is an error.
func awaitWarm(ctx context.Context, c *client, name string) error {
	deadline := time.Now().Add(10 * time.Minute)
	for {
		body, _, err := c.get(ctx, "/v1/datasets/"+name)
		if err != nil {
			return err
		}
		var st status
		if err := json.Unmarshal(body, &st); err != nil {
			return fmt.Errorf("status of %s: %w", name, err)
		}
		switch {
		case st.State == "failed":
			return fmt.Errorf("warm of %s failed: %s", name, st.Error)
		case st.State == "ready" && !st.Refreshing:
			if st.Error != "" {
				return fmt.Errorf("warm of %s: %s", name, st.Error)
			}
			return nil
		case time.Now().After(deadline):
			return fmt.Errorf("warm of %s still %s after ten minutes", name, st.State)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// register registers a dataset by path, or re-registers a served one,
// and returns the time from the request to the new snapshot being
// served.
func register(ctx context.Context, c *client, name, path string) (time.Duration, error) {
	body, err := json.Marshal(map[string]string{"name": name, "path": path})
	if err != nil {
		return 0, err
	}
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/datasets", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drained, the connection is reused
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return 0, fmt.Errorf("register %s: status %d", name, resp.StatusCode)
	}
	if err := awaitWarm(ctx, c, name); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// fetchTarget reads every answer the mix can ask of a dataset, once,
// as the bodies later answers must repeat. get returns a path's 200 body
// and its ETag.
func fetchTarget(name string, ids []string, get func(path string) ([]byte, string, error)) (*target, error) {
	ds := &target{name: name, experiments: make([][]byte, len(ids))}
	prefix := "/v1/datasets/" + name + "/"
	var err error
	if ds.report, ds.etag, err = get(prefix + "report"); err != nil {
		return nil, err
	}
	if ds.etag == "" {
		return nil, errors.New("report of " + name + " carries no ETag")
	}
	if ds.sec4, _, err = get(prefix + "sec4"); err != nil {
		return nil, err
	}
	for i, id := range ids {
		if ds.experiments[i], _, err = get(prefix + "experiments/" + id); err != nil {
			return nil, err
		}
	}
	if ds.networks, _, err = get(prefix + networksQuery); err != nil {
		return nil, err
	}
	if ds.expList, _, err = get(prefix + expListQuery); err != nil {
		return nil, err
	}
	return ds, nil
}

// checkAgainstCLI compares a served dataset's answers with the CLIs'
// over the same file: the report up to its dataset and wall-time lines,
// the §4 section exactly, the §4 experiments against -sec4, and, when
// the materialized run was made, every experiment.
func checkAgainstCLI(ds *target, o *cliOutputs, r *recorder) {
	check := func(ok bool, what string) {
		var err error
		if !ok {
			err = fmt.Errorf("meshd %s: %s differs from the CLI's", ds.name, what)
		}
		r.op(err)
	}
	check(equalExcept(ds.report, o.report, "- dataset:", wallTimeLine), "report")
	check(bytes.Equal(ds.sec4, o.sec4), "/sec4")
	var sampleOnly, all []byte
	for i, id := range meshlab.ExperimentIDs() {
		all = append(all, ds.experiments[i]...)
		if meshlab.SampleOnlyExperiment(id) {
			sampleOnly = append(sampleOnly, ds.experiments[i]...)
		}
	}
	check(bytes.Equal(sampleOnly, o.sec4), "the §4 /experiments answers")
	if o.all != nil {
		check(bytes.Equal(all, o.all), "the /experiments answers")
	}
}
