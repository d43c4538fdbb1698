package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"

	"meshlab"
)

// metricDef declares one reported metric as BENCHMARK.json lists it.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the numbers a user of the CLIs and of meshd sees; every
// untraced run of every workload reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"setup_rss_mb", "MB", "lower"},
	{"report_s", "s", "lower"},
	{"report_rss_mb", "MB", "lower"},
	{"sec4_s", "s", "lower"},
	{"sec4_rss_mb", "MB", "lower"},
	{"query_p50_ms", "ms", "lower"},
	{"warm_s", "s", "lower"},
	{"meshd_rss_mb", "MB", "lower"},
}

// perLayer are the traced run's numbers, one layer each; every traced run
// of every workload reports all of them.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"wire.decode_s", "s", "lower"},
		{"wire.decode_mb", "MB", "lower"},
		{"wire.clients_s", "s", "lower"},
		{"wire.samplegroups_s", "s", "lower"},
		{"wire.sample_groups", "count", "lower"},
		{"experiments.observe_wait_s", "s", "lower"},
		{"experiments.sec4_feed_s", "s", "lower"},
		{"experiments.max_in_flight", "count", "lower"},
		{"experiments.alloc_mb", "MB", "lower"},
		{"experiments.gc_cycles", "count", "lower"},
		{"experiments.finalize_cold_s", "s", "lower"},
		{"experiments.finalize_s", "s", "lower"},
		{"routing.matrices_s", "s", "lower"},
		{"routing.improvements_s", "s", "lower"},
		{"routing.improvements_max_net_s", "s", "lower"},
		{"hidden.census_s", "s", "lower"},
	}
	for _, id := range meshlab.SampleExperimentIDs() {
		defs = append(defs, metricDef{"snr." + id + "_s", "s", "lower"})
	}
	return append(defs, []metricDef{
		{"snr.finalize_s", "s", "lower"},
		{"mobility.analyze_s", "s", "lower"},
		{"report.render_s", "s", "lower"},
		{"synth.generate_s", "s", "lower"},
		{"synth.alloc_mb", "MB", "lower"},
		{"wire.encode_s", "s", "lower"},
		{"meshd.warm_s", "s", "lower"},
		{"meshd.snapshot_render_s", "s", "lower"},
		{"meshd.handler_report_us", "us", "lower"},
		{"meshd.handler_sec4_us", "us", "lower"},
		{"meshd.handler_experiment_us", "us", "lower"},
		{"meshd.handler_networks_us", "us", "lower"},
		{"meshd.handler_304_us", "us", "lower"},
		{"meshd.transport_us", "us", "lower"},
		{"meshd.pool_high", "count", "lower"},
		{"meshd.status_503_count", "count", "lower"},
		{"loadgen.late_p99_ms", "ms", "lower"},
		{"loadgen.sent", "count", "higher"},
		{"trace.overhead_frac", "ratio", "lower"},
		{"trace.coverage_frac", "ratio", "higher"},
	}...)
}()

// sample is one measured metric: its value (a median over the run's
// rounds for timings), the quartiles of what it summarizes and how many
// observations that was.
type sample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// stamp records where and from what a run was measured.
type stamp struct {
	Host       string `json:"host"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

// runRecord is everything one invocation measured; -out appends it to a
// bench file and -compare reads bench files.
type runRecord struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Trace     bool               `json:"trace"`
	Seconds   int                `json:"seconds"`
	Stamp     stamp              `json:"stamp"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]sample  `json:"metrics"`
	Extra     map[string]float64 `json:"extra,omitempty"`
}

// benchFile is the on-disk form of a set of runs.
type benchFile struct {
	Runs []runRecord `json:"runs"`
}

// recorder collects one run's values, operation counts and failures.
type recorder struct {
	values    map[string]sample
	extra     map[string]float64
	attempted int
	failures  []string
	failed    int
}

func newRecorder() *recorder {
	return &recorder{values: map[string]sample{}, extra: map[string]float64{}}
}

// set records a metric summarizing xs by their median.
func (r *recorder) set(name string, xs []float64) {
	q1, med, q3 := quartiles(xs)
	r.values[name] = sample{Value: med, Q1: q1, Q3: q3, N: len(xs)}
}

// stat records a metric that is a single value: one observation, or
// one statistic (a latency percentile, say) of n observations.
func (r *recorder) stat(name string, v float64, n int) {
	r.values[name] = sample{Value: v, Q1: v, Q3: v, N: n}
}

// op counts an attempted operation and, when err is non-nil, its failure.
func (r *recorder) op(err error) {
	r.attempted++
	if err != nil {
		r.fail(err.Error())
	}
}

// fail counts a failed operation. Only the first few descriptions are
// kept: a broken server fails thousands of requests the same way.
func (r *recorder) fail(msg string) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, msg)
	}
}

// finish assembles the run record from the values of the declared
// metrics, refusing a run that left one of them unmeasured or not finite.
func (r *recorder) finish(defs []metricDef, rec *runRecord) error {
	rec.Metrics = make(map[string]sample, len(defs))
	for _, d := range defs {
		s, ok := r.values[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, s.Value)
		}
		s.Unit = d.Unit
		rec.Metrics[d.Name] = s
	}
	rec.Extra = r.extra
	rec.Attempted = r.attempted
	rec.Failed = r.failed
	rec.Failures = r.failures
	rec.Correct = r.failed == 0
	return nil
}

// summaryLine is the one-line result every run ends its output with.
func summaryLine(rec *runRecord, defs []metricDef) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		metrics[d.Name] = value{rec.Metrics[d.Name].Value, d.Unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, metrics})
}

// printTable writes the run's metrics, one per line, for a human reader.
func printTable(w io.Writer, rec *runRecord, defs []metricDef) {
	fmt.Fprintf(w, "%s seed %d (trace %t): %d/%d operations failed\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Failed, rec.Attempted)
	for _, d := range defs {
		s := rec.Metrics[d.Name]
		fmt.Fprintf(w, "  %-34s %12.4f %-5s  q1 %.4f  q3 %.4f  n %d\n", d.Name, s.Value, d.Unit, s.Q1, s.Q3, s.N)
	}
	for _, f := range rec.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

// appendRun adds rec to the bench file at path, creating it if needed.
func appendRun(path string, rec *runRecord) error {
	var bf benchFile
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &bf); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	bf.Runs = append(bf.Runs, *rec)
	raw, err := json.MarshalIndent(bf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// readBench loads a bench file.
func readBench(path string) (*benchFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// takeStamp describes this machine and the tree under test at root.
func takeStamp(root string) stamp {
	st := stamp{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     "unknown",
	}
	st.Host, _ = os.Hostname()
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				st.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				st.Commit = s.Value
			}
		}
	}
	if st.Commit == "unknown" {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			st.Commit = strings.TrimSpace(string(out))
		}
	}
	return st
}
