package experiments

import (
	"strconv"
	"strings"
	"sync"
	"testing"

	"meshlab/internal/dataset"
	"meshlab/internal/leakcheck"
	"meshlab/internal/synth"
)

// TestMain fails the package if a test leaves a pipeline goroutine — a
// collector or a prepare worker — running.
func TestMain(m *testing.M) { leakcheck.Main(m) }

var fleetOnce sync.Once
var testFleet *dataset.Fleet

func quickFleet(t testing.TB) *dataset.Fleet {
	fleetOnce.Do(func() {
		f, err := synth.Generate(synth.Quick(2024))
		if err != nil {
			panic(err)
		}
		testFleet = f
	})
	if testFleet == nil {
		t.Fatal("no fleet")
	}
	return testFleet
}

// runFleet drives a StreamContext over an in-memory fleet the way
// meshlab.AnalyzeFleet does.
func runFleet(f *dataset.Fleet, workers int, ids ...string) ([]*Result, error) {
	sc := NewStreamContext(workers, ids...)
	for _, nd := range f.Networks {
		if sc.Observe(nd) != nil {
			break
		}
	}
	sc.SetClients(f.Clients)
	return sc.Finalize()
}

var (
	suiteOnce    sync.Once
	suiteResults []*Result
	suiteErr     error
)

// fullSuite returns one cached full-suite run over the quick fleet.
func fullSuite(t *testing.T) []*Result {
	t.Helper()
	suiteOnce.Do(func() { suiteResults, suiteErr = runFleet(quickFleet(t), 0) })
	if suiteErr != nil {
		t.Fatal(suiteErr)
	}
	return suiteResults
}

// runExp returns one experiment's table from the cached full-suite run.
func runExp(t *testing.T, id string) *Result {
	t.Helper()
	var res *Result
	for _, r := range fullSuite(t) {
		if r.ID == id {
			res = r
		}
	}
	if res == nil {
		t.Fatalf("%s: not in the suite", id)
	}
	if res.Title == "" {
		t.Fatalf("%s: missing metadata: %+v", id, res)
	}
	if len(res.Rows) == 0 {
		t.Fatalf("%s: no rows", id)
	}
	return res
}

func TestIDsComplete(t *testing.T) {
	want := []string{
		"fig3.1",
		"fig4.1", "fig4.2", "fig4.3", "fig4.4", "fig4.5", "fig4.6", "tab4.1",
		"fig5.1", "fig5.2", "fig5.3", "fig5.4", "fig5.5",
		"fig6.1", "fig6.2", "sec6.3", "abl6.t",
		"fig7.1", "fig7.2", "fig7.3", "fig7.4", "fig7.5",
		"abl4.off", "abl4.burst", "abl5.sym",
		"ext4.topk", "ext5.ett", "ext6.mac",
	}
	got := IDs()
	have := map[string]bool{}
	for _, id := range got {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("missing experiment %s", id)
		}
	}
}

// TestUnknownExperiment: an unknown ID is a sticky error from
// construction, returned by whichever entry point the driver reaches
// first — the walk's Observe, the sample walk's ObserveSampleGroup, or
// Finalize.
func TestUnknownExperiment(t *testing.T) {
	f := quickFleet(t)
	const want = `unknown experiment "fig9.9" (known: fig3.1, `
	if _, err := runFleet(f, 1, "fig3.1", "fig9.9"); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("fleet run: got %v, want %q", err, want)
	}
	sc := NewStreamContext(1, "fig9.9")
	if err := sc.Observe(f.Networks[0]); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Observe: got %v", err)
	}
	if _, err := sc.Finalize(); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Finalize: got %v", err)
	}
	sc = NewStreamContext(1, "fig9.9")
	sc.DeferSamples()
	if err := sc.ObserveSampleGroup("bg", nil); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("ObserveSampleGroup: got %v", err)
	}
	if _, err := sc.Finalize(); err == nil {
		t.Fatal("Finalize after a sticky error should fail")
	}
}

func TestRunAll(t *testing.T) {
	results := fullSuite(t)
	if len(results) != len(IDs()) {
		t.Fatalf("got %d results for %d experiments", len(results), len(IDs()))
	}
	for i, r := range results {
		if r.ID != IDs()[i] {
			t.Fatalf("result %d is %s, want paper order (%s)", i, r.ID, IDs()[i])
		}
		out := r.Format()
		if !strings.Contains(out, r.ID) {
			t.Fatalf("formatted output missing ID: %q", out[:60])
		}
	}
}

// cell parses a float table cell.
func cell(t *testing.T, res *Result, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(res.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("%s: row %d col %d %q not a number", res.ID, row, col, res.Rows[row][col])
	}
	return v
}

// findRow returns the first row whose first cells match the given prefix.
func findRow(t *testing.T, res *Result, prefix ...string) []string {
	t.Helper()
outer:
	for _, row := range res.Rows {
		for i, p := range prefix {
			if i >= len(row) || row[i] != p {
				continue outer
			}
		}
		return row
	}
	t.Fatalf("%s: no row with prefix %v", res.ID, prefix)
	return nil
}

func TestFig31Shape(t *testing.T) {
	res := runExp(t, "fig3.1")
	// Probe-set SNR stds are mostly small; network-level spread is much
	// larger (median column is index 4).
	ps := findRow(t, res, "probe-sets")
	nets := findRow(t, res, "networks")
	psMed, _ := strconv.ParseFloat(ps[4], 64)
	netMed, _ := strconv.ParseFloat(nets[4], 64)
	if psMed >= netMed {
		t.Fatalf("probe-set median std %v should be far below network %v", psMed, netMed)
	}
	if psMed > 5 {
		t.Fatalf("probe-set median SNR std %v dB too large", psMed)
	}
}

func TestFig42SpecificityOrdering(t *testing.T) {
	res := runExp(t, "fig4.2")
	need95 := map[string]float64{}
	for i, row := range res.Rows {
		need95[row[0]] = cell(t, res, i, 4)
	}
	if need95["link"] >= need95["global"] {
		t.Fatalf("link rates-needed %v should be below global %v", need95["link"], need95["global"])
	}
	if need95["ap"] > need95["network"] {
		t.Fatalf("ap rates-needed %v should be ≤ network %v", need95["ap"], need95["network"])
	}
}

func TestFig43NNeedsMoreRates(t *testing.T) {
	bg := runExp(t, "fig4.2")
	n := runExp(t, "fig4.3")
	bgLink := findRow(t, bg, "link")
	nLink := findRow(t, n, "link")
	bgV, _ := strconv.ParseFloat(bgLink[4], 64)
	nV, _ := strconv.ParseFloat(nLink[4], 64)
	if nV < bgV {
		t.Fatalf("802.11n link-scope rates-needed %v should be ≥ b/g %v", nV, bgV)
	}
}

func TestFig44LinkBeatsGlobal(t *testing.T) {
	res := runExp(t, "fig4.4")
	var linkExact, globalExact float64
	for i, row := range res.Rows {
		if row[0] == "bg" && row[1] == "link" {
			linkExact = cell(t, res, i, 2)
		}
		if row[0] == "bg" && row[1] == "global" {
			globalExact = cell(t, res, i, 2)
		}
	}
	if linkExact <= globalExact {
		t.Fatalf("bg link exact %v should exceed global %v", linkExact, globalExact)
	}
	if linkExact < 0.6 {
		t.Fatalf("bg link exact %v too low (paper ≈0.9)", linkExact)
	}
}

func TestFig46StrategiesComparable(t *testing.T) {
	res := runExp(t, "fig4.6")
	overall := findRow(t, res, "overall")
	var accs []float64
	for _, cellStr := range overall[1:] {
		v, err := strconv.ParseFloat(cellStr, 64)
		if err != nil {
			t.Fatalf("bad overall cell %q", cellStr)
		}
		accs = append(accs, v)
	}
	min, max := accs[0], accs[0]
	for _, a := range accs {
		if a < min {
			min = a
		}
		if a > max {
			max = a
		}
	}
	if min < 0.4 {
		t.Fatalf("a strategy fell to %v accuracy", min)
	}
	if max-min > 0.15 {
		t.Fatalf("strategies should be comparable; spread %v", max-min)
	}
}

func TestTab41Orderings(t *testing.T) {
	res := runExp(t, "tab4.1")
	upd := map[string]float64{}
	mem := map[string]float64{}
	for i, row := range res.Rows {
		upd[row[0]] = cell(t, res, i, 3)
		mem[row[0]] = cell(t, res, i, 4)
	}
	if !(upd["first"] < upd["subsampled"] && upd["subsampled"] < upd["all"]) {
		t.Fatalf("update ordering violated: %v", upd)
	}
	if !(mem["first"] <= mem["most-recent"] && mem["most-recent"] < mem["all"]) {
		t.Fatalf("memory ordering violated: %v", mem)
	}
}

func TestFig51ETX2BeatsETX1(t *testing.T) {
	res := runExp(t, "fig5.1")
	var etx1Med, etx2Med, etx1None float64
	n1, n2 := 0, 0
	for i, row := range res.Rows {
		med := cell(t, res, i, 5)
		if row[0] == "etx1" {
			etx1Med += med
			etx1None += cell(t, res, i, 4) // frac ≤5%: the paper-comparable small-gain population
			n1++
		} else {
			etx2Med += med
			n2++
		}
	}
	if n1 == 0 || n2 == 0 {
		t.Fatal("missing variants")
	}
	etx1Med /= float64(n1)
	etx2Med /= float64(n2)
	etx1None /= float64(n1)
	if etx2Med <= etx1Med {
		t.Fatalf("ETX2 median improvement %v should exceed ETX1 %v", etx2Med, etx1Med)
	}
	// Paper: ETX1 median improvement 0.05-0.08 and ≥13% no-improvement.
	if etx1Med > 0.3 {
		t.Fatalf("ETX1 median improvement %v too large (paper ≈0.05-0.08)", etx1Med)
	}
	if etx1None < 0.05 {
		t.Fatalf("ETX1 no-improvement fraction %v too small (paper ≥0.13)", etx1None)
	}
}

func TestFig53PathsLengthenWithRate(t *testing.T) {
	res := runExp(t, "fig5.3")
	one1 := findRow(t, res, "1M")
	one48 := findRow(t, res, "48M")
	f1, _ := strconv.ParseFloat(one1[2], 64)
	f48, _ := strconv.ParseFloat(one48[2], 64)
	if f48 >= f1 {
		t.Fatalf("one-hop fraction at 48M (%v) should be below 1M (%v)", f48, f1)
	}
}

func TestFig54Trends(t *testing.T) {
	res := runExp(t, "fig5.4")
	if len(res.Rows) < 2 {
		t.Skip("not enough path-length buckets in the quick fleet")
	}
	// Median improvement at the longest path should exceed the 1-hop
	// median.
	first := cell(t, res, 0, 2)
	last := cell(t, res, len(res.Rows)-1, 2)
	if last < first {
		t.Fatalf("median improvement should grow with path length: %v → %v", first, last)
	}
}

func TestFig61HiddenTriplesRiseWithRate(t *testing.T) {
	res := runExp(t, "fig6.1")
	med := map[string]float64{}
	for i, row := range res.Rows {
		med[row[0]] = cell(t, res, i, 3)
	}
	if med["48M"] <= med["1M"] {
		t.Fatalf("hidden fraction at 48M (%v) should exceed 1M (%v)", med["48M"], med["1M"])
	}
	// DSSS exception: 11M below 6M.
	if med["11M"] > med["6M"] {
		t.Fatalf("11M median %v should not exceed 6M %v (DSSS reception)", med["11M"], med["6M"])
	}
	if med["1M"] < 0.02 {
		t.Fatalf("1M hidden fraction %v suspiciously low (paper ≈0.15)", med["1M"])
	}
}

func TestFig62RangeFalls(t *testing.T) {
	res := runExp(t, "fig6.2")
	mean := map[string]float64{}
	for i, row := range res.Rows {
		mean[row[0]] = cell(t, res, i, 2)
	}
	if mean["48M"] >= mean["6M"] {
		t.Fatalf("range ratio at 48M (%v) should be below 6M (%v)", mean["48M"], mean["6M"])
	}
	if mean["1M"] != 1 {
		t.Fatalf("1M range ratio must be 1 by definition, got %v", mean["1M"])
	}
}

func TestSec63IndoorExceedsOutdoor(t *testing.T) {
	res := runExp(t, "sec6.3")
	in := findRow(t, res, "indoor")
	out := findRow(t, res, "outdoor")
	inMed, _ := strconv.ParseFloat(in[2], 64)
	outMed, _ := strconv.ParseFloat(out[2], 64)
	if inMed < outMed {
		t.Fatalf("indoor hidden fraction %v should be ≥ outdoor %v", inMed, outMed)
	}
}

func TestFig71MajorityOneAP(t *testing.T) {
	res := runExp(t, "fig7.1")
	one := findRow(t, res, "1")
	oneN, _ := strconv.ParseFloat(one[1], 64)
	total := 0.0
	for i := range res.Rows {
		total += cell(t, res, i, 1)
	}
	if oneN*2 < total {
		t.Fatalf("one-AP clients %v of %v should be the majority", oneN, total)
	}
}

func TestFig73Fig74EnvSplit(t *testing.T) {
	prev := runExp(t, "fig7.3")
	pers := runExp(t, "fig7.4")
	for _, res := range []*Result{prev, pers} {
		in := findRow(t, res, "indoor")
		out := findRow(t, res, "outdoor")
		inMed, err1 := strconv.ParseFloat(in[3], 64)
		outMed, err2 := strconv.ParseFloat(out[3], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: missing env medians", res.ID)
		}
		if inMed >= outMed {
			t.Fatalf("%s: indoor median %v should be below outdoor %v", res.ID, inMed, outMed)
		}
	}
}

func TestFig75QuadrantStructure(t *testing.T) {
	res := runExp(t, "fig7.5")
	var lh, total float64
	for i, row := range res.Rows {
		v := cell(t, res, i, 1)
		total += v
		if strings.HasPrefix(row[0], "low, high") {
			lh = v
		}
	}
	if total == 0 {
		t.Fatal("no clients")
	}
	if lh/total > 0.2 {
		t.Fatalf("slow-roamer quadrant holds %v of clients; paper says it is nearly empty", lh/total)
	}
}

func TestLinkSeriesHelper(t *testing.T) {
	f := quickFleet(t)
	series := linkSeries(f.Networks[0])
	if len(series) == 0 {
		t.Fatal("no link series")
	}
	for k, xs := range series {
		if len(xs) == 0 {
			t.Fatalf("empty series for %s", k)
		}
	}
}

func TestExt5ETTGainNonNegative(t *testing.T) {
	res := runExp(t, "ext5.ett")
	med := findRow(t, res, "median airtime gain of ETT over best fixed-rate ETX")
	v, err := strconv.ParseFloat(med[1], 64)
	if err != nil {
		t.Fatalf("bad gain cell %q", med[1])
	}
	if v < 0 {
		t.Fatalf("ETT gain %v negative", v)
	}
}

func TestExt6MacHiddenPenaltyExceedsOpen(t *testing.T) {
	res := runExp(t, "ext6.mac")
	hiddenRow := findRow(t, res, "hidden (A,C cannot hear)")
	openRow := findRow(t, res, "non-hidden (A,C hear)")
	h, err1 := strconv.ParseFloat(hiddenRow[2], 64)
	o, err2 := strconv.ParseFloat(openRow[2], 64)
	if err1 != nil || err2 != nil {
		t.Skip("not enough sampled triples in the quick fleet")
	}
	if h <= o {
		t.Fatalf("hidden triples' mean penalty %v should exceed non-hidden %v", h, o)
	}
	if h < 0.3 {
		t.Fatalf("hidden-triple penalty %v implausibly small", h)
	}
}

func TestExt4TopKShape(t *testing.T) {
	res := runExp(t, "ext4.topk")
	// Hit fraction must be non-decreasing in k within each band, and
	// 802.11n should save more probing at the same k.
	var prevBand string
	prevHit := -1.0
	for i, row := range res.Rows {
		hit := cell(t, res, i, 2)
		if row[0] != prevBand {
			prevBand, prevHit = row[0], -1
		}
		if hit < prevHit {
			t.Fatalf("hit fraction decreased within band %s", row[0])
		}
		prevHit = hit
	}
	bgK3 := findRow(t, res, "bg", "3")
	nK3 := findRow(t, res, "n", "3")
	bgSave, _ := strconv.ParseFloat(bgK3[3], 64)
	nSave, _ := strconv.ParseFloat(nK3[3], 64)
	if nSave <= bgSave {
		t.Fatalf("802.11n probing savings %v should exceed b/g %v at k=3", nSave, bgSave)
	}
}

func TestFig41MostSNRsChurn(t *testing.T) {
	res := runExp(t, "fig4.1")
	// Rows are (#rates ever optimal, #SNR values); SNRs with a single
	// always-optimal rate should be a minority (Figure 4.1's message).
	single, total := 0.0, 0.0
	for i, row := range res.Rows {
		n := cell(t, res, i, 1)
		total += n
		if row[0] == "1" {
			single = n
		}
	}
	if single > total/2 {
		t.Fatalf("%v of %v SNRs have a unique optimal rate; the global table would look viable", single, total)
	}
}

func TestFig45MedianRisesWithSNR(t *testing.T) {
	res := runExp(t, "fig4.5")
	// For each rate present, the median at its highest listed SNR must
	// be at least the median at its lowest listed SNR.
	firstMed := map[string]float64{}
	lastMed := map[string]float64{}
	for i, row := range res.Rows {
		rate := row[0]
		med := cell(t, res, i, 2)
		if _, ok := firstMed[rate]; !ok {
			firstMed[rate] = med
		}
		lastMed[rate] = med
	}
	for rate := range firstMed {
		if lastMed[rate] < firstMed[rate] {
			t.Fatalf("%s: median tput fell from %v to %v across SNR", rate, firstMed[rate], lastMed[rate])
		}
	}
}

func TestFig52AsymmetryModerate(t *testing.T) {
	res := runExp(t, "fig5.2")
	for i, row := range res.Rows {
		med := cell(t, res, i, 3)
		if med < 0.5 || med > 2 {
			t.Fatalf("%s: median asymmetry ratio %v implausible", row[0], med)
		}
	}
}

func TestFig55NoStrongSizeTrend(t *testing.T) {
	res := runExp(t, "fig5.5")
	if len(res.Notes) == 0 {
		t.Fatal("fig5.5 should report the size correlation")
	}
	// The note carries the Spearman value; just assert rows exist and
	// means are sane.
	for i := range res.Rows {
		mean := cell(t, res, i, 2)
		if mean < 0 || mean > 2 {
			t.Fatalf("network-mean improvement %v implausible", mean)
		}
	}
}

func TestFig72ConnectionMix(t *testing.T) {
	res := runExp(t, "fig7.2")
	full := findRow(t, res, "frac full duration")
	v, err := strconv.ParseFloat(full[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	if v < 0.35 || v > 0.85 {
		t.Fatalf("full-duration fraction %v, paper reports ≈0.6", v)
	}
}

func TestFormatRowWiderThanHeader(t *testing.T) {
	// Regression: a row with more cells than the header used to panic with
	// index-out-of-range inside Format's render pass.
	r := &Result{
		ID: "x", Title: "wide rows",
		Header: []string{"a", "b"},
		Rows: [][]string{
			{"1", "2", "extra", "cells"},
			{"3"},
		},
		Notes: []string{"n"},
	}
	out := r.Format()
	for _, want := range []string{"extra", "cells", "note: n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("formatted output missing %q:\n%s", want, out)
		}
	}
}

// TestRunAllParallelMatchesSerial is the determinism contract of the
// fleet loop: a run over a 4-worker pipeline must produce byte-identical
// tables to a 1-worker run on the same fleet. Run with -race to also
// exercise the pipeline under concurrency.
func TestRunAllParallelMatchesSerial(t *testing.T) {
	fleet := quickFleet(t)
	serial, err := runFleet(fleet, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := runFleet(fleet, 4)
	if err != nil {
		t.Fatal(err)
	}
	compareRuns(t, "workers=4 vs workers=1", parallel, serial)
}

func TestRunAllParallelPropagatesErrors(t *testing.T) {
	// An empty fleet makes several experiments fail; the run must surface
	// an error rather than return partial results.
	if _, err := runFleet(&dataset.Fleet{}, 4); err == nil {
		t.Fatal("empty fleet should error")
	}
}
