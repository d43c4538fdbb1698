package snr

import (
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"

	"meshlab/internal/dataset"
	"meshlab/internal/leakcheck"
	"meshlab/internal/mesh"
	"meshlab/internal/phy"
	"meshlab/internal/probe"
	"meshlab/internal/rng"
	"meshlab/internal/stats"
	"meshlab/internal/topology"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }

// simData generates a small multi-network b/g probe dataset once per test
// binary; several tests share it.
var simOnce sync.Once
var simSamples []Sample

func simulated(t testing.TB) []Sample {
	simOnce.Do(func() {
		root := rng.New(1234)
		var nets []*dataset.NetworkData
		for i := 0; i < 6; i++ {
			topo, err := topology.Generate(root.SplitN("topo", i), topology.Config{
				Name: "net" + string(rune('A'+i)), Size: 10, Env: topology.EnvIndoor,
			})
			if err != nil {
				panic(err)
			}
			net := mesh.Build(root.SplitN("mesh", i), topo, phy.BandBG, mesh.BuildOptions{})
			nets = append(nets, probe.Collect(root.SplitN("probe", i), net, probe.Config{
				Duration: 4 * 3600, ReportInterval: 300,
			}))
		}
		ss, err := Flatten(nets)
		if err != nil {
			panic(err)
		}
		simSamples = ss
	})
	if len(simSamples) == 0 {
		t.Fatal("no simulated samples")
	}
	return simSamples
}

func TestFlattenBasic(t *testing.T) {
	nd := &dataset.NetworkData{
		Info: dataset.NetworkInfo{Name: "x", Band: "bg", APs: make([]dataset.APInfo, 2)},
		Links: []*dataset.Link{{From: 0, To: 1, Sets: []dataset.ProbeSet{
			{T: 300, SNR: 20, Obs: []dataset.Obs{
				{RateIdx: 0, Loss: 0},    // 1M: tput 1
				{RateIdx: 4, Loss: 0.5},  // 24M: tput 12
				{RateIdx: 6, Loss: 0.95}, // 48M: tput 2.4
			}},
			{T: 600, SNR: 5, Obs: []dataset.Obs{{RateIdx: 0, Loss: 1}}}, // nothing delivered
		}}},
	}
	samples, err := Flatten([]*dataset.NetworkData{nd})
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 1 {
		t.Fatalf("got %d samples, want 1 (all-loss probe set skipped)", len(samples))
	}
	s := samples[0]
	if s.Popt != 4 || s.BestTput != 12 {
		t.Fatalf("Popt=%d BestTput=%v, want 4 and 12", s.Popt, s.BestTput)
	}
	if s.SNR != 20 || s.Net != "x" {
		t.Fatalf("sample metadata wrong: %+v", s)
	}
}

func TestFlattenMixedBandsRejected(t *testing.T) {
	a := &dataset.NetworkData{Info: dataset.NetworkInfo{Name: "a", Band: "bg"}}
	b := &dataset.NetworkData{Info: dataset.NetworkInfo{Name: "b", Band: "n"}}
	if _, err := Flatten([]*dataset.NetworkData{a, b}); err == nil {
		t.Fatal("mixed bands should error")
	}
}

func TestFlattenEmpty(t *testing.T) {
	got, err := Flatten(nil)
	if err != nil || got != nil {
		t.Fatalf("Flatten(nil) = %v, %v", got, err)
	}
}

// TestFlattenChunks: a network flattened in chunks yields Flatten's
// samples, in link-aligned chunks of at least ChunkRows samples (but the
// last) and at most ChunkRows plus one link's run.
func TestFlattenChunks(t *testing.T) {
	root := rng.New(99)
	topo, err := topology.Generate(root.Split("topo"), topology.Config{Name: "chunky", Size: 12, Env: topology.EnvIndoor})
	if err != nil {
		t.Fatal(err)
	}
	net := mesh.Build(root.Split("mesh"), topo, phy.BandBG, mesh.BuildOptions{})
	nd := probe.Collect(root.Split("probe"), net, probe.Config{Duration: 2 * 3600, ReportInterval: 300})
	want, err := Flatten([]*dataset.NetworkData{nd})
	if err != nil {
		t.Fatal(err)
	}
	longest := 0
	for _, l := range nd.Links {
		longest = max(longest, len(l.Sets))
	}
	defer func(old int) { ChunkRows = old }(ChunkRows)
	for _, size := range []int{1, 7, 100, len(want), 1 << 15} {
		ChunkRows = size
		var chunks [][]Sample
		if err := FlattenChunks(nd, func(c []Sample) error {
			chunks = append(chunks, c)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		var got []Sample
		for i, c := range chunks {
			if len(c) == 0 || len(c) > size+longest || (i < len(chunks)-1 && len(c) < size) {
				t.Fatalf("size %d: chunk %d of %d holds %d samples", size, i, len(chunks), len(c))
			}
			if i > 0 {
				prev := chunks[i-1][len(chunks[i-1])-1]
				if prev.From == c[0].From && prev.To == c[0].To {
					t.Fatalf("size %d: link %d>%d splits across chunks %d and %d", size, c[0].From, c[0].To, i-1, i)
				}
			}
			got = append(got, c...)
		}
		if size >= len(want) && len(chunks) != 1 {
			t.Fatalf("size %d: %d chunks for a %d-sample network", size, len(chunks), len(want))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("size %d: concatenated chunks diverge from Flatten", size)
		}
	}

	// A network without samples still yields one (empty) chunk, as it
	// yields one empty group in a file's flat-sample section.
	silent := &dataset.NetworkData{
		Info: dataset.NetworkInfo{Name: "quiet", Band: "bg", APs: make([]dataset.APInfo, 2)},
		Links: []*dataset.Link{{From: 0, To: 1, Sets: []dataset.ProbeSet{
			{T: 300, Obs: []dataset.Obs{{RateIdx: 0, Loss: 1}}},
		}}},
	}
	ChunkRows = 1
	calls := 0
	if err := FlattenChunks(silent, func(c []Sample) error {
		calls++
		if len(c) != 0 {
			t.Fatalf("silent network flattened to %d samples", len(c))
		}
		return nil
	}); err != nil || calls != 1 {
		t.Fatalf("silent network: %d chunks, err %v; want one empty chunk", calls, err)
	}
	bad := &dataset.NetworkData{Info: dataset.NetworkInfo{Name: "bad", Band: "zz"}}
	if err := FlattenChunks(bad, func([]Sample) error { return nil }); err == nil {
		t.Fatal("unknown band should error")
	}
}

func TestScopeKeys(t *testing.T) {
	s := &Sample{Net: "n1", From: 2, To: 5}
	if Global.Key(s) != "" {
		t.Fatal("global key should be empty")
	}
	if Network.Key(s) != "n1" {
		t.Fatal("network key wrong")
	}
	if AP.Key(s) != "n1/2" {
		t.Fatal("AP key wrong")
	}
	if Link.Key(s) != "n1/2>5" {
		t.Fatal("link key wrong")
	}
}

func TestTrainLookupMostFrequent(t *testing.T) {
	mk := func(popt int) Sample {
		return Sample{Net: "n", From: 0, To: 1, SNR: 25, Popt: popt, Tput: make([]float64, 7)}
	}
	samples := []Sample{mk(3), mk(3), mk(5)}
	tbl := Train(samples, 7, Link)
	pred, ok := tbl.Lookup(&samples[0])
	if !ok || pred != 3 {
		t.Fatalf("Lookup = %d, %v; want 3, true", pred, ok)
	}
	// Unknown SNR → not ok.
	unk := mk(0)
	unk.SNR = 60
	if _, ok := tbl.Lookup(&unk); ok {
		t.Fatal("lookup at unseen SNR should fail")
	}
	// Unknown link → not ok.
	other := mk(0)
	other.To = 9
	if _, ok := tbl.Lookup(&other); ok {
		t.Fatal("lookup for unseen link should fail")
	}
}

func TestLookupTieBreaksLow(t *testing.T) {
	mk := func(popt int) Sample {
		return Sample{Net: "n", From: 0, To: 1, SNR: 25, Popt: popt, Tput: make([]float64, 7)}
	}
	samples := []Sample{mk(5), mk(2)}
	tbl := Train(samples, 7, Link)
	pred, ok := tbl.Lookup(&samples[0])
	if !ok || pred != 2 {
		t.Fatalf("tie should break toward lower rate index, got %d", pred)
	}
}

func TestCoverageNeeds(t *testing.T) {
	c := []int{0, 67, 30, 3, 0, 0, 0}
	scratch := make([]int, len(c))
	n50, n80, n95 := coverageNeeds(c, 100, scratch)
	if n50 != 1 {
		t.Fatalf("50%% needs %d rates, want 1", n50)
	}
	if n80 != 2 {
		t.Fatalf("80%% needs %d rates, want 2", n80)
	}
	if n95 != 2 {
		t.Fatalf("95%% needs %d rates, want 2", n95)
	}
	if a, b, c := coverageNeeds([]int{0, 0}, 0, scratch); a != 0 || b != 0 || c != 0 {
		t.Fatalf("empty cell needs (%d,%d,%d), want zeros", a, b, c)
	}
	// A single dominant rate satisfies all three levels at once.
	if a, b, c := coverageNeeds([]int{0, 100, 0}, 100, scratch); a != 1 || b != 1 || c != 1 {
		t.Fatalf("dominant rate needs (%d,%d,%d), want all 1", a, b, c)
	}
	// An even split makes the levels spread: 4×25 → 2, 4, 4.
	if a, b, c := coverageNeeds([]int{25, 25, 25, 25}, 100, scratch); a != 2 || b != 4 || c != 4 {
		t.Fatalf("even split needs (%d,%d,%d), want (2,4,4)", a, b, c)
	}
}

func TestInstancesAndEntries(t *testing.T) {
	samples := simulated(t)
	g := Train(samples, 7, Global)
	n := Train(samples, 7, Network)
	l := Train(samples, 7, Link)
	if g.Instances() != 1 {
		t.Fatalf("global instances = %d", g.Instances())
	}
	if n.Instances() != 6 {
		t.Fatalf("network instances = %d, want 6", n.Instances())
	}
	if l.Instances() <= n.Instances() {
		t.Fatal("link tables should outnumber network tables")
	}
	if g.Entries() >= l.Entries() {
		t.Fatal("link tables should hold more cells than the single global table")
	}
}

func TestCoverageSpecificityOrdering(t *testing.T) {
	// The paper's central §4 finding: more specific training needs fewer
	// unique rates at 95%. Compare mean NeedP95 across matched SNRs.
	samples := simulated(t)
	// Per-(link, SNR) cells are small over a 4 h window, so use a low
	// observation floor for both scopes.
	g := Train(samples, 7, Global).Coverage(8)
	l := Train(samples, 7, Link).Coverage(8)
	gBySNR := map[int]float64{}
	for _, r := range g {
		gBySNR[r.SNR] = r.NeedP95
	}
	var gSum, lSum float64
	matched := 0
	for _, r := range l {
		gv, ok := gBySNR[r.SNR]
		if !ok {
			continue
		}
		gSum += gv
		lSum += r.NeedP95
		matched++
	}
	if matched < 5 {
		t.Fatalf("only %d matched SNRs", matched)
	}
	if lSum >= gSum {
		t.Fatalf("link-specific mean rates-needed (%v) should be below global (%v)", lSum/float64(matched), gSum/float64(matched))
	}
}

func TestCoverageRowsSorted(t *testing.T) {
	rows := Train(simulated(t), 7, Global).Coverage(10)
	for i := 1; i < len(rows); i++ {
		if rows[i].SNR <= rows[i-1].SNR {
			t.Fatal("coverage rows not sorted by SNR")
		}
	}
	for _, r := range rows {
		if r.NeedP50 > r.NeedP80 || r.NeedP80 > r.NeedP95 {
			t.Fatalf("coverage percentiles not monotone at SNR %d: %+v", r.SNR, r)
		}
	}
}

func TestOptimalRateSetsMultipleRates(t *testing.T) {
	// Figure 4.1: many SNRs see more than one optimal rate over time.
	sets := OptimalRateSets(simulated(t))
	multi := 0
	for _, rates := range sets {
		if len(rates) > 1 {
			multi++
		}
	}
	if multi < len(sets)/4 {
		t.Fatalf("only %d/%d SNRs saw multiple optimal rates; the global table should look unusable", multi, len(sets))
	}
}

func TestPenaltyOrdering(t *testing.T) {
	// Figure 4.4: link/AP training beats network/global on both exact
	// hits and mean throughput loss.
	samples := simulated(t)
	res := Penalty(samples, 7, Scopes)
	byScope := map[Scope]PenaltyResult{}
	for _, r := range res {
		byScope[r.Scope] = r
	}
	if byScope[Link].ExactFrac <= byScope[Global].ExactFrac {
		t.Fatalf("link exact fraction %v should exceed global %v",
			byScope[Link].ExactFrac, byScope[Global].ExactFrac)
	}
	if stats.Mean(byScope[Link].Diffs) >= stats.Mean(byScope[Global].Diffs) {
		t.Fatalf("link mean penalty %v should be below global %v",
			stats.Mean(byScope[Link].Diffs), stats.Mean(byScope[Global].Diffs))
	}
	// The thesis reports ~90% exact for per-link b/g training.
	if byScope[Link].ExactFrac < 0.6 {
		t.Fatalf("link-specific exact fraction %v suspiciously low", byScope[Link].ExactFrac)
	}
	for _, r := range res {
		for _, d := range r.Diffs {
			if d < 0 {
				t.Fatal("negative penalty")
			}
		}
	}
}

func TestThroughputVsSNRShape(t *testing.T) {
	// Figure 4.5: per-rate median throughput rises with SNR and levels
	// off near the nominal rate.
	pts := ThroughputVsSNR(simulated(t), 7, 30)
	if len(pts) == 0 {
		t.Fatal("no points")
	}
	// For 24M (index 4): low-SNR cells should have much lower median
	// than high-SNR cells.
	var lo, hi []float64
	for _, p := range pts {
		if p.RateIdx != 4 {
			continue
		}
		if p.SNR <= 12 {
			lo = append(lo, p.Median)
		}
		if p.SNR >= 28 {
			hi = append(hi, p.Median)
		}
		if p.Q1 > p.Median || p.Median > p.Q3 {
			t.Fatalf("quartiles out of order at %+v", p)
		}
	}
	if len(lo) == 0 || len(hi) == 0 {
		t.Skip("simulated data lacks low/high SNR cells for 24M")
	}
	if stats.Mean(hi) <= stats.Mean(lo) {
		t.Fatalf("24M median tput should rise with SNR: lo %v hi %v", stats.Mean(lo), stats.Mean(hi))
	}
	if m := stats.Mean(hi); m > 24 {
		t.Fatalf("median tput %v exceeds nominal 24", m)
	}
}

func TestScopeString(t *testing.T) {
	names := map[Scope]string{Global: "global", Network: "network", AP: "ap", Link: "link"}
	for sc, want := range names {
		if sc.String() != want {
			t.Fatalf("%d.String() = %s", sc, sc.String())
		}
	}
	if Scope(9).String() != "Scope(9)" {
		t.Fatal("unknown scope formatting")
	}
}

func TestBandRates(t *testing.T) {
	names := BandRates(phy.BandBG)
	if len(names) != 7 || names[0] != "1M" || names[6] != "48M" {
		t.Fatalf("BandRates = %v", names)
	}
}

// TestPenaltyMatchesTableReplay pins the flat-buffer Penalty rewrite to
// the reference algorithm: train a Table per scope and replay every
// sample through Lookup. Diffs must match as sorted multisets (Penalty
// returns them sorted) and ExactFrac exactly.
func TestPenaltyMatchesTableReplay(t *testing.T) {
	samples := simulated(t)
	const numRates = 7
	got := Penalty(samples, numRates, Scopes)
	for si, sc := range Scopes {
		tbl := Train(samples, numRates, sc)
		var want []float64
		exact := 0
		for i := range samples {
			s := &samples[i]
			pred, ok := tbl.Lookup(s)
			if !ok {
				continue
			}
			diff := s.BestTput - s.Tput[pred]
			if diff < 0 {
				diff = 0
			}
			want = append(want, diff)
			if pred == s.Popt {
				exact++
			}
		}
		sort.Float64s(want)
		g := got[si]
		if g.Scope != sc {
			t.Fatalf("result %d has scope %v, want %v", si, g.Scope, sc)
		}
		if len(g.Diffs) != len(want) {
			t.Fatalf("%v: %d diffs, reference replay has %d", sc, len(g.Diffs), len(want))
		}
		if !sort.Float64sAreSorted(g.Diffs) {
			t.Fatalf("%v: Diffs not sorted", sc)
		}
		for i := range want {
			if g.Diffs[i] != want[i] {
				t.Fatalf("%v: diff[%d] = %v, reference %v", sc, i, g.Diffs[i], want[i])
			}
		}
		if wantFrac := float64(exact) / float64(len(want)); g.ExactFrac != wantFrac {
			t.Fatalf("%v: ExactFrac %v, reference %v", sc, g.ExactFrac, wantFrac)
		}
	}
}

func TestPenaltyNaNFree(t *testing.T) {
	res := Penalty(simulated(t), 7, []Scope{Network})
	for _, d := range res[0].Diffs {
		if math.IsNaN(d) {
			t.Fatal("NaN penalty")
		}
	}
}

func BenchmarkTrainLink(b *testing.B) {
	samples := simulated(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Train(samples, 7, Link)
	}
}

func BenchmarkPenaltyAllScopes(b *testing.B) {
	samples := simulated(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Penalty(samples, 7, Scopes)
	}
}
