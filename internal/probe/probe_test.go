package probe

import (
	"fmt"
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"meshlab/internal/conc"
	"meshlab/internal/leakcheck"

	"meshlab/internal/dataset"
	"meshlab/internal/mesh"
	"meshlab/internal/phy"
	"meshlab/internal/rng"
	"meshlab/internal/stats"
	"meshlab/internal/topology"
)

// TestMain fails the package if a test leaves a goroutine running: an
// overlapped advance Collect did not join.
func TestMain(m *testing.M) { leakcheck.Main(m) }

func buildNet(t testing.TB, seed uint64, size int, env topology.EnvClass) *mesh.Net {
	if t != nil {
		t.Helper()
	}
	topo, err := topology.Generate(rng.New(seed), topology.Config{
		Name: "p", Size: size, Env: env,
	})
	if err != nil {
		t.Fatal(err)
	}
	return mesh.Build(rng.New(seed).Split("mesh"), topo, phy.BandBG, mesh.BuildOptions{})
}

func collect(t testing.TB, seed uint64, size int, cfg Config) *dataset.NetworkData {
	net := buildNet(t, seed, size, topology.EnvIndoor)
	return Collect(rng.New(seed).Split("probes"), net, cfg)
}

func TestCollectBasic(t *testing.T) {
	nd := collect(t, 1, 10, Config{Duration: 3600, ReportInterval: 300})
	if len(nd.Links) == 0 {
		t.Fatal("no links collected")
	}
	if nd.Info.Band != "bg" || len(nd.Info.APs) != 10 {
		t.Fatalf("bad info: %+v", nd.Info)
	}
	for _, l := range nd.Links {
		if len(l.Sets) == 0 {
			t.Fatal("link with no probe sets should be omitted")
		}
		if len(l.Sets) > 12 {
			t.Fatalf("link has %d sets, more than 3600/300", len(l.Sets))
		}
		prev := int32(0)
		for _, ps := range l.Sets {
			if ps.T <= prev {
				t.Fatal("probe sets not strictly ordered in time")
			}
			prev = ps.T
			if len(ps.Obs) != len(phy.BandBG.Rates) {
				t.Fatalf("probe set has %d observations, want %d", len(ps.Obs), len(phy.BandBG.Rates))
			}
			for _, o := range ps.Obs {
				if o.Loss < 0 || o.Loss > 1 {
					t.Fatalf("loss %v out of range", o.Loss)
				}
			}
		}
	}
}

func TestCollectValidates(t *testing.T) {
	nd := collect(t, 2, 8, Config{Duration: 1800, ReportInterval: 300})
	f := &dataset.Fleet{Networks: []*dataset.NetworkData{nd}}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCollectDeterminism(t *testing.T) {
	a := collect(t, 3, 8, Config{Duration: 1800, ReportInterval: 300})
	b := collect(t, 3, 8, Config{Duration: 1800, ReportInterval: 300})
	if len(a.Links) != len(b.Links) {
		t.Fatalf("link counts differ: %d vs %d", len(a.Links), len(b.Links))
	}
	for i := range a.Links {
		if len(a.Links[i].Sets) != len(b.Links[i].Sets) {
			t.Fatalf("link %d set counts differ", i)
		}
		for j := range a.Links[i].Sets {
			x, y := a.Links[i].Sets[j], b.Links[i].Sets[j]
			if x.SNR != y.SNR || x.T != y.T {
				t.Fatalf("link %d set %d differs", i, j)
			}
		}
	}
}

func TestLossQuantization(t *testing.T) {
	nd := collect(t, 4, 8, Config{Duration: 1800, ReportInterval: 300, ProbesPerRate: 20})
	for _, l := range nd.Links {
		for _, ps := range l.Sets {
			for _, o := range ps.Obs {
				scaled := float64(o.Loss) * 20
				if math.Abs(scaled-math.Round(scaled)) > 1e-5 {
					t.Fatalf("loss %v is not a multiple of 1/20", o.Loss)
				}
			}
		}
	}
}

func TestLossTracksSNR(t *testing.T) {
	// High-SNR links should lose far less at 1M than low-SNR links at
	// 48M. Aggregate over the collection.
	nd := collect(t, 5, 12, Config{Duration: 7200, ReportInterval: 300})
	i1 := phy.BandBG.RateIndex("1M")
	i48 := phy.BandBG.RateIndex("48M")
	var l1, l48 []float64
	for _, l := range nd.Links {
		for _, ps := range l.Sets {
			for _, o := range ps.Obs {
				switch int(o.RateIdx) {
				case i1:
					l1 = append(l1, float64(o.Loss))
				case i48:
					l48 = append(l48, float64(o.Loss))
				}
			}
		}
	}
	if stats.Mean(l48) <= stats.Mean(l1) {
		t.Fatalf("mean 48M loss %v should exceed mean 1M loss %v", stats.Mean(l48), stats.Mean(l1))
	}
}

func TestSNRPlausible(t *testing.T) {
	nd := collect(t, 6, 10, Config{Duration: 3600, ReportInterval: 300})
	for _, l := range nd.Links {
		for _, ps := range l.Sets {
			if ps.SNR < -20 || ps.SNR > 90 {
				t.Fatalf("implausible SNR %d", ps.SNR)
			}
			if ps.SNRStd < 0 {
				t.Fatalf("negative SNR std %v", ps.SNRStd)
			}
		}
	}
}

func TestSNRStdMostlyUnder5(t *testing.T) {
	// Figure 3.1's headline: intra-probe-set SNR std < 5 dB ≈ 97.5% of
	// the time.
	nd := collect(t, 7, 15, Config{Duration: 14400, ReportInterval: 300})
	var stds []float64
	for _, l := range nd.Links {
		for _, ps := range l.Sets {
			stds = append(stds, float64(ps.SNRStd))
		}
	}
	if len(stds) < 100 {
		t.Fatalf("too few probe sets (%d) to assess", len(stds))
	}
	frac := stats.FractionAtMost(stds, 5)
	if frac < 0.93 || frac == 1 {
		t.Fatalf("fraction of probe sets with SNR std <= 5 dB = %v, want ≈0.975 with a tail", frac)
	}
}

func TestDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Duration != 86400 || cfg.ReportInterval != 300 || cfg.ProbesPerRate != 20 {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
}

func TestBinomialApprox(t *testing.T) {
	r := rng.New(8)
	if binomialApprox(r, 20, 0) != 0 {
		t.Fatal("p=0 must give 0")
	}
	if binomialApprox(r, 20, 1) != 20 {
		t.Fatal("p=1 must give 20")
	}
	var sum float64
	const trials = 20000
	for i := 0; i < trials; i++ {
		k := binomialApprox(r, 20, 0.3)
		if k < 0 || k > 20 {
			t.Fatalf("k=%d out of range", k)
		}
		sum += float64(k)
	}
	if mean := sum / trials; math.Abs(mean-6) > 0.15 {
		t.Fatalf("binomial mean %v, want ≈6", mean)
	}
}

func TestNetworkInfoAPs(t *testing.T) {
	net := buildNet(t, 9, 5, topology.EnvMixed)
	info := NetworkInfo(net)
	if info.Env != "mixed" || len(info.APs) != 5 {
		t.Fatalf("info = %+v", info)
	}
	for i, ap := range info.APs {
		if ap.Name != net.Topo.APs[i].Name {
			t.Fatal("AP names not preserved")
		}
	}
}

func TestFarLinksOmitted(t *testing.T) {
	// Huge spacing: most pairs should never produce probe sets.
	topo, _ := topology.Generate(rng.New(10), topology.Config{
		Name: "far", Size: 12, Env: topology.EnvIndoor, Spacing: 250,
	})
	net := mesh.Build(rng.New(10).Split("mesh"), topo, phy.BandBG, mesh.BuildOptions{})
	nd := Collect(rng.New(10).Split("probes"), net, Config{Duration: 1800, ReportInterval: 300})
	if len(nd.Links) >= 12*11 {
		t.Fatal("expected far links to be omitted")
	}
}

func BenchmarkCollect20APsOneHour(b *testing.B) {
	for i := 0; i < b.N; i++ {
		net := buildNet(b, uint64(i), 20, topology.EnvIndoor)
		_ = Collect(rng.New(uint64(i)), net, Config{Duration: 3600, ReportInterval: 300})
	}
}

// TestCollectBudgetOracle pins the overlapped collection: the channel
// advance and success-probability integration fan across the process
// worker budget and run one step ahead of the sampling, while the shared
// sampling stream stays serial — so the collected dataset must be
// identical at any budget (the probabilities, not the schedule, decide
// every rng draw). At budget 1 Collect starts no goroutine; above it,
// one per overlapped step.
func TestCollectBudgetOracle(t *testing.T) {
	defer conc.SetBudget(0)
	var starts atomic.Int64
	defer func(old func(func())) { spawn = old }(spawn)
	spawn = func(fn func()) {
		starts.Add(1)
		go fn()
	}
	cfg := Config{Duration: 2 * 3600, ReportInterval: 300}
	steps := int64(cfg.Duration / cfg.ReportInterval)
	var want *dataset.NetworkData
	for _, budget := range []int{1, 2, 8} {
		conc.SetBudget(budget)
		starts.Store(0)
		got := collect(t, 77, 30, cfg)
		wantStarts := steps - 1
		if budget == 1 {
			wantStarts = 0
		}
		if n := starts.Load(); n != wantStarts {
			t.Fatalf("budget %d: Collect started %d goroutines, want %d", budget, n, wantStarts)
		}
		if len(got.Links) < 100 {
			t.Fatalf("budget %d: only %d links collected; the network is too small to exercise the overlap", budget, len(got.Links))
		}
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("Collect diverges between budget 1 and budget %d", budget)
		}
	}
}

// TestCollectNoSteps: a duration shorter than one report interval
// collects nothing and starts nothing.
func TestCollectNoSteps(t *testing.T) {
	defer conc.SetBudget(0)
	conc.SetBudget(4)
	nd := collect(t, 78, 6, Config{Duration: 100, ReportInterval: 300})
	if len(nd.Links) != 0 {
		t.Fatalf("%d links collected in zero steps", len(nd.Links))
	}
}

// TestCollectSharesObservationRows: heard sets with equal observations
// share one read-only row (len == cap), and distinct rows differ; counts
// too wide to key are never shared.
func TestCollectSharesObservationRows(t *testing.T) {
	nd := collect(t, 79, 12, Config{Duration: 4 * 3600, ReportInterval: 300})
	rows := map[*dataset.Obs][]dataset.Obs{}
	sets := 0
	for _, l := range nd.Links {
		for _, ps := range l.Sets {
			sets++
			if len(ps.Obs) != cap(ps.Obs) {
				t.Fatalf("row len %d cap %d: an append would write into a shared row", len(ps.Obs), cap(ps.Obs))
			}
			rows[&ps.Obs[0]] = ps.Obs
		}
	}
	seen := map[string]bool{}
	for _, row := range rows {
		key := fmt.Sprint(row)
		if seen[key] {
			t.Fatalf("row %v is held twice", row)
		}
		seen[key] = true
	}
	if len(rows) >= sets {
		t.Fatalf("%d distinct rows for %d sets: rows are not shared", len(rows), sets)
	}

	// Counts too wide for the 128-bit key (21 bits × 7 rates) build each
	// row afresh: same losses, nothing shared.
	const n = 1 << 20
	wide := collect(t, 79, 8, Config{Duration: 3600, ReportInterval: 300, ProbesPerRate: n})
	seenRows := map[*dataset.Obs]bool{}
	for _, l := range wide.Links {
		for _, ps := range l.Sets {
			if len(ps.Obs) != cap(ps.Obs) || seenRows[&ps.Obs[0]] {
				t.Fatal("a wide-count row is shared or has spare capacity")
			}
			seenRows[&ps.Obs[0]] = true
			for _, o := range ps.Obs {
				k := math.Round((1 - float64(o.Loss)) * n)
				if float32(1-k/n) != o.Loss {
					t.Fatalf("loss %v is not a count out of %d", o.Loss, n)
				}
			}
		}
	}
	if len(seenRows) == 0 {
		t.Fatal("no sets collected with wide counts")
	}
}
