package snr

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func TestStrategyString(t *testing.T) {
	names := map[Strategy]string{
		First: "first", MostRecent: "most-recent", Subsampled: "subsampled", All: "all",
	}
	for st, want := range names {
		if st.String() != want {
			t.Fatalf("%d.String() = %q", st, st.String())
		}
	}
	if Strategy(9).String() != "Strategy(9)" {
		t.Fatal("unknown strategy formatting")
	}
}

func TestReplayStrategiesOnSimulatedData(t *testing.T) {
	samples := simulated(t)
	results := ReplayStrategies(samples, 7, 35)
	if len(results) != len(Strategies) {
		t.Fatalf("got %d results", len(results))
	}
	byStrat := map[Strategy]*StrategyResult{}
	for i := range results {
		byStrat[results[i].Strategy] = &results[i]
	}

	// All strategies should perform comparably (Figure 4.6's finding) —
	// within 12 percentage points of each other overall, and all well
	// above chance (1/7).
	var accs []float64
	for _, st := range Strategies {
		a := byStrat[st].OverallAccuracy()
		if a < 0.4 {
			t.Fatalf("%s overall accuracy %v too low", st, a)
		}
		accs = append(accs, a)
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
	if max-min > 0.12 {
		t.Fatalf("strategies should perform comparably; spread %v (accs %v)", max-min, accs)
	}

	// Cost model orderings from Table 4.1: first updates least; all
	// updates most; first and most-recent store one point per SNR while
	// all stores every probe.
	if byStrat[First].Updates >= byStrat[All].Updates {
		t.Fatal("first strategy should update far less than all")
	}
	if byStrat[Subsampled].Updates >= byStrat[All].Updates {
		t.Fatal("subsampled should update less than all")
	}
	if byStrat[First].MemEntries != byStrat[First].Updates {
		t.Fatal("first stores exactly one point per update")
	}
	if byStrat[MostRecent].MemEntries >= byStrat[All].MemEntries {
		t.Fatal("most-recent should store less than all")
	}
	if byStrat[All].MemEntries != byStrat[All].Updates {
		t.Fatal("all stores every update")
	}
}

func TestReplayPredictBeforeUpdate(t *testing.T) {
	// Two probe sets on one link at the same SNR: the first must be
	// skipped (no data yet), the second predicted from the first.
	mk := func(tm int32, popt int) Sample {
		return Sample{Net: "n", From: 0, To: 1, T: tm, SNR: 20, Popt: popt, Tput: make([]float64, 7)}
	}
	samples := []Sample{mk(300, 3), mk(600, 3), mk(900, 5)}
	results := ReplayStrategies(samples, 7, 10)
	for _, r := range results {
		if r.Skipped != 1 {
			t.Fatalf("%s: skipped %d, want 1 (first sample has no history)", r.Strategy, r.Skipped)
		}
		// Prediction at history 1 (sample 2, popt 3 after seeing 3) hits;
		// at history 2 (sample 3, popt 5 after seeing 3,3) misses.
		if r.Hits[1] != 1 || r.Total[1] != 1 {
			t.Fatalf("%s: history-1 hits=%d total=%d", r.Strategy, r.Hits[1], r.Total[1])
		}
		if r.Hits[2] != 0 || r.Total[2] != 1 {
			t.Fatalf("%s: history-2 hits=%d total=%d", r.Strategy, r.Hits[2], r.Total[2])
		}
	}
}

func TestReplayFirstVsRecentSemantics(t *testing.T) {
	// popt sequence 3, 5, ? at one SNR: after two sets, First predicts
	// 3, MostRecent predicts 5.
	mk := func(tm int32, popt int) Sample {
		return Sample{Net: "n", From: 0, To: 1, T: tm, SNR: 20, Popt: popt, Tput: make([]float64, 7)}
	}
	samples := []Sample{mk(300, 3), mk(600, 5), mk(900, 5)}
	results := ReplayStrategies(samples, 7, 10)
	byStrat := map[Strategy]*StrategyResult{}
	for i := range results {
		byStrat[results[i].Strategy] = &results[i]
	}
	// Third sample (history 2, actual 5): First predicts 3 (miss),
	// MostRecent predicts 5 (hit).
	if byStrat[First].Hits[2] != 0 {
		t.Fatal("first strategy should still predict the first value")
	}
	if byStrat[MostRecent].Hits[2] != 1 {
		t.Fatal("most-recent strategy should predict the latest value")
	}
}

func TestReplayHistoryCap(t *testing.T) {
	mk := func(tm int32, popt int) Sample {
		return Sample{Net: "n", From: 0, To: 1, T: tm, SNR: 20, Popt: popt, Tput: make([]float64, 7)}
	}
	var samples []Sample
	for i := 0; i < 30; i++ {
		samples = append(samples, mk(int32(300*(i+1)), 3))
	}
	results := ReplayStrategies(samples, 7, 5)
	r := results[0]
	total := 0
	for _, n := range r.Total {
		total += n
	}
	if total != 29 {
		t.Fatalf("total predictions %d, want 29", total)
	}
	if r.Total[5] != 25 {
		t.Fatalf("capped bucket holds %d, want 25", r.Total[5])
	}
}

func TestAccuracyAccessors(t *testing.T) {
	r := StrategyResult{Hits: []int{0, 3}, Total: []int{0, 4}}
	if r.Accuracy(1) != 0.75 {
		t.Fatalf("Accuracy(1) = %v", r.Accuracy(1))
	}
	if r.Accuracy(0) != -1 || r.Accuracy(7) != -1 {
		t.Fatal("empty buckets should report -1")
	}
	if r.OverallAccuracy() != 0.75 {
		t.Fatalf("overall = %v", r.OverallAccuracy())
	}
	empty := StrategyResult{Hits: []int{0}, Total: []int{0}}
	if empty.OverallAccuracy() != -1 {
		t.Fatal("no predictions should report -1")
	}
}

func BenchmarkReplayStrategies(b *testing.B) {
	samples := simulated(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ReplayStrategies(samples, 7, 35)
	}
}

// The map-based replay below is the implementation StrategyAccum's dense
// per-link tables replaced. It stays here as the independent oracle the
// dense kernel is pinned against: links grouped by string key, each link
// time-sorted and replayed through SNR-keyed maps.

// linkState is one link's online table under one strategy.
type linkState struct {
	firstVal  map[int]int   // SNR → first Popt
	recentVal map[int]int   // SNR → last Popt
	counts    map[int][]int // SNR → Popt counts
	seen      int           // probe sets seen on this link
	updates   int
	stored    int
}

// referenceReplay replays every link of one chunk through every strategy
// into results (one per Strategies entry).
func referenceReplay(results []StrategyResult, group []Sample, numRates, maxX int) {
	byLink := make(map[string][]*Sample)
	var keys []string
	for i := range group {
		k := Link.Key(&group[i])
		if _, ok := byLink[k]; !ok {
			keys = append(keys, k)
		}
		byLink[k] = append(byLink[k], &group[i])
	}
	sort.Strings(keys)
	for _, k := range keys {
		seq := byLink[k]
		sort.SliceStable(seq, func(x, y int) bool { return seq[x].T < seq[y].T })
	}
	for si, st := range Strategies {
		for _, k := range keys {
			replayLink(&results[si], st, byLink[k], numRates, maxX)
		}
	}
}

// referenceStrategies runs referenceReplay over every chunk.
func referenceStrategies(chunks [][]Sample, numRates, maxX int) []StrategyResult {
	var results []StrategyResult
	for _, st := range Strategies {
		results = append(results, StrategyResult{
			Strategy: st, Hits: make([]int, maxX+1), Total: make([]int, maxX+1),
		})
	}
	for _, c := range chunks {
		referenceReplay(results, c, numRates, maxX)
	}
	return results
}

// replayLink replays one link's time-ordered probe sets through one
// strategy, folding the hit/total/update counters into res.
func replayLink(res *StrategyResult, st Strategy, seq []*Sample, numRates, maxX int) {
	ls := &linkState{
		firstVal:  make(map[int]int),
		recentVal: make(map[int]int),
		counts:    make(map[int][]int),
	}
	for _, sm := range seq {
		pred, ok := ls.predict(st, sm.SNR)
		if ok {
			x := ls.seen
			if x > maxX {
				x = maxX
			}
			res.Total[x]++
			if pred == sm.Popt {
				res.Hits[x]++
			}
		} else {
			res.Skipped++
		}
		ls.update(st, sm.SNR, sm.Popt, numRates)
		ls.seen++
	}
	res.Updates += ls.updates
	res.MemEntries += ls.stored
}

func (ls *linkState) predict(st Strategy, snr int) (int, bool) {
	switch st {
	case First:
		v, ok := ls.firstVal[snr]
		return v, ok
	case MostRecent:
		v, ok := ls.recentVal[snr]
		return v, ok
	default:
		c, ok := ls.counts[snr]
		if !ok {
			return 0, false
		}
		best, bestN := -1, 0
		for ri, n := range c {
			if n > bestN {
				best, bestN = ri, n
			}
		}
		if best < 0 {
			return 0, false
		}
		return best, true
	}
}

func (ls *linkState) update(st Strategy, snr, popt, numRates int) {
	switch st {
	case First:
		if _, ok := ls.firstVal[snr]; !ok {
			ls.firstVal[snr] = popt
			ls.updates++
			ls.stored++
		}
	case MostRecent:
		if _, ok := ls.recentVal[snr]; !ok {
			ls.stored++
		}
		ls.recentVal[snr] = popt
		ls.updates++
	case Subsampled:
		_, seenSNR := ls.counts[snr]
		if ls.seen%3 != 0 && seenSNR {
			return
		}
		ls.bump(snr, popt, numRates)
	case All:
		ls.bump(snr, popt, numRates)
	}
}

func (ls *linkState) bump(snr, popt, numRates int) {
	c, ok := ls.counts[snr]
	if !ok {
		c = make([]int, numRates)
		ls.counts[snr] = c
	}
	c[popt]++
	ls.updates++
	ls.stored++
}

// networkChunks splits samples into per-network groups.
func networkChunks(t testing.TB, samples []Sample) [][]Sample {
	t.Helper()
	var chunks [][]Sample
	feedGroups(t, samples, func(v *GroupView) { chunks = append(chunks, v.samples) })
	return chunks
}

// shuffledChunks returns a copy of each network's samples in a seeded
// random order: links interleave and each link's probe sets arrive out
// of time order, so the dense kernel's grouping and time sort both work.
func shuffledChunks(t testing.TB, samples []Sample, seed int64) [][]Sample {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	var out [][]Sample
	for _, c := range networkChunks(t, samples) {
		c = append([]Sample(nil), c...)
		r.Shuffle(len(c), func(i, j int) { c[i], c[j] = c[j], c[i] })
		out = append(out, c)
	}
	return out
}

// TestStrategyAccumMatchesReference pins the dense replay against the
// map-based reference on chunks whose links interleave out of time order,
// at a history cap small enough to fold most predictions into the last
// bucket and at the figure's own cap.
func TestStrategyAccumMatchesReference(t *testing.T) {
	samples := simulated(t)
	for _, maxX := range []int{3, 35} {
		for _, seed := range []int64{1, 2} {
			chunks := shuffledChunks(t, samples, seed)
			want := referenceStrategies(chunks, 7, maxX)
			acc := NewStrategyAccum(7, maxX)
			for _, c := range chunks {
				acc.ObserveGroup(NewGroupView(c))
			}
			if got := acc.Finalize(); !reflect.DeepEqual(got, want) {
				t.Fatalf("maxX=%d seed=%d: dense replay diverges from the map-based reference\n got %+v\nwant %+v", maxX, seed, got, want)
			}
		}
	}
}

func BenchmarkStrategyAccum(b *testing.B) {
	samples := simulated(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc := NewStrategyAccum(7, 35)
		_ = ForEachSampleGroup(samples, func(g []Sample) error {
			acc.ObserveGroup(NewGroupView(g))
			return nil
		})
		_ = acc.Finalize()
	}
}
