package experiments

// ch4.go reproduces the §4 bit-rate tables. Every experiment here is a
// chunked sample accumulator (sampleObserver): it trains flat
// count/histogram tables from one network's samples at a time and never
// retains the samples themselves, so a streaming run's §4 memory is
// bounded by table size instead of the 2M+-sample flat section. The
// incremental kernels live in internal/snr (PenaltyAccum, CoverageAccum,
// TputAccum, StrategyAccum, RateSetAccum) and are pinned bit-exact
// against their batch forms by the chunked-vs-batch oracles there, so
// these tables are byte-identical to the pre-chunked suite.

import (
	"fmt"
	"reflect"

	"meshlab/internal/binio"
	"meshlab/internal/conc"
	"meshlab/internal/phy"
	"meshlab/internal/snr"
)

func init() {
	registerSamples("fig4.1", "Optimal bit rates for different SNRs (802.11b/g)",
		func() accumulator { return &fig41Acc{sets: snr.NewRateSetAccum()} })
	registerSamples("fig4.2", "SNR look-up table performance by scope, 802.11b/g",
		func() accumulator {
			return newCoverageAcc("bg", phy.BandBG,
				"specificity should decrease rates-needed monotonically: global ≥ network ≥ ap ≥ link (paper Fig 4.2)")
		})
	registerSamples("fig4.3", "SNR look-up table performance by scope, 802.11n",
		func() accumulator {
			return newCoverageAcc("n", phy.BandN,
				"802.11n needs more rates per percentile than b/g at every scope (paper Fig 4.3): compare with fig4.2")
		})
	registerSamples("fig4.4", "Throughput penalty of look-up tables vs optimal",
		func() accumulator { return newFig44Acc() })
	registerSamples("fig4.5", "Correlation between SNR and throughput (802.11b/g)",
		func() accumulator { return &fig45Acc{tput: snr.NewTputAccum(len(phy.BandBG.Rates), 25)} })
	registerSamples("fig4.6", "Accuracy of online look-up table strategies",
		func() accumulator { return &fig46Acc{} })
	registerSamples("tab4.1", "Costs of each look-up table strategy",
		func() accumulator { return &tab41Acc{} })
}

// fig41Acc reproduces Figure 4.1: which rates were ever optimal per SNR.
// The table reports the distribution of per-SNR optimal-rate-set sizes;
// the figure's message is that most SNRs see several different optimal
// rates.
type fig41Acc struct {
	sets *snr.RateSetAccum
}

func (a *fig41Acc) state() []binio.Cell { return []binio.Cell{binio.Core(&a.sets)} }

func (a *fig41Acc) observeSampleGroup(band string, v *snr.GroupView) error {
	if band == "bg" {
		a.sets.ObserveGroup(v)
	}
	return nil
}

func (a *fig41Acc) finalize(*StreamContext) (*Result, error) {
	sets := a.sets.Finalize()
	sizeHist := map[int]int{}
	single := 0
	for _, rates := range sets {
		sizeHist[len(rates)]++
		if len(rates) == 1 {
			single++
		}
	}
	res := &Result{Header: []string{"#rates ever optimal at an SNR", "#SNR values"}}
	for _, k := range sortedKeys(sizeHist) {
		res.Rows = append(res.Rows, []string{itoa(k), itoa(sizeHist[k])})
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"%d of %d SNR values have a single always-optimal rate; a global look-up table cannot cover the rest",
		single, len(sets)))
	// High SNRs: the top OFDM rate should dominate, as in the paper's
	// ">80 dB is always 48 Mbit/s" remark.
	hi := 0
	hiSingle := 0
	for s, rates := range sets {
		if s >= 45 {
			hi++
			if len(rates) == 1 {
				hiSingle++
			}
		}
	}
	if hi > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"at SNR ≥ 45 dB, %d/%d SNR values have a unique optimal rate (high-SNR regime is easy)", hiSingle, hi))
	}
	return res, nil
}

// coverageAcc reproduces Figures 4.2/4.3 for one band: one incremental
// coverage core per scope, fanned across the worker budget per group.
type coverageAcc struct {
	band  string
	scope []*snr.CoverageAccum
	note  string
}

func newCoverageAcc(band string, phyBand phy.Band, note string) *coverageAcc {
	a := &coverageAcc{band: band, note: note}
	for _, sc := range snr.Scopes {
		a.scope = append(a.scope, snr.NewCoverageAccum(len(phyBand.Rates), sc, 8))
	}
	return a
}

// state lists the scope count, then each scope's core.
func (a *coverageAcc) state() []binio.Cell {
	cells := []binio.Cell{binio.Param("scopes", len(a.scope), binio.IntCodec)}
	for i := range a.scope {
		cells = append(cells, binio.Core(&a.scope[i]))
	}
	return cells
}

func (a *coverageAcc) observeSampleGroup(band string, v *snr.GroupView) error {
	if band != a.band {
		return nil
	}
	return conc.ForEach(len(a.scope), func(i int) error {
		a.scope[i].ObserveGroup(v)
		return nil
	})
}

func (a *coverageAcc) finalize(*StreamContext) (*Result, error) {
	res := &Result{Header: []string{
		"scope", "SNR cells", "mean rates@50%", "mean rates@80%", "mean rates@95%",
		"frac SNRs 1 rate@95%", "frac SNRs ≤2 rates@95%",
	}}
	for i, sc := range snr.Scopes {
		rows := a.scope[i].Finalize()
		if len(rows) == 0 {
			res.Rows = append(res.Rows, []string{sc.String(), "0", "-", "-", "-", "-", "-"})
			continue
		}
		var s50, s80, s95 float64
		one, two := 0, 0
		for _, r := range rows {
			s50 += r.NeedP50
			s80 += r.NeedP80
			s95 += r.NeedP95
			if r.NeedP95 <= 1 {
				one++
			}
			if r.NeedP95 <= 2 {
				two++
			}
		}
		n := float64(len(rows))
		res.Rows = append(res.Rows, []string{
			sc.String(), itoa(len(rows)),
			f2(s50 / n), f2(s80 / n), f2(s95 / n),
			f2(float64(one) / n), f2(float64(two) / n),
		})
	}
	res.Notes = append(res.Notes, a.note)
	return res, nil
}

// fig44Acc reproduces Figure 4.4: the CDF of throughput lost by following
// the look-up table instead of the per-probe-set optimum, per scope and
// band. The chunked penalty cores deliver counted distributions, so the
// quantile row is computed without ever materializing a per-sample Diffs
// slice.
type fig44Acc struct {
	bandCores[*snr.PenaltyAccum]
}

func newFig44Acc() *fig44Acc {
	return &fig44Acc{bandCores: bandCores[*snr.PenaltyAccum]{
		{name: "bg", acc: snr.NewPenaltyAccum(len(phy.BandBG.Rates), snr.Scopes)},
		{name: "n", acc: snr.NewPenaltyAccum(len(phy.BandN.Rates), snr.Scopes)},
	}}
}

func (a *fig44Acc) finalize(*StreamContext) (*Result, error) {
	res := &Result{Header: []string{
		"band", "scope", "exact-hit frac", "median loss", "p75", "p90", "p95", "max (Mbit/s)",
	}}
	for i := range a.bandCores {
		b := &a.bandCores[i]
		if b.seen == 0 {
			continue
		}
		for _, pd := range b.acc.FinalizeDists() {
			res.Rows = append(res.Rows, []string{
				b.name, pd.Scope.String(), f2(pd.ExactFrac),
				f2(pd.Diffs.Quantile(0.5)), f2(pd.Diffs.Quantile(0.75)),
				f2(pd.Diffs.Quantile(0.90)), f2(pd.Diffs.Quantile(0.95)),
				f2(pd.Diffs.Quantile(1.0)),
			})
		}
	}
	res.Notes = append(res.Notes,
		"link- and AP-specific training should beat network and global on both exact hits and losses (paper: link ≈90% exact for b/g, ≈75% for n)")
	return res, nil
}

// bandCore is one band's chunked §4 core and the samples fed to it.
type bandCore[C sampleCore[C]] struct {
	name string
	acc  C
	seen int
}

// sampleCore is a chunked §4 core of internal/snr.
type sampleCore[C any] interface {
	binio.Mergeable[C]
	ObserveGroup(*snr.GroupView)
}

// bandCores is the state and sample feed fig4.4 and ext4.topk share:
// one core per band, each observing its band's groups.
type bandCores[C sampleCore[C]] []bandCore[C]

func (bs bandCores[C]) observeSampleGroup(band string, v *snr.GroupView) error {
	for i := range bs {
		if bs[i].name == band {
			bs[i].acc.ObserveGroup(v)
			bs[i].seen += v.Len()
		}
	}
	return nil
}

// state lists the band count, then each band's name, samples seen and
// core.
func (bs bandCores[C]) state() []binio.Cell {
	cells := []binio.Cell{binio.Param("bands", len(bs), binio.IntCodec)}
	for i := range bs {
		b := &bs[i]
		cells = append(cells, binio.Param("band", b.name, binio.StringCodec), binio.Counter(&b.seen), binio.Core(&b.acc))
	}
	return cells
}

// fig45Acc reproduces Figure 4.5: median throughput (with quartiles)
// versus SNR per b/g rate, at 5 dB steps.
type fig45Acc struct {
	tput *snr.TputAccum
}

func (a *fig45Acc) state() []binio.Cell { return []binio.Cell{binio.Core(&a.tput)} }

func (a *fig45Acc) observeSampleGroup(band string, v *snr.GroupView) error {
	if band == "bg" {
		a.tput.ObserveGroup(v)
	}
	return nil
}

func (a *fig45Acc) finalize(*StreamContext) (*Result, error) {
	pts := a.tput.Finalize()
	res := &Result{Header: []string{"rate", "SNR (dB)", "median tput", "q1", "q3", "n"}}
	for _, p := range pts {
		if p.SNR%5 != 0 {
			continue
		}
		res.Rows = append(res.Rows, []string{
			phy.BandBG.Rates[p.RateIdx].Name, itoa(p.SNR),
			f2(p.Median), f2(p.Q1), f2(p.Q3), itoa(p.N),
		})
	}
	res.Notes = append(res.Notes,
		"median throughput should rise with SNR and level off near the nominal rate; variance is largest on the steep part of each curve")
	return res, nil
}

// fig46MaxX caps the history-length axis of the online-strategy replays.
const fig46MaxX = 35

// strategyReplay is the online-strategy replay of the b/g samples that
// fig4.6 and tab4.1 both render. A StreamContext runs one per run and
// feeds it once per group, however many of the two are selected.
type strategyReplay struct {
	acc *snr.StrategyAccum
	// restored is set once a snapshot section has been loaded into acc:
	// each reader's section carries the same replay.
	restored bool
}

func newStrategyReplay() *strategyReplay {
	return &strategyReplay{acc: snr.NewStrategyAccum(len(phy.BandBG.Rates), fig46MaxX)}
}

func (p *strategyReplay) observeSampleGroup(band string, v *snr.GroupView) error {
	if band == "bg" {
		p.acc.ObserveGroup(v)
	}
	return nil
}

// restore loads one reader's snapshot section. The first section loads
// the replay; a later one must agree with it.
func (p *strategyReplay) restore(r *binio.Reader) error {
	if !p.restored {
		p.restored = true
		return p.acc.Restore(r)
	}
	again := newStrategyReplay()
	if err := again.acc.Restore(r); err != nil {
		return err
	}
	if !reflect.DeepEqual(again.acc.Finalize(), p.acc.Finalize()) {
		return fmt.Errorf("the fig4.6 and tab4.1 sections hold different strategy replays")
	}
	return nil
}

// strategyReader is embedded by the experiments that render the shared
// replay; the StreamContext hands it over with shareReplay.
type strategyReader struct{ replay *strategyReplay }

func (r *strategyReader) shareReplay(p *strategyReplay) { r.replay = p }

func (r *strategyReader) state() []binio.Cell { return []binio.Cell{replayCell{r.replay}} }

// fig46Acc reproduces Figure 4.6: prediction accuracy versus probe sets
// seen, for the four online strategies.
type fig46Acc struct{ strategyReader }

func (a *fig46Acc) finalize(*StreamContext) (*Result, error) {
	results := a.replay.acc.Finalize()
	res := &Result{Header: []string{"probe sets seen", "first", "most-recent", "subsampled", "all"}}
	for _, x := range []int{1, 2, 3, 5, 10, 15, 20, 25, 30, 35} {
		row := []string{itoa(x)}
		for i := range results {
			if acc := results[i].Accuracy(x); acc >= 0 {
				row = append(row, f2(acc))
			} else {
				row = append(row, "-")
			}
		}
		res.Rows = append(res.Rows, row)
	}
	overall := []string{"overall"}
	for i := range results {
		overall = append(overall, f2(results[i].OverallAccuracy()))
	}
	res.Rows = append(res.Rows, overall)
	res.Notes = append(res.Notes,
		"all strategies should perform comparably at 80-90% accuracy (paper Fig 4.6); even keeping only the first probe per SNR is viable")
	return res, nil
}

// tab41Acc reproduces Table 4.1: update frequency and memory per
// strategy, with measured counts from replaying the fleet.
type tab41Acc struct{ strategyReader }

func (a *tab41Acc) finalize(*StreamContext) (*Result, error) {
	results := a.replay.acc.Finalize()
	labels := map[snr.Strategy][2]string{
		snr.First:      {"Low", "Small"},
		snr.MostRecent: {"High", "Small"},
		snr.Subsampled: {"Moderate", "Moderate"},
		snr.All:        {"High", "Large"},
	}
	res := &Result{Header: []string{
		"strategy", "update frequency", "memory", "measured updates", "measured stored points",
	}}
	for i := range results {
		r := &results[i]
		l := labels[r.Strategy]
		res.Rows = append(res.Rows, []string{
			r.Strategy.String(), l[0], l[1], itoa(r.Updates), itoa(r.MemEntries),
		})
	}
	res.Notes = append(res.Notes,
		"orderings must hold: updates(first) < updates(subsampled) < updates(all); memory(first|most-recent) < memory(subsampled) < memory(all)")
	return res, nil
}
