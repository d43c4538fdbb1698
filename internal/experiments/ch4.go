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
		func() accumulator { return &fig46Acc{strat: snr.NewStrategyAccum(len(phy.BandBG.Rates), fig46MaxX)} })
	registerSamples("tab4.1", "Costs of each look-up table strategy",
		func() accumulator { return &tab41Acc{strat: snr.NewStrategyAccum(len(phy.BandBG.Rates), fig46MaxX)} })
}

// fig41Acc reproduces Figure 4.1: which rates were ever optimal per SNR.
// The table reports the distribution of per-SNR optimal-rate-set sizes;
// the figure's message is that most SNRs see several different optimal
// rates.
type fig41Acc struct {
	sampleAcc
	sets *snr.RateSetAccum
}

func (a *fig41Acc) observeSampleGroup(band string, samples []snr.Sample) error {
	if band == "bg" {
		a.sets.ObserveGroup(samples)
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
	sampleAcc
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

func (a *coverageAcc) observeSampleGroup(band string, samples []snr.Sample) error {
	if band != a.band {
		return nil
	}
	return conc.ForEach(len(a.scope), func(i int) error {
		a.scope[i].ObserveGroup(samples)
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
	sampleAcc
	bands []fig44Band
}

type fig44Band struct {
	name string
	acc  *snr.PenaltyAccum
	seen int
}

func newFig44Acc() *fig44Acc {
	return &fig44Acc{bands: []fig44Band{
		{name: "bg", acc: snr.NewPenaltyAccum(len(phy.BandBG.Rates), snr.Scopes)},
		{name: "n", acc: snr.NewPenaltyAccum(len(phy.BandN.Rates), snr.Scopes)},
	}}
}

func (a *fig44Acc) observeSampleGroup(band string, samples []snr.Sample) error {
	for i := range a.bands {
		if a.bands[i].name == band {
			a.bands[i].acc.ObserveGroup(samples)
			a.bands[i].seen += len(samples)
		}
	}
	return nil
}

func (a *fig44Acc) finalize(*StreamContext) (*Result, error) {
	res := &Result{Header: []string{
		"band", "scope", "exact-hit frac", "median loss", "p75", "p90", "p95", "max (Mbit/s)",
	}}
	for i := range a.bands {
		b := &a.bands[i]
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

// fig45Acc reproduces Figure 4.5: median throughput (with quartiles)
// versus SNR per b/g rate, at 5 dB steps.
type fig45Acc struct {
	sampleAcc
	tput *snr.TputAccum
}

func (a *fig45Acc) observeSampleGroup(band string, samples []snr.Sample) error {
	if band == "bg" {
		a.tput.ObserveGroup(samples)
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

// fig46Acc reproduces Figure 4.6: prediction accuracy versus probe sets
// seen, for the four online strategies.
type fig46Acc struct {
	sampleAcc
	strat *snr.StrategyAccum
}

func (a *fig46Acc) observeSampleGroup(band string, samples []snr.Sample) error {
	if band == "bg" {
		a.strat.ObserveGroup(samples)
	}
	return nil
}

func (a *fig46Acc) finalize(*StreamContext) (*Result, error) {
	results := a.strat.Finalize()
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
type tab41Acc struct {
	sampleAcc
	strat *snr.StrategyAccum
}

func (a *tab41Acc) observeSampleGroup(band string, samples []snr.Sample) error {
	if band == "bg" {
		a.strat.ObserveGroup(samples)
	}
	return nil
}

func (a *tab41Acc) finalize(*StreamContext) (*Result, error) {
	results := a.strat.Finalize()
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
