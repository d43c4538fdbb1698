package experiments

import (
	"fmt"

	"meshlab/internal/hidden"
	"meshlab/internal/phy"
	"meshlab/internal/stats"
)

func init() {
	register("fig6.1", "Frequency of hidden triples per bit rate (threshold 10%)",
		func() accumulator { return &fig61Acc{} })
	register("fig6.2", "Change in range vs bit rate (relative to 1 Mbit/s)",
		func() accumulator { return &fig62Acc{} })
	register("sec6.3", "Impact of environment on hidden triples and range",
		func() accumulator { return &sec63Acc{} })
	register("abl6.t", "Ablation: hidden-triple fraction across hearing thresholds",
		func() accumulator { return &abl6tAcc{censuses: map[float64][]*hidden.NetworkResult{}} })
}

// abl6tThresholds is the hearing-threshold sweep §6.1's sensitivity remark
// is checked against.
var abl6tThresholds = []float64{0.05, 0.10, 0.25, 0.50}

// censusBG accumulates the §6 triple census of every b/g network at one
// threshold, in fleet order — the shared observe body of the §6 figures.
// The census is derived once per network while it is live, so figures
// sharing a threshold share the computation.
type censusBG struct {
	results []*hidden.NetworkResult
}

func (a *censusBG) observeAt(nv *NetView, threshold float64) error {
	if nv.Data().Info.Band != "bg" {
		return nil
	}
	nr, err := nv.Hidden(threshold)
	if err != nil {
		return err
	}
	a.results = append(a.results, nr)
	return nil
}

func prepareHidden(nv *NetView, thresholds ...float64) error {
	if nv.Data().Info.Band != "bg" {
		return nil
	}
	for _, th := range thresholds {
		if _, err := nv.Hidden(th); err != nil {
			return err
		}
	}
	return nil
}

// fig61Acc reproduces Figure 6.1: the CDF over networks of the fraction
// of relevant triples that are hidden, per bit rate, at a 10% threshold.
type fig61Acc struct{ censusBG }

func (a *fig61Acc) prepare(nv *NetView) error { return prepareHidden(nv, 0.10) }
func (a *fig61Acc) observe(nv *NetView) error { return a.observeAt(nv, 0.10) }

func (a *fig61Acc) finalize(*StreamContext) (*Result, error) {
	res := &Result{Header: []string{"rate", "networks", "p25", "median", "p75", "max"}}
	medians := map[string]float64{}
	for ri, rate := range phy.BandBG.Rates {
		var fracs []float64
		for _, nr := range a.results {
			rr := nr.Rates[ri]
			if rr.Relevant > 0 {
				fracs = append(fracs, rr.Fraction)
			}
		}
		if len(fracs) == 0 {
			continue
		}
		cdf := stats.NewCDF(fracs)
		medians[rate.Name] = cdf.Quantile(0.5)
		res.Rows = append(res.Rows, []string{
			rate.Name, itoa(len(fracs)),
			f2(cdf.Quantile(0.25)), f2(cdf.Quantile(0.5)), f2(cdf.Quantile(0.75)),
			f2(cdf.Quantile(1)),
		})
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"median at 1 Mbit/s = %.2f (paper: ≈0.15); fraction should rise with rate except the DSSS 11 Mbit/s dip below 6 Mbit/s (here: 11M %.2f vs 6M %.2f)",
		medians["1M"], medians["11M"], medians["6M"]))
	return res, nil
}

// fig62Acc reproduces Figure 6.2: per rate, the mean ± std over networks
// of range(rate)/range(1M).
type fig62Acc struct{ censusBG }

func (a *fig62Acc) prepare(nv *NetView) error { return prepareHidden(nv, 0.10) }
func (a *fig62Acc) observe(nv *NetView) error { return a.observeAt(nv, 0.10) }

func (a *fig62Acc) finalize(*StreamContext) (*Result, error) {
	ref := phy.BandBG.RateIndex("1M")
	res := &Result{Header: []string{"rate", "networks", "mean range ratio", "std"}}
	var prevMean float64 = 2
	monotone := true
	for ri, rate := range phy.BandBG.Rates {
		var ratios []float64
		for _, nr := range a.results {
			if r, ok := nr.RangeRatio(ri, ref); ok {
				ratios = append(ratios, r)
			}
		}
		if len(ratios) == 0 {
			continue
		}
		s, _ := stats.Summarize(ratios)
		res.Rows = append(res.Rows, []string{rate.Name, itoa(len(ratios)), f2(s.Mean), f2(s.Std)})
		if rate.Mod == phy.OFDM {
			if s.Mean > prevMean {
				monotone = false
			}
			prevMean = s.Mean
		}
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"mean range should fall steadily with OFDM rate (observed monotone: %v) with large stds — some pairs hear at a higher rate but not a lower one", monotone))
	return res, nil
}

// sec63Acc reproduces §6.3: indoor vs outdoor hidden-triple fractions and
// size-normalized range. It censuses every b/g network once and splits by
// environment at finalize.
type sec63Acc struct{ censusBG }

func (a *sec63Acc) prepare(nv *NetView) error { return prepareHidden(nv, 0.10) }
func (a *sec63Acc) observe(nv *NetView) error { return a.observeAt(nv, 0.10) }

func (a *sec63Acc) finalize(*StreamContext) (*Result, error) {
	res := &Result{Header: []string{
		"environment", "networks", "median hidden frac @1M", "median hidden frac @48M", "mean range/size² @1M",
	}}
	ri1 := phy.BandBG.RateIndex("1M")
	ri48 := phy.BandBG.RateIndex("48M")
	var medians []float64
	for _, env := range []string{"indoor", "outdoor"} {
		var results []*hidden.NetworkResult
		for _, nr := range a.results {
			if nr.Env == env {
				results = append(results, nr)
			}
		}
		var f1, f48, norm []float64
		for _, nr := range results {
			if nr.Rates[ri1].Relevant > 0 {
				f1 = append(f1, nr.Rates[ri1].Fraction)
			}
			if nr.Rates[ri48].Relevant > 0 {
				f48 = append(f48, nr.Rates[ri48].Fraction)
			}
			if nr.Size > 0 {
				norm = append(norm, float64(nr.Rates[ri1].Range)/float64(nr.Size*nr.Size))
			}
		}
		med1 := stats.Median(f1)
		medians = append(medians, med1)
		res.Rows = append(res.Rows, []string{
			env, itoa(len(results)), f2(med1), f2(stats.Median(f48)), f2(stats.Mean(norm)),
		})
	}
	if len(medians) == 2 {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"indoor median (%.2f) should exceed outdoor (%.2f); paper: ≈0.15 vs ≈0.05", medians[0], medians[1]))
	}
	return res, nil
}

// abl6tAcc sweeps the hearing threshold, checking the thesis's remark that
// the hidden-triple results are not sensitive to it.
type abl6tAcc struct {
	censuses map[float64][]*hidden.NetworkResult
}

func (a *abl6tAcc) prepare(nv *NetView) error { return prepareHidden(nv, abl6tThresholds...) }

func (a *abl6tAcc) observe(nv *NetView) error {
	if nv.Data().Info.Band != "bg" {
		return nil
	}
	for _, th := range abl6tThresholds {
		nr, err := nv.Hidden(th)
		if err != nil {
			return err
		}
		a.censuses[th] = append(a.censuses[th], nr)
	}
	return nil
}

func (a *abl6tAcc) finalize(*StreamContext) (*Result, error) {
	ri := phy.BandBG.RateIndex("1M")
	res := &Result{Header: []string{"threshold", "median hidden frac @1M", "median hidden frac @24M"}}
	ri24 := phy.BandBG.RateIndex("24M")
	for _, th := range abl6tThresholds {
		var f1, f24 []float64
		for _, nr := range a.censuses[th] {
			if nr.Rates[ri].Relevant > 0 {
				f1 = append(f1, nr.Rates[ri].Fraction)
			}
			if nr.Rates[ri24].Relevant > 0 {
				f24 = append(f24, nr.Rates[ri24].Fraction)
			}
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%.0f%%", th*100), f2(stats.Median(f1)), f2(stats.Median(f24)),
		})
	}
	res.Notes = append(res.Notes,
		"the thesis reports results do not change significantly with the threshold (§6.1)")
	return res, nil
}
