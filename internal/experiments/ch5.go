package experiments

import (
	"fmt"
	"math"
	"sort"

	"meshlab/internal/binio"
	"meshlab/internal/dataset"
	"meshlab/internal/phy"
	"meshlab/internal/routing"
	"meshlab/internal/stats"
	"meshlab/internal/textplot"
)

func init() {
	register("fig5.1", "Improvement of opportunistic routing over ETX1 and ETX2",
		func() accumulator { return newFig51Acc() })
	register("fig5.2", "Link asymmetry (forward/reverse delivery ratio)",
		func() accumulator { return &fig52Acc{ratios: map[int][]float64{}} })
	register("fig5.3", "Path length CDF per bit rate",
		func() accumulator { return &fig53Acc{hops: map[int][]float64{}} })
	register("fig5.4", "Opportunistic improvement vs path length",
		func() accumulator { return &fig54Acc{byHops: map[int][]float64{}} })
	register("fig5.5", "Opportunistic improvement vs network size (1 Mbit/s)",
		func() accumulator { return &fig55Acc{} })
}

// plotRate is the b/g rate whose distributions fig5.1 and fig5.2 plot.
var plotRate = phy.BandBG.RateIndex("1M")

// routable reports whether a network belongs to §5's analyzed population:
// b/g with at least five APs.
func routable(nd *dataset.NetworkData) bool {
	return nd.Info.Band == "bg" && nd.NumAPs() >= 5
}

// fig51Acc reproduces Figure 5.1: the distribution of per-pair improvement
// of idealized opportunistic routing over ETX1 and ETX2, per bit rate,
// over all b/g networks with at least five APs.
type fig51Acc struct {
	nets        int
	imps        map[impKey][]float64
	none, small map[impKey]int
}

func (a *fig51Acc) state() []binio.Cell {
	return []binio.Cell{
		binio.Counter(&a.nets),
		binio.ListMap(&a.imps, impKeyCodec, binio.FloatCodec),
		binio.CountMap(&a.none, impKeyCodec),
		binio.CountMap(&a.small, impKeyCodec),
	}
}

func newFig51Acc() *fig51Acc {
	return &fig51Acc{
		imps:  map[impKey][]float64{},
		none:  map[impKey]int{},
		small: map[impKey]int{},
	}
}

func (a *fig51Acc) observe(nv *NetView) error {
	if !routable(nv.Data()) {
		return nil
	}
	a.nets++
	for _, v := range []routing.Variant{routing.ETX1, routing.ETX2} {
		for ri := range phy.BandBG.Rates {
			prs, err := nv.Improvements(ri, v)
			if err != nil {
				return err
			}
			k := impKey{rate: ri, variant: v}
			for _, pr := range prs {
				a.imps[k] = append(a.imps[k], pr.Improvement)
				if pr.Improvement < 1e-9 {
					a.none[k]++
				}
				if pr.Improvement <= 0.05 {
					a.small[k]++
				}
			}
		}
	}
	return nil
}

func (a *fig51Acc) finalize(*StreamContext) (*Result, error) {
	if a.nets == 0 {
		return nil, fmt.Errorf("no b/g networks with ≥5 APs")
	}
	res := &Result{Header: []string{
		"variant", "rate", "pairs", "frac no improvement", "frac ≤5%", "median", "mean", "p90",
	}}
	for _, v := range []routing.Variant{routing.ETX1, routing.ETX2} {
		for ri, rate := range phy.BandBG.Rates {
			k := impKey{rate: ri, variant: v}
			imps := a.imps[k]
			if len(imps) == 0 {
				continue
			}
			cdf := stats.NewCDF(imps)
			if v == routing.ETX1 && ri == plotRate {
				res.Plot = textplot.CDFOf(cdf, 60, 14, "ETX1 improvement @1M")
			}
			res.Rows = append(res.Rows, []string{
				v.String(), rate.Name, itoa(len(imps)),
				f2(float64(a.none[k]) / float64(len(imps))),
				f2(float64(a.small[k]) / float64(len(imps))),
				f2(cdf.Quantile(0.5)), f2(stats.Mean(imps)), f2(cdf.Quantile(0.9)),
			})
		}
	}
	res.Notes = append(res.Notes,
		"paper: ETX1 mean improvement 0.09-0.11, median 0.05-0.08, 13-20% of pairs see none; ETX2 gains are far larger",
		"the simulator's channel diversity makes exact zeros rarer than in the paper; 'frac ≤5%' is the comparable small-gain population")
	return res, nil
}

// fig52Acc reproduces Figure 5.2: the CDF of forward/reverse delivery
// ratios per bit rate, over every b/g network.
type fig52Acc struct {
	ratios map[int][]float64
}

func (a *fig52Acc) state() []binio.Cell {
	return []binio.Cell{binio.ListMap(&a.ratios, binio.IntCodec, binio.FloatCodec)}
}

func (a *fig52Acc) observe(nv *NetView) error {
	if nv.Data().Info.Band != "bg" {
		return nil
	}
	ms, err := nv.Matrices()
	if err != nil {
		return err
	}
	for ri := range phy.BandBG.Rates {
		a.ratios[ri] = append(a.ratios[ri], routing.AsymmetryRatios(ms[ri])...)
	}
	return nil
}

func (a *fig52Acc) finalize(*StreamContext) (*Result, error) {
	res := &Result{Header: []string{"rate", "pairs", "p10", "median", "p90", "frac within ±25%"}}
	for ri, rate := range phy.BandBG.Rates {
		ratios := a.ratios[ri]
		cdf := stats.NewCDF(ratios)
		if ri == plotRate {
			res.Plot = textplot.CDFOf(cdf, 60, 14, "fwd/rev delivery ratio @1M")
		}
		if len(ratios) == 0 {
			continue
		}
		within := 0
		for _, r := range ratios {
			if r >= 0.8 && r <= 1.25 {
				within++
			}
		}
		res.Rows = append(res.Rows, []string{
			rate.Name, itoa(len(ratios)),
			f2(cdf.Quantile(0.1)), f2(cdf.Quantile(0.5)), f2(cdf.Quantile(0.9)),
			f2(float64(within) / float64(len(ratios))),
		})
	}
	res.Notes = append(res.Notes,
		"asymmetry exists but is moderate and does not change much with bit rate (paper Fig 5.2)")
	return res, nil
}

// fig53Acc reproduces Figure 5.3: the CDF of ETX1 shortest-path hop
// counts per bit rate.
type fig53Acc struct {
	hops map[int][]float64
}

func (a *fig53Acc) state() []binio.Cell {
	return []binio.Cell{binio.ListMap(&a.hops, binio.IntCodec, binio.FloatCodec)}
}

func (a *fig53Acc) observe(nv *NetView) error {
	if !routable(nv.Data()) {
		return nil
	}
	for ri := range phy.BandBG.Rates {
		prs, err := nv.Improvements(ri, routing.ETX1)
		if err != nil {
			return err
		}
		for _, pr := range prs {
			a.hops[ri] = append(a.hops[ri], float64(pr.Hops))
		}
	}
	return nil
}

func (a *fig53Acc) finalize(*StreamContext) (*Result, error) {
	res := &Result{Header: []string{"rate", "pairs", "frac 1 hop", "frac ≤2", "frac ≤3", "mean", "max"}}
	for ri, rate := range phy.BandBG.Rates {
		hops := a.hops[ri]
		if len(hops) == 0 {
			continue
		}
		s, _ := stats.Summarize(hops)
		res.Rows = append(res.Rows, []string{
			rate.Name, itoa(len(hops)),
			f2(stats.FractionAtMost(hops, 1)),
			f2(stats.FractionAtMost(hops, 2)),
			f2(stats.FractionAtMost(hops, 3)),
			f2(s.Mean), itoa(int(s.Max)),
		})
	}
	res.Notes = append(res.Notes,
		"paths lengthen as the bit rate rises (range shrinks); at low rates most paths are 1-2 hops — the cause of ETX1's small gains")
	return res, nil
}

// fig54Acc reproduces Figure 5.4: median and maximum improvement versus
// path length, aggregated over all b/g rates under ETX1.
type fig54Acc struct {
	byHops map[int][]float64
}

func (a *fig54Acc) state() []binio.Cell {
	return []binio.Cell{binio.ListMap(&a.byHops, binio.IntCodec, binio.FloatCodec)}
}

func (a *fig54Acc) observe(nv *NetView) error {
	if !routable(nv.Data()) {
		return nil
	}
	for ri := range phy.BandBG.Rates {
		prs, err := nv.Improvements(ri, routing.ETX1)
		if err != nil {
			return err
		}
		for _, pr := range prs {
			a.byHops[pr.Hops] = append(a.byHops[pr.Hops], pr.Improvement)
		}
	}
	return nil
}

func (a *fig54Acc) finalize(*StreamContext) (*Result, error) {
	res := &Result{Header: []string{"path length (hops)", "pairs", "median improvement", "max improvement"}}
	var medians, maxima []float64
	for _, h := range sortedKeys(a.byHops) {
		imps := a.byHops[h]
		if h < 1 || len(imps) < 10 {
			continue
		}
		med := stats.Median(imps)
		max := 0.0
		for _, v := range imps {
			if v > max {
				max = v
			}
		}
		medians = append(medians, med)
		maxima = append(maxima, max)
		res.Rows = append(res.Rows, []string{itoa(h), itoa(len(imps)), f2(med), f2(max)})
	}
	if len(medians) >= 3 {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"median improvement trend with path length: Spearman %.2f (paper: increases); max improvement trend: Spearman %.2f (paper: decreases)",
			trend(medians), trend(maxima)))
	}
	return res, nil
}

// trend returns the Spearman correlation of a series against its index.
func trend(ys []float64) float64 {
	xs := make([]float64, len(ys))
	for i := range xs {
		xs[i] = float64(i)
	}
	return stats.Spearman(xs, ys)
}

// netPoint is one network's mean improvement at 1 Mbit/s (Figure 5.5).
type netPoint struct {
	size      int
	mean, std float64
}

// fig55Acc reproduces Figure 5.5: mean per-network improvement at
// 1 Mbit/s versus network size.
type fig55Acc struct {
	pts []netPoint
}

func (a *fig55Acc) state() []binio.Cell { return []binio.Cell{binio.List(&a.pts, netPointCodec)} }

func (a *fig55Acc) observe(nv *NetView) error {
	nd := nv.Data()
	if !routable(nd) {
		return nil
	}
	prs, err := nv.Improvements(phy.BandBG.RateIndex("1M"), routing.ETX1)
	if err != nil {
		return err
	}
	if len(prs) == 0 {
		return nil
	}
	var imps []float64
	for _, pr := range prs {
		imps = append(imps, pr.Improvement)
	}
	s, _ := stats.Summarize(imps)
	a.pts = append(a.pts, netPoint{size: nd.NumAPs(), mean: s.Mean, std: s.Std})
	return nil
}

func (a *fig55Acc) finalize(*StreamContext) (*Result, error) {
	pts := a.pts
	sort.Slice(pts, func(x, y int) bool { return pts[x].size < pts[y].size })

	b := stats.NewBinned(10)
	for _, p := range pts {
		b.Add(float64(p.size), p.mean)
	}
	res := &Result{Header: []string{"network size bucket", "networks", "mean improvement", "std across networks"}}
	for _, row := range b.Rows() {
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%.0f-%.0f", row.X-5, row.X+4), itoa(row.N), f2(row.Mean), f2(row.Std),
		})
	}
	// Correlation between size and mean improvement should be weak.
	var sizes, means []float64
	for _, p := range pts {
		sizes = append(sizes, float64(p.size))
		means = append(means, p.mean)
	}
	r := stats.Spearman(sizes, means)
	if math.IsNaN(r) {
		r = 0
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"size↔improvement Spearman correlation %.2f (paper: roughly flat — large networks also have many short paths)", r))
	return res, nil
}
