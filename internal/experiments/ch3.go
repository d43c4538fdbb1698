package experiments

import (
	"fmt"
	"slices"

	"meshlab/internal/dataset"
	"meshlab/internal/stats"
	"meshlab/internal/textplot"
)

func init() {
	register("fig3.1", "Standard deviation of SNR values (probe sets, links, networks)",
		func() accumulator { return &fig31Acc{} })
}

// fig31Acc reproduces Figure 3.1: the CDF of SNR standard deviations
// within a probe set, across each link's probe-set SNRs over time, and
// across each network's SNRs at large. Each network contributes its std
// series independently, so the census streams.
type fig31Acc struct {
	probeStds, linkStds, netStds []float64
}

func (a *fig31Acc) observe(nv *NetView) error {
	nd := nv.Data()
	sets := 0
	for _, l := range nd.Links {
		sets += len(l.Sets)
	}
	a.probeStds = slices.Grow(a.probeStds, sets)
	a.linkStds = slices.Grow(a.linkStds, len(nd.Links))
	netSNRs := make([]float64, 0, sets)
	for _, l := range nd.Links {
		start := len(netSNRs)
		for _, ps := range l.Sets {
			a.probeStds = append(a.probeStds, float64(ps.SNRStd))
			netSNRs = append(netSNRs, float64(ps.SNR))
		}
		if linkSNRs := netSNRs[start:]; len(linkSNRs) >= 2 {
			a.linkStds = append(a.linkStds, stats.Std(linkSNRs))
		}
	}
	if len(netSNRs) >= 2 {
		a.netStds = append(a.netStds, stats.Std(netSNRs))
	}
	return nil
}

// finalize sorts each series once, in place: the quantile rows and the
// median notes read the same sorted run.
func (a *fig31Acc) finalize(*StreamContext) (*Result, error) {
	if len(a.probeStds) == 0 {
		return nil, fmt.Errorf("no probe sets in fleet")
	}

	quants := []float64{0.10, 0.25, 0.50, 0.75, 0.90, 0.975, 0.99}
	res := &Result{Header: []string{"series", "n", "p10", "p25", "p50", "p75", "p90", "p97.5", "p99"}}
	series := []struct {
		name string
		cdf  *stats.CDF
	}{
		{"probe-sets", stats.NewCDFInPlace(a.probeStds)},
		{"links", stats.NewCDFInPlace(a.linkStds)},
		{"networks", stats.NewCDFInPlace(a.netStds)},
	}
	for _, sr := range series {
		row := []string{sr.name, itoa(sr.cdf.N())}
		for _, q := range quants {
			row = append(row, f2(sr.cdf.Quantile(q)))
		}
		res.Rows = append(res.Rows, row)
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"fraction of probe sets with SNR std < 5 dB = %.3f (paper: ~0.975)",
		stats.FractionAtMost(a.probeStds, 5)))
	res.Notes = append(res.Notes, fmt.Sprintf(
		"median per-network SNR spread %.1f dB vs per-probe-set %.1f dB (networks hold diverse links)",
		series[2].cdf.Quantile(0.5), series[0].cdf.Quantile(0.5)))
	res.Plot = textplot.CDFOf(series[0].cdf, 60, 14, "intra-probe-set SNR std (dB)")
	return res, nil
}

// linkSeries is a helper shared with tests: per-link probe-set SNR values.
func linkSeries(nd *dataset.NetworkData) map[string][]float64 {
	out := make(map[string][]float64)
	for _, l := range nd.Links {
		key := fmt.Sprintf("%d>%d", l.From, l.To)
		for _, ps := range l.Sets {
			out[key] = append(out[key], float64(ps.SNR))
		}
	}
	return out
}
