package experiments

import (
	"fmt"
	"math"
	"sync"

	"meshlab/internal/dataset"
	"meshlab/internal/phy"
	"meshlab/internal/probe"
	"meshlab/internal/radio"
	"meshlab/internal/routing"
	"meshlab/internal/snr"
	"meshlab/internal/stats"
	"meshlab/internal/synth"
	"meshlab/internal/topology"
)

func init() {
	for _, a := range ablations {
		registerShared(a.id, a.title, ablationResult(a.id))
	}
}

// ablations compare a small probe-only b/g fleet against the same fleet
// with one radio-parameter mutation. Ablations deliberately use their own
// fixed-seed fleets rather than the run's, so that the default and
// ablated runs differ only in the mutated physics.
var ablations = []struct {
	id, title string
	// variant names the mutated fleet, which only this ablation uses.
	variant string
	mutate  func(*radio.Params)
	run     func(fleets map[string]*dataset.Fleet) (*Result, error)
}{
	{"abl4.off", "Ablation: per-link environment offsets drive per-link training's advantage",
		"no-offsets", func(p *radio.Params) { p.DisableOffsets = true }, abl4off},
	{"abl4.burst", "Ablation: interference bursts drive optimal-rate churn at fixed SNR",
		"no-bursts", func(p *radio.Params) { p.DisableBursts = true }, abl4burst},
	// Symmetric removes every per-direction divergence source: the
	// explicit direction offset, the per-direction environment offsets,
	// and interference bursts. Residual asymmetry is AR noise plus
	// loss-report sampling error.
	{"abl5.sym", "Ablation: link asymmetry drives the ETX1/ETX2 improvement gap",
		"symmetric", func(p *radio.Params) {
			p.DisableAsymmetry = true
			p.DisableOffsets = true
			p.DisableBursts = true
		}, abl5sym},
}

// ablationResults computes every ablation once per process. The results
// depend only on constants, so later runs reuse them. The fleets exist
// only while the results are computed: a process keeps three small
// tables, not four fleets. The ablations run one after another, so at
// most the default fleet and one mutated fleet are live at once; each
// step already fans out over the worker budget inside synthesis and the
// §4 kernels.
var ablationResults = sync.OnceValues(func() (map[string]*Result, error) {
	def, err := generateAblationFleet(nil)
	if err != nil {
		return nil, err
	}
	results := make(map[string]*Result, len(ablations))
	for _, a := range ablations {
		fleet, err := generateAblationFleet(a.mutate)
		if err != nil {
			return nil, err
		}
		res, err := a.run(map[string]*dataset.Fleet{"default": def, a.variant: fleet})
		if err != nil {
			return nil, err
		}
		results[a.id] = res
	}
	return results, nil
})

// ablationResult is one ablation's finalize: a private copy of the
// memoized Result, since Finalize writes ID and Title into what it gets.
func ablationResult(id string) func(*StreamContext) (*Result, error) {
	return func(*StreamContext) (*Result, error) {
		results, err := ablationResults()
		if err != nil {
			return nil, err
		}
		return results[id].clone(), nil
	}
}

func generateAblationFleet(mutate func(*radio.Params)) (*dataset.Fleet, error) {
	opts := synth.Options{
		Seed: 9090,
		Fleet: topology.FleetConfig{
			NumNetworks: 8, NumIndoor: 6, NumOutdoor: 2, NumMixed: 0,
			NumN: 0, NumBoth: 0, MinSize: 8, MaxSize: 16,
			SizeLogMean: 2.3, SizeLogStd: 0.3,
		},
		Probe:       probe.Config{Duration: 3 * 3600, ReportInterval: 300},
		SkipClients: true,
	}
	if mutate != nil {
		opts.RadioParams = func(outdoor bool) radio.Params {
			env := radio.Indoor
			if outdoor {
				env = radio.Outdoor
			}
			p := radio.DefaultParams(env)
			mutate(&p)
			return p
		}
	}
	return synth.Generate(opts)
}

// abl4off removes the hidden per-link environment offsets and measures how
// much of per-link training's advantage over global training survives.
func abl4off(fleets map[string]*dataset.Fleet) (*Result, error) {
	res := &Result{Header: []string{
		"variant", "exact frac (global)", "exact frac (link)", "advantage (link−global)",
	}}
	var gaps []float64
	for _, variant := range []string{"default", "no-offsets"} {
		fleet := fleets[variant]
		samples, err := snr.Flatten(fleet.ByBand("bg"))
		if err != nil {
			return nil, err
		}
		pen := snr.Penalty(samples, len(phy.BandBG.Rates), []snr.Scope{snr.Global, snr.Link})
		gap := pen[1].ExactFrac - pen[0].ExactFrac
		gaps = append(gaps, gap)
		res.Rows = append(res.Rows, []string{
			variant, f2(pen[0].ExactFrac), f2(pen[1].ExactFrac), f2(gap),
		})
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"removing per-link offsets should shrink the link-over-global advantage: %.2f → %.2f",
		gaps[0], gaps[1]))
	return res, nil
}

// abl4burst removes interference bursts and measures how often an SNR's
// optimal rate churns over time on a single link.
func abl4burst(fleets map[string]*dataset.Fleet) (*Result, error) {
	res := &Result{Header: []string{"variant", "(link,SNR) cells", "frac cells with churn"}}
	var churns []float64
	for _, variant := range []string{"default", "no-bursts"} {
		fleet := fleets[variant]
		samples, err := snr.Flatten(fleet.ByBand("bg"))
		if err != nil {
			return nil, err
		}
		// Count (link, SNR) cells whose Popt was not constant.
		type cellKey struct {
			link string
			snr  int
		}
		first := make(map[cellKey]int)
		churned := make(map[cellKey]bool)
		for i := range samples {
			s := &samples[i]
			k := cellKey{link: snr.Link.Key(s), snr: s.SNR}
			if prev, ok := first[k]; ok {
				if prev != s.Popt {
					churned[k] = true
				}
			} else {
				first[k] = s.Popt
			}
		}
		frac := 0.0
		if len(first) > 0 {
			frac = float64(len(churned)) / float64(len(first))
		}
		churns = append(churns, frac)
		res.Rows = append(res.Rows, []string{variant, itoa(len(first)), f2(frac)})
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"bursts (plus residual channel noise) cause same-SNR optimal-rate churn: %.2f with bursts vs %.2f without",
		churns[0], churns[1]))
	return res, nil
}

// abl5sym removes per-direction asymmetry and measures the ETX2-over-ETX1
// improvement gap.
func abl5sym(fleets map[string]*dataset.Fleet) (*Result, error) {
	res := &Result{Header: []string{
		"variant", "mean |log asym ratio|", "median improvement ETX1 @1M", "median improvement ETX2 @1M", "gap",
	}}
	ri := phy.BandBG.RateIndex("1M")
	var gaps, asyms []float64
	for _, variant := range []string{"default", "symmetric"} {
		fleet := fleets[variant]
		// Asymmetry magnitude: mean |log(fwd/rev)| over measured pairs.
		var asymSum float64
		asymN := 0
		for _, nd := range fleet.ByBand("bg") {
			ms, err := routing.SuccessMatrices(nd)
			if err != nil {
				return nil, err
			}
			for _, ratio := range routing.AsymmetryRatios(ms[ri]) {
				asymSum += math.Abs(math.Log(ratio))
				asymN++
			}
		}
		asym := 0.0
		if asymN > 0 {
			asym = asymSum / float64(asymN)
		}
		asyms = append(asyms, asym)

		med := map[routing.Variant]float64{}
		for _, variant := range []routing.Variant{routing.ETX1, routing.ETX2} {
			var imps []float64
			for _, nd := range fleet.ByBand("bg") {
				if nd.NumAPs() < 5 {
					continue
				}
				ms, err := routing.SuccessMatrices(nd)
				if err != nil {
					return nil, err
				}
				for _, pr := range routing.Improvements(ms[ri], variant) {
					imps = append(imps, pr.Improvement)
				}
			}
			med[variant] = stats.Median(imps)
		}
		gap := med[routing.ETX2] - med[routing.ETX1]
		gaps = append(gaps, gap)
		res.Rows = append(res.Rows, []string{
			variant, fmt.Sprintf("%.4f", asym),
			fmt.Sprintf("%.4f", med[routing.ETX1]), fmt.Sprintf("%.4f", med[routing.ETX2]),
			fmt.Sprintf("%.4f", gap),
		})
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"disabling asymmetry collapses the measured link asymmetry (%.3f → %.3f; residual comes from independent per-direction sampling noise) and should not widen the ETX2−ETX1 gap (%.3f → %.3f, much of which ETX2's squared link costs cause regardless)",
		asyms[0], asyms[1], gaps[0], gaps[1]))
	return res, nil
}
