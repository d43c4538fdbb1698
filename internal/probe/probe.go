// Package probe implements the Meraki-style inter-AP probing machinery
// (§3.1 of the thesis): every AP broadcasts probes at each bit rate every
// 40 seconds; nodes report, every 300 seconds, the per-rate mean loss over
// the past 800-second sliding window together with the SNR of the window's
// received probes. A collection run replays this protocol over a mesh.Net
// for a configured duration and produces the dataset.NetworkData the
// analyses consume.
//
// For efficiency the ~20 probes per rate per window are not individually
// Bernoulli-sampled; the received count is drawn from the normal
// approximation to the binomial around the channel's analytic success
// probability, which preserves both the mean and the 1/20-quantized
// sampling noise of real loss reports.
//
// A collection step has a parallel phase and a serial one. The parallel
// phase advances every channel and integrates its per-rate faded success
// probabilities; each channel draws only from its own rng split, so pairs
// fan out across the worker budget. The serial phase draws the window
// noise from the one collection stream, in link order, reading only what
// the parallel phase wrote into a step buffer. Two buffers let step s+1's
// parallel phase run while step s samples, so the serial sampling — not
// the channel integration — bounds a large network's collection time, and
// the dataset stays byte-identical at any worker budget.
package probe

import (
	"math"
	"math/bits"
	"sync"

	"meshlab/internal/conc"
	"meshlab/internal/dataset"
	"meshlab/internal/mesh"
	"meshlab/internal/radio"
	"meshlab/internal/rng"
)

// Config controls a probe collection run. Zero fields take the thesis's
// defaults.
type Config struct {
	// Duration is the collection length in seconds (default 86400: the
	// thesis's 24-hour probe snapshot).
	Duration float64
	// ReportInterval is the seconds between probe-set reports (default
	// 300, the Meraki reporting rate).
	ReportInterval float64
	// ProbesPerRate is the number of probes aggregated per rate per
	// window (default 20 ≈ 800 s window / 40 s probe period).
	ProbesPerRate int
}

// Normalized returns the config with the package defaults applied, so
// two configs can be compared for effective equality.
func (c Config) Normalized() Config { return c.withDefaults() }

func (c Config) withDefaults() Config {
	if c.Duration <= 0 {
		c.Duration = 86400
	}
	if c.ReportInterval <= 0 {
		c.ReportInterval = 300
	}
	if c.ProbesPerRate <= 0 {
		c.ProbesPerRate = 20
	}
	return c
}

// NetworkInfo derives the dataset description of a live mesh network.
func NetworkInfo(net *mesh.Net) dataset.NetworkInfo {
	info := dataset.NetworkInfo{
		Name:    net.Topo.Name,
		Band:    net.Band.Name,
		Env:     net.Topo.Env.String(),
		Spacing: net.Topo.Spacing,
	}
	for _, ap := range net.Topo.APs {
		info.APs = append(info.APs, dataset.APInfo{
			Name: ap.Name, X: ap.X, Y: ap.Y, Outdoor: ap.Outdoor,
		})
	}
	return info
}

// Collect runs the probe protocol over net and returns the collected
// network data. All sampling noise derives from r, so runs are
// reproducible given the same net state. Directed links that never deliver
// a probe are omitted, matching the real dataset where unheard neighbors
// simply produce no entries.
//
// Each report step has two phases. The expensive one — advancing every
// pair's channel state and integrating the per-rate faded success
// probabilities — is deterministic per pair (each channel owns its own
// seed-derived rng split), so it fans across the process worker budget
// (internal/conc) into a step buffer: per directed link, its probability
// row and its slow SNR deviation, the only mutable channel state the
// sampling reads. The sampling noise then draws from the shared
// collection stream serially, from that buffer alone, in directed-link
// order: the probabilities decide how many draws each probe set
// consumes, and they are bit-identical in any schedule.
//
// Because sampling reads only its step's buffer, the phases overlap on
// two buffers: with a budget above 1, step s+1's advance runs on the
// worker pool while step s samples on the calling goroutine, and the two
// join before the buffers swap. At budget 1 the same loop runs the
// phases one after the other and starts no goroutine. The collected
// dataset is byte-identical at any budget.
func Collect(r *rng.Stream, net *mesh.Net, cfg Config) *dataset.NetworkData {
	cfg = cfg.withDefaults()
	cr := r.Split("collect")

	nd := &dataset.NetworkData{Info: NetworkInfo(net)}
	// Directed link index di = 2*pairIdx + {0: fwd, 1: rev}.
	nl := 2 * len(net.Pairs)
	nr := len(net.Band.Rates)
	// links[di] accumulates the probe sets of directed link di; consts[di]
	// holds the channel values the sampling reads that never change.
	links := make([]*dataset.Link, nl)
	consts := make([]linkConsts, nl)
	for pi, lp := range net.Pairs {
		consts[2*pi] = newLinkConsts(lp.Pair.Fwd)
		consts[2*pi+1] = newLinkConsts(lp.Pair.Rev)
	}

	steps := int(cfg.Duration / cfg.ReportInterval)
	cur, next := newStepBuf(nl, nr), newStepBuf(nl, nr)
	// advance fills b with the next step's channel state. Pair tasks write
	// disjoint ranges.
	advance := func(b *stepBuf) {
		_ = conc.ForEach(len(net.Pairs), func(pi int) error {
			lp := net.Pairs[pi]
			for dir, ch := range [2]*radio.Channel{lp.Pair.Fwd, lp.Pair.Rev} {
				ch.Advance(cfg.ReportInterval)
				di := 2*pi + dir
				b.slow[di] = ch.SlowDeviation()
				eff := ch.EffectiveSNR()
				fadeStd := ch.Params().FadeStd
				row := b.probs[di*nr : (di+1)*nr]
				for ri, rate := range net.Band.Rates {
					row[ri] = radio.FadedSuccess(rate, eff, fadeStd)
				}
			}
			return nil
		})
	}
	// sample draws step's probe sets from b on the calling goroutine.
	counts := make([]int, nr)
	rows := newObsRows(nr, cfg.ProbesPerRate)
	sample := func(b *stepBuf, step int) {
		t := int32(float64(step) * cfg.ReportInterval)
		for pi, lp := range net.Pairs {
			for dir := 0; dir < 2; dir++ {
				from, to := lp.I, lp.J
				if dir == 1 {
					from, to = lp.J, lp.I
				}
				di := 2*pi + dir
				ps, ok := sampleProbeSet(cr, b.probs[di*nr:(di+1)*nr], b.slow[di], consts[di], t, cfg.ProbesPerRate, counts, rows)
				if !ok {
					continue
				}
				if links[di] == nil {
					links[di] = &dataset.Link{From: from, To: to}
				}
				links[di].Sets = append(links[di].Sets, ps)
			}
		}
	}

	overlap := conc.Budget() > 1
	var wg sync.WaitGroup
	defer wg.Wait() // join the advance even if sampling panics
	if steps > 0 {
		advance(cur)
	}
	for step := 1; step <= steps; step++ {
		last := step == steps
		if !last && overlap {
			wg.Add(1)
			b := next
			spawn(func() {
				defer wg.Done()
				advance(b)
			})
		}
		sample(cur, step)
		if !last {
			if overlap {
				wg.Wait()
			} else {
				advance(next)
			}
		}
		cur, next = next, cur
	}
	for _, l := range links {
		if l != nil {
			nd.Links = append(nd.Links, l)
		}
	}
	return nd
}

// spawn starts fn on a new goroutine. It is Collect's only goroutine
// start outside internal/conc; a var so tests can count the starts.
var spawn = func(fn func()) { go fn() }

// stepBuf is one report step's output of Collect's parallel phase, per
// directed link di: probs[di*nr+ri] is the delivery probability at rate
// ri and slow[di] the channel's slow SNR deviation after the advance.
type stepBuf struct {
	probs []float64
	slow  []float64
}

func newStepBuf(links, rates int) *stepBuf {
	return &stepBuf{probs: make([]float64, links*rates), slow: make([]float64, links)}
}

// linkConsts are the values of one directed channel that sampling reads
// and no advance changes.
type linkConsts struct {
	// mean is the long-term mean reported SNR.
	mean float64
	// measNoise is the per-report SNR measurement noise std.
	measNoise float64
	// stdBase is the within-window SNR std before jitter: per-reading
	// measurement noise plus the AR innovation accumulated across the
	// window's probes.
	stdBase float64
}

func newLinkConsts(ch *radio.Channel) linkConsts {
	params := ch.Params()
	innov := params.ARSigma * math.Sqrt(1-math.Exp(-2*40/params.ARTau))
	return linkConsts{
		mean:      ch.MeanSNR(),
		measNoise: params.MeasNoise,
		stdBase:   math.Sqrt(params.MeasNoise*params.MeasNoise + innov*innov*3),
	}
}

// sampleProbeSet produces one window's report for a directed channel, or
// ok=false when no probe at any rate was received (the neighbor was not
// heard this window). probs carries the channel's per-rate delivery
// probabilities and slow its slow SNR deviation, both from Collect's
// parallel phase; n is the number of probes per rate. counts (one entry
// per rate) stages the received counts, and a heard set takes its
// observation row from rows.
func sampleProbeSet(r *rng.Stream, probs []float64, slow float64, lc linkConsts, t int32, n int, counts []int, rows *obsRows) (dataset.ProbeSet, bool) {
	received := 0
	for ri, p := range probs {
		k := binomialApprox(r, n, p)
		received += k
		counts[ri] = k
	}
	if received == 0 {
		return dataset.ProbeSet{}, false
	}
	ps := dataset.ProbeSet{T: t, Obs: rows.row(counts)}

	// Median reported SNR over the window's received probes: the sample
	// median of ~n noisy readings around the slow link SNR. Its sampling
	// error shrinks like 1/sqrt(n).
	snr := lc.mean + slow +
		r.NormFloat64()*lc.measNoise/math.Sqrt(float64(received)+1)
	ps.SNR = int16(math.Round(snr))

	// Within-window SNR standard deviation (Figure 3.1's quantity): the
	// link's std base scaled by a sampled chi-like jitter. A small
	// fraction of windows straddle an abrupt channel shift and show a
	// heavier deviation, giving the CDF its >5 dB tail.
	jitter := math.Abs(1 + 0.3*r.NormFloat64())
	std := lc.stdBase * jitter
	if r.Bool(0.04) {
		std += 2 * r.ExpFloat64()
	}
	ps.SNRStd = float32(std)
	return ps, true
}

// obsRows builds one collection's observation rows from per-rate
// received counts, interning them: a large network's heard windows
// repeat a small set of rows, so sets with equal observations share one
// read-only row (len == cap), as sets from wire.Reader.Decode do, and the
// network holds one copy of each distinct row, not one per window.
type obsRows struct {
	n int
	// width is the bits a count takes in a key; rows is nil when a
	// collection's counts do not fit the 128-bit key, and then every
	// row is built afresh.
	width int
	rows  map[[2]uint64][]dataset.Obs
}

func newObsRows(rates, n int) *obsRows {
	o := &obsRows{n: n, width: bits.Len(uint(n))}
	if rates <= 2*(64/o.width) {
		o.rows = make(map[[2]uint64][]dataset.Obs)
	}
	return o
}

// row returns the observation row of counts: entry ri has RateIdx ri and
// the loss of counts[ri] received probes out of n.
func (o *obsRows) row(counts []int) []dataset.Obs {
	var key [2]uint64
	if o.rows != nil {
		per := 64 / o.width
		for i, k := range counts {
			key[i/per] |= uint64(k) << (uint(i%per) * uint(o.width))
		}
		if row, ok := o.rows[key]; ok {
			return row
		}
	}
	row := make([]dataset.Obs, len(counts))
	for ri, k := range counts {
		row[ri] = dataset.Obs{
			RateIdx: uint8(ri),
			Loss:    float32(1 - float64(k)/float64(o.n)),
		}
	}
	if o.rows != nil {
		o.rows[key] = row
	}
	return row
}

// binomialApprox draws from Binomial(n, p) via the normal approximation,
// clamped to [0, n]. For the ~20-trial windows probes use, the
// approximation error is far below the channel model's own uncertainty.
func binomialApprox(r *rng.Stream, n int, p float64) int {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	mean := float64(n) * p
	sd := math.Sqrt(float64(n) * p * (1 - p))
	k := int(math.Round(mean + sd*r.NormFloat64()))
	if k < 0 {
		k = 0
	}
	if k > n {
		k = n
	}
	return k
}
