// Package radio models radio propagation and per-link channel dynamics for
// the synthetic mesh measurement substrate.
//
// The Meraki dataset the thesis analyzes is unavailable, so meshlab
// regenerates its statistical structure from a physical model. Each directed
// AP→AP link gets a Channel whose *reported* SNR (what an Atheros/MadWiFi
// radio would log on packet reception, §3.1.1) and *effective* SNR (what
// actually governs packet delivery) are deliberately distinct:
//
//   - Reported SNR = mean link SNR (path loss + shadowing + asymmetry)
//     plus a slowly varying AR(1) deviation and per-report measurement
//     noise. Its short-term standard deviation is a few dB, matching
//     Figure 3.1.
//   - Effective SNR = reported SNR + a persistent per-link environment
//     offset (multipath/steady interference that the SNR does not capture)
//     − any active interference-burst penalty.
//
// The gap between the two is what makes a per-link SNR→bit-rate table
// valuable and a network-wide one mediocre (§4), exactly as SGRA observed:
// "the SNR can overestimate channel quality in the presence of
// interference". Per-direction offsets create link asymmetry (§5.2.1), and
// lognormal shadowing plus the per-link offsets create the high variance of
// range across rates (§6.2).
package radio

import (
	"math"

	"meshlab/internal/phy"
	"meshlab/internal/rng"
)

// Environment classifies a network's deployment setting. Indoor networks
// are denser with harsher propagation; outdoor networks are sparser.
type Environment int

const (
	// Indoor is an in-building deployment.
	Indoor Environment = iota
	// Outdoor is an open-air deployment.
	Outdoor
)

// String returns "indoor" or "outdoor".
func (e Environment) String() string {
	if e == Outdoor {
		return "outdoor"
	}
	return "indoor"
}

// Params configures propagation and channel dynamics. The zero value is not
// useful; obtain defaults from DefaultParams and override fields as needed.
type Params struct {
	// RefSNR is the SNR in dB at the reference distance of 1 m
	// (transmit power − reference path loss − noise floor).
	RefSNR float64
	// PathLossExp is the log-distance path loss exponent.
	PathLossExp float64
	// ClutterLossPerM is additional attenuation in dB per meter beyond
	// ClutterRefDist, modeling the walls and obstacles that accumulate
	// between distant nodes. It steepens far-field falloff without
	// touching nearby links, which is what bounds the 1 Mbit/s hearing
	// range in real deployments (and therefore the §6 hidden-triple
	// census).
	ClutterLossPerM float64
	// ClutterRefDist is the distance in meters beyond which clutter
	// loss accrues.
	ClutterRefDist float64
	// ShadowStd is the lognormal shadowing standard deviation in dB,
	// drawn once per node pair (symmetric).
	ShadowStd float64
	// AsymStd is the standard deviation in dB of the per-direction
	// offset; it produces forward/reverse delivery asymmetry.
	AsymStd float64
	// OffsetStd is the standard deviation in dB of the persistent
	// per-link environment offset separating effective from reported SNR.
	OffsetStd float64
	// ARSigma is the stationary standard deviation in dB of the slow
	// AR(1) SNR deviation shared by reported and effective SNR.
	ARSigma float64
	// ARTau is the correlation time in seconds of the AR(1) process.
	ARTau float64
	// MeasNoise is the per-report SNR measurement noise std in dB.
	MeasNoise float64
	// FadeStd is the per-packet fast-fading std in dB applied to the
	// effective SNR when deciding individual probe receptions.
	FadeStd float64
	// BurstMeanRate is the mean arrival rate (events/second) of
	// interference bursts on a burst-prone link.
	BurstMeanRate float64
	// BurstProneFrac is the fraction of links that are burst-prone.
	BurstProneFrac float64
	// BurstMeanDur is the mean burst duration in seconds.
	BurstMeanDur float64
	// BurstPenaltyLo/Hi bound the uniform burst SNR penalty in dB.
	BurstPenaltyLo, BurstPenaltyHi float64

	// DisableOffsets removes the persistent per-link environment offsets
	// (ablation: per-link training should lose its advantage).
	DisableOffsets bool
	// DisableAsymmetry removes per-direction offsets (ablation: ETX1 and
	// ETX2 improvements should converge).
	DisableAsymmetry bool
	// DisableBursts removes interference bursts (ablation: the optimal
	// rate for a given SNR becomes far more stable over time).
	DisableBursts bool
}

// DefaultParams returns the calibrated parameter set for an environment.
func DefaultParams(env Environment) Params {
	p := Params{
		RefSNR:         75,
		ShadowStd:      6.5,
		AsymStd:        1.6,
		OffsetStd:      2.8,
		ARSigma:        1.8,
		ARTau:          300,
		MeasNoise:      0.8,
		FadeStd:        1.6,
		BurstMeanRate:  1.0 / 1800, // one burst per 30 min on prone links
		BurstProneFrac: 0.35,
		BurstMeanDur:   420,
		BurstPenaltyLo: 3,
		BurstPenaltyHi: 10,
	}
	switch env {
	case Indoor:
		p.PathLossExp = 3.3
		p.ShadowStd = 7.0
		p.BurstProneFrac = 0.45 // more interferers indoors
		p.ClutterLossPerM = 0.22
		p.ClutterRefDist = 15
	case Outdoor:
		p.PathLossExp = 2.9
		p.ShadowStd = 5.5
		p.BurstProneFrac = 0.2
		p.ClutterLossPerM = 0.02
		p.ClutterRefDist = 50
	}
	return p
}

// MeanSNR returns the deterministic mean SNR in dB at distance d meters
// (before shadowing), per the log-distance model.
func (p Params) MeanSNR(d float64) float64 {
	if d < 1 {
		d = 1
	}
	snr := p.RefSNR - 10*p.PathLossExp*math.Log10(d)
	if d > p.ClutterRefDist {
		snr -= p.ClutterLossPerM * (d - p.ClutterRefDist)
	}
	return snr
}

// Channel is the dynamic state of one *directed* link. Create pairs of
// channels with NewPair so that forward and reverse share shadowing.
type Channel struct {
	params Params
	// base is the long-term mean reported SNR (path loss + shadowing +
	// direction offset).
	base float64
	// offset is effective−reported: the hidden environment term.
	offset float64
	// ar is the current AR(1) deviation.
	ar float64
	// burstLeft is the remaining duration of an active burst (seconds).
	burstLeft float64
	// burstPenalty is the active burst's SNR penalty in dB.
	burstPenalty float64
	// burstRate is this link's Poisson burst arrival rate (0 if not
	// prone).
	burstRate float64
	rng       *rng.Stream

	// step caches Advance's per-dt constants for the last dt it saw.
	step advanceStep
}

// advanceStep holds the constants Advance derives from its dt: probe
// collection advances every channel by the same interval at every step,
// so they are computed once per channel, not once per call.
type advanceStep struct {
	// dt is the interval the constants are for; 0 until the first
	// Advance (which never sees dt ≤ 0).
	dt float64
	// rho is the AR(1) decay e^(−dt/τ), and innov the innovation scale
	// √(1−ρ²)·σ.
	rho, innov float64
	// burst is the probability of at least one burst arrival in dt.
	burst float64
}

// Pair holds the two directed channels between a pair of APs.
type Pair struct {
	Fwd *Channel
	Rev *Channel
	// Distance is the AP separation in meters.
	Distance float64
}

// NewPair creates the forward and reverse channels for two APs separated by
// d meters. The two directions share path loss and shadowing but have
// independent direction offsets, environment offsets, and dynamics, which
// is what produces asymmetric delivery.
func NewPair(r *rng.Stream, d float64, p Params) *Pair {
	shadow := r.NormFloat64() * p.ShadowStd
	mean := p.MeanSNR(d) + shadow
	mk := func(dir string) *Channel {
		cr := r.Split(dir)
		c := &Channel{params: p, rng: cr}
		c.base = mean
		if !p.DisableAsymmetry {
			c.base += cr.NormFloat64() * p.AsymStd
		}
		if !p.DisableOffsets {
			c.offset = cr.NormFloat64() * p.OffsetStd
		}
		if !p.DisableBursts && cr.Bool(p.BurstProneFrac) {
			// Prone links differ in how bursty they are.
			c.burstRate = p.BurstMeanRate * (0.5 + cr.ExpFloat64())
		}
		// Start the AR process in its stationary distribution.
		c.ar = cr.NormFloat64() * p.ARSigma
		return c
	}
	return &Pair{Fwd: mk("fwd"), Rev: mk("rev"), Distance: d}
}

// Advance moves the channel state forward by dt seconds: the AR(1)
// deviation decays toward zero with fresh innovation, active bursts burn
// down, and new bursts may arrive.
func (c *Channel) Advance(dt float64) {
	if dt <= 0 {
		return
	}
	if dt != c.step.dt {
		rho := math.Exp(-dt / c.params.ARTau)
		c.step = advanceStep{
			dt:    dt,
			rho:   rho,
			innov: math.Sqrt(1-rho*rho) * c.params.ARSigma,
			burst: 1 - math.Exp(-c.burstRate*dt),
		}
	}
	c.ar = c.step.rho*c.ar + c.step.innov*c.rng.NormFloat64()

	if c.burstLeft > 0 {
		c.burstLeft -= dt
		if c.burstLeft <= 0 {
			c.burstLeft = 0
			c.burstPenalty = 0
		}
	}
	if c.burstLeft == 0 && c.burstRate > 0 {
		// Probability of at least one arrival in dt.
		if c.rng.Bool(c.step.burst) {
			c.burstLeft = c.params.BurstMeanDur * (0.3 + c.rng.ExpFloat64())
			c.burstPenalty = c.rng.Range(c.params.BurstPenaltyLo, c.params.BurstPenaltyHi)
		}
	}
}

// ReportedSNR returns the SNR a received packet would be logged with right
// now: the slowly varying link SNR plus measurement noise. Successive calls
// model successive packet receptions.
func (c *Channel) ReportedSNR() float64 {
	return c.base + c.ar + c.rng.NormFloat64()*c.params.MeasNoise
}

// EffectiveSNR returns the SNR that governs delivery right now, including
// the hidden environment offset and any active interference burst.
func (c *Channel) EffectiveSNR() float64 {
	return c.base + c.ar + c.offset - c.burstPenalty
}

// MeanSNR returns the long-term mean reported SNR of the channel.
func (c *Channel) MeanSNR() float64 { return c.base }

// MeanEffectiveSNR returns the long-term mean effective SNR (no burst).
func (c *Channel) MeanEffectiveSNR() float64 { return c.base + c.offset }

// SuccessProb returns the instantaneous probability that a single packet at
// the given rate is delivered, integrating per-packet fast fading
// numerically (5-point Gauss-Hermite on the fading distribution).
func (c *Channel) SuccessProb(rate phy.Rate) float64 {
	return FadedSuccess(rate, c.EffectiveSNR(), c.params.FadeStd)
}

// gauss-Hermite abscissae/weights for n=5, for ∫ f(x) e^{-x²} dx.
var ghX = [5]float64{-2.0201828704560856, -0.9585724646138185, 0, 0.9585724646138185, 2.0201828704560856}
var ghW = [5]float64{0.019953242059045913, 0.39361932315224116, 0.9453087204829419, 0.39361932315224116, 0.019953242059045913}

// FadedSuccess returns the packet success probability at the given rate for
// a channel whose effective SNR is eff dB with Gaussian fast fading of
// fadeStd dB, averaging the PHY curve over the fading distribution.
func FadedSuccess(rate phy.Rate, eff, fadeStd float64) float64 {
	if fadeStd <= 0 {
		return rate.SuccessProb(eff)
	}
	var sum float64
	for i := range ghX {
		sum += ghW[i] * rate.SuccessProb(eff+math.Sqrt2*fadeStd*ghX[i])
	}
	return sum / math.SqrtPi
}

// SampleProbes simulates sending n probes at the given rate and returns how
// many were received, sampling per-probe fast fading.
func (c *Channel) SampleProbes(rate phy.Rate, n int) int {
	eff := c.EffectiveSNR()
	received := 0
	for i := 0; i < n; i++ {
		p := rate.SuccessProb(eff + c.rng.NormFloat64()*c.params.FadeStd)
		if c.rng.Bool(p) {
			received++
		}
	}
	return received
}

// InBurst reports whether an interference burst is currently active.
func (c *Channel) InBurst() bool { return c.burstLeft > 0 }

// SlowDeviation returns the current AR(1) deviation in dB. The probe
// scheduler uses it to estimate within-window SNR variability.
func (c *Channel) SlowDeviation() float64 { return c.ar }

// Params returns the channel's radio parameters.
func (c *Channel) Params() Params { return c.params }
