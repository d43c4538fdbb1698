// Package phy models the 802.11 physical layer as the thesis needs it: the
// set of transmit bit rates for 802.11b/g and 802.11n (20 MHz), their
// modulation families, and an SNR→packet-success model per rate.
//
// The reception model is a logistic curve per rate: success probability
// rises from ~0 to ~1 around a modulation-specific SNR midpoint. Two
// modeling choices matter for reproducing the paper:
//
//   - DSSS rates (1 and 11 Mbit/s in 802.11b) have lower midpoints and
//     shallower slopes than OFDM rates of comparable speed — DSSS is known
//     to have better reception at low SNR, which is the paper's explanation
//     for 11 Mbit/s showing fewer hidden triples than 6 Mbit/s (§6.1).
//   - Midpoints increase with the bit rate within a modulation family, so
//     range shrinks as rate grows (§6.2).
//
// Throughput follows the thesis definition: bit rate × packet success rate
// (§3.1.2).
package phy

import (
	"fmt"
	"math"
)

// Modulation is the modulation/coding family of a bit rate. The thesis
// distinguishes DSSS (1, 11 Mbit/s) from OFDM (everything else) because
// their low-SNR reception properties differ.
type Modulation int

const (
	// DSSS is direct-sequence spread spectrum (802.11b rates).
	DSSS Modulation = iota
	// OFDM is orthogonal frequency-division multiplexing (802.11a/g/n
	// rates).
	OFDM
)

// String returns the conventional name of the modulation family.
func (m Modulation) String() string {
	switch m {
	case DSSS:
		return "DSSS"
	case OFDM:
		return "OFDM"
	default:
		return fmt.Sprintf("Modulation(%d)", int(m))
	}
}

// Rate is one transmit bit rate configuration.
type Rate struct {
	// Name uniquely identifies the rate within its band (e.g. "11M",
	// "mcs9"). Names are the keys used in datasets.
	Name string
	// Mbps is the nominal PHY bit rate in Mbit/s. In 802.11n two MCS
	// indices can share an Mbps value (different stream counts), so Mbps
	// alone is not a key.
	Mbps float64
	// Mod is the modulation family.
	Mod Modulation
	// Streams is the number of spatial streams (1 for 802.11b/g).
	Streams int
	// MidSNR is the SNR (dB) at which packet success probability is 50%.
	MidSNR float64
	// Slope is the logistic slope parameter in dB; smaller is steeper.
	Slope float64
}

// SuccessProb returns the probability that a packet sent at rate r is
// received when the channel SNR is snr dB. The result is clamped to
// [0, 1] and is monotone non-decreasing in snr.
func (r Rate) SuccessProb(snr float64) float64 {
	// A real radio never achieves a perfect link; cap so even strong
	// links see occasional loss, matching the probe data's behaviour.
	const cap = 0.995
	x := -(snr - r.MidSNR) / r.Slope
	if x < -6 {
		// Saturated side: 1/(1+eˣ) > 1/(1+e⁻⁶) > 0.9975 > cap, so the
		// formula would return the cap too; skip its exponential. NaN
		// fails the comparison and takes the formula.
		return cap
	}
	p := 1 / (1 + math.Exp(x))
	if p > cap {
		return cap
	}
	return p
}

// Throughput returns the thesis's throughput metric for this rate given a
// loss rate in [0, 1]: bit rate × packet success rate, in Mbit/s.
func (r Rate) Throughput(loss float64) float64 {
	if loss < 0 {
		loss = 0
	}
	if loss > 1 {
		loss = 1
	}
	return r.Mbps * (1 - loss)
}

// Band is a set of bit rates probed together, i.e. "the rates of an
// 802.11b/g network" or "the rates of an 802.11n network".
type Band struct {
	// Name is "bg" or "n".
	Name string
	// Rates is ordered by increasing (Mbps, Streams). Index in this slice
	// is the rate's ID within the band.
	Rates []Rate
}

// BandBG is the 802.11b/g probed rate set. It matches the set the thesis
// evaluates (Figures 4.1–6.2): DSSS 1 and 11 Mbit/s plus OFDM 6, 12, 24,
// 36, and 48 Mbit/s. 54 Mbit/s is omitted because the production networks
// did not probe it frequently enough to evaluate (§4.1).
var BandBG = Band{
	Name: "bg",
	Rates: []Rate{
		{Name: "1M", Mbps: 1, Mod: DSSS, Streams: 1, MidSNR: 3.0, Slope: 3.0},
		{Name: "6M", Mbps: 6, Mod: OFDM, Streams: 1, MidSNR: 8.0, Slope: 1.6},
		{Name: "11M", Mbps: 11, Mod: DSSS, Streams: 1, MidSNR: 7.0, Slope: 3.0},
		{Name: "12M", Mbps: 12, Mod: OFDM, Streams: 1, MidSNR: 11.0, Slope: 1.6},
		{Name: "24M", Mbps: 24, Mod: OFDM, Streams: 1, MidSNR: 17.0, Slope: 1.8},
		{Name: "36M", Mbps: 36, Mod: OFDM, Streams: 1, MidSNR: 21.0, Slope: 1.8},
		{Name: "48M", Mbps: 48, Mod: OFDM, Streams: 1, MidSNR: 25.0, Slope: 2.0},
	},
}

// BandN is the 802.11n 20 MHz rate set, MCS 0–15 (one and two spatial
// streams). The thesis's 802.11n traffic used the 20 MHz channel (§3).
var BandN = Band{
	Name: "n",
	Rates: []Rate{
		{Name: "mcs0", Mbps: 6.5, Mod: OFDM, Streams: 1, MidSNR: 6.0, Slope: 1.6},
		{Name: "mcs1", Mbps: 13, Mod: OFDM, Streams: 1, MidSNR: 9.0, Slope: 1.6},
		{Name: "mcs2", Mbps: 19.5, Mod: OFDM, Streams: 1, MidSNR: 12.0, Slope: 1.6},
		{Name: "mcs3", Mbps: 26, Mod: OFDM, Streams: 1, MidSNR: 15.0, Slope: 1.8},
		{Name: "mcs4", Mbps: 39, Mod: OFDM, Streams: 1, MidSNR: 19.0, Slope: 1.8},
		{Name: "mcs5", Mbps: 52, Mod: OFDM, Streams: 1, MidSNR: 23.0, Slope: 1.8},
		{Name: "mcs6", Mbps: 58.5, Mod: OFDM, Streams: 1, MidSNR: 25.5, Slope: 2.0},
		{Name: "mcs7", Mbps: 65, Mod: OFDM, Streams: 1, MidSNR: 27.5, Slope: 2.0},
		{Name: "mcs8", Mbps: 13, Mod: OFDM, Streams: 2, MidSNR: 10.0, Slope: 1.8},
		{Name: "mcs9", Mbps: 26, Mod: OFDM, Streams: 2, MidSNR: 13.0, Slope: 1.8},
		{Name: "mcs10", Mbps: 39, Mod: OFDM, Streams: 2, MidSNR: 16.0, Slope: 1.8},
		{Name: "mcs11", Mbps: 52, Mod: OFDM, Streams: 2, MidSNR: 19.5, Slope: 2.0},
		{Name: "mcs12", Mbps: 78, Mod: OFDM, Streams: 2, MidSNR: 23.5, Slope: 2.0},
		{Name: "mcs13", Mbps: 104, Mod: OFDM, Streams: 2, MidSNR: 27.5, Slope: 2.2},
		{Name: "mcs14", Mbps: 117, Mod: OFDM, Streams: 2, MidSNR: 29.5, Slope: 2.2},
		{Name: "mcs15", Mbps: 130, Mod: OFDM, Streams: 2, MidSNR: 31.5, Slope: 2.2},
	},
}

// BandByName returns the band with the given name ("bg" or "n").
func BandByName(name string) (Band, error) {
	switch name {
	case BandBG.Name:
		return BandBG, nil
	case BandN.Name:
		return BandN, nil
	}
	return Band{}, fmt.Errorf("phy: unknown band %q", name)
}

// RateByName returns the rate with the given name and whether it exists.
func (b Band) RateByName(name string) (Rate, bool) {
	for _, r := range b.Rates {
		if r.Name == name {
			return r, true
		}
	}
	return Rate{}, false
}

// RateIndex returns the index of the named rate in b.Rates, or -1.
func (b Band) RateIndex(name string) int {
	for i, r := range b.Rates {
		if r.Name == name {
			return i
		}
	}
	return -1
}

// LowestRate returns the band's lowest bit rate (the rate preambles and
// link-layer ACKs use).
func (b Band) LowestRate() Rate {
	low := b.Rates[0]
	for _, r := range b.Rates[1:] {
		if r.Mbps < low.Mbps {
			low = r
		}
	}
	return low
}

// MaxMbps returns the band's highest nominal bit rate.
func (b Band) MaxMbps() float64 {
	var max float64
	for _, r := range b.Rates {
		if r.Mbps > max {
			max = r.Mbps
		}
	}
	return max
}
