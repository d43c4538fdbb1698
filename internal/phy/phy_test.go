package phy

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSuccessProbMonotoneInSNR(t *testing.T) {
	for _, band := range []Band{BandBG, BandN} {
		for _, r := range band.Rates {
			prev := -1.0
			for snr := -10.0; snr <= 60; snr += 0.5 {
				p := r.SuccessProb(snr)
				if p < prev {
					t.Fatalf("%s/%s: success not monotone at %v dB", band.Name, r.Name, snr)
				}
				if p < 0 || p > 1 {
					t.Fatalf("%s/%s: success %v out of [0,1]", band.Name, r.Name, p)
				}
				prev = p
			}
		}
	}
}

func TestSuccessProbMonotoneProperty(t *testing.T) {
	r := BandBG.Rates[4] // 24M
	f := func(a, b float64) bool {
		a = math.Mod(math.Abs(a), 80)
		b = math.Mod(math.Abs(b), 80)
		if a > b {
			a, b = b, a
		}
		return r.SuccessProb(a) <= r.SuccessProb(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSuccessCapped(t *testing.T) {
	for _, r := range BandBG.Rates {
		if p := r.SuccessProb(100); p > 0.995 {
			t.Fatalf("%s success %v exceeds cap", r.Name, p)
		}
	}
}

func TestMidpointIsHalf(t *testing.T) {
	for _, r := range BandBG.Rates {
		if p := r.SuccessProb(r.MidSNR); math.Abs(p-0.5) > 1e-9 {
			t.Fatalf("%s: success at midpoint = %v, want 0.5", r.Name, p)
		}
	}
}

func TestDSSSBeatsOFDMAtLowSNR(t *testing.T) {
	// The 6-vs-11 Mbit/s inversion: at low SNR the DSSS 11 Mbit/s rate
	// must be received at least as well as OFDM 6 Mbit/s (§6.1).
	r6, _ := BandBG.RateByName("6M")
	r11, _ := BandBG.RateByName("11M")
	for snr := 0.0; snr <= 7; snr++ {
		if r11.SuccessProb(snr) < r6.SuccessProb(snr) {
			t.Fatalf("at %v dB: P(11M)=%v < P(6M)=%v", snr, r11.SuccessProb(snr), r6.SuccessProb(snr))
		}
	}
}

func TestOFDMMidpointsIncreaseWithRate(t *testing.T) {
	var prevMid, prevMbps float64
	for _, r := range BandBG.Rates {
		if r.Mod != OFDM {
			continue
		}
		if r.Mbps > prevMbps && r.MidSNR <= prevMid && prevMbps != 0 {
			t.Fatalf("OFDM midpoints not increasing at %s", r.Name)
		}
		prevMid, prevMbps = r.MidSNR, r.Mbps
	}
}

func TestThroughputDefinition(t *testing.T) {
	r, _ := BandBG.RateByName("24M")
	if got := r.Throughput(0.25); math.Abs(got-18) > 1e-12 {
		t.Fatalf("Throughput(0.25) = %v, want 18", got)
	}
	if got := r.Throughput(0); got != 24 {
		t.Fatalf("Throughput(0) = %v", got)
	}
	if got := r.Throughput(1); got != 0 {
		t.Fatalf("Throughput(1) = %v", got)
	}
	// Out-of-range losses clamp.
	if got := r.Throughput(-0.5); got != 24 {
		t.Fatalf("Throughput(-0.5) = %v", got)
	}
	if got := r.Throughput(1.5); got != 0 {
		t.Fatalf("Throughput(1.5) = %v", got)
	}
}

func TestBandBGComposition(t *testing.T) {
	if len(BandBG.Rates) != 7 {
		t.Fatalf("BG band has %d rates, want 7", len(BandBG.Rates))
	}
	wantMbps := []float64{1, 6, 11, 12, 24, 36, 48}
	for i, w := range wantMbps {
		if BandBG.Rates[i].Mbps != w {
			t.Fatalf("BG rate %d = %v Mbps, want %v", i, BandBG.Rates[i].Mbps, w)
		}
	}
	dsss := 0
	for _, r := range BandBG.Rates {
		if r.Mod == DSSS {
			dsss++
		}
	}
	if dsss != 2 {
		t.Fatalf("BG band has %d DSSS rates, want 2 (1M and 11M)", dsss)
	}
}

func TestBandNComposition(t *testing.T) {
	if len(BandN.Rates) != 16 {
		t.Fatalf("N band has %d rates, want 16 (MCS 0-15)", len(BandN.Rates))
	}
	names := map[string]bool{}
	for _, r := range BandN.Rates {
		if names[r.Name] {
			t.Fatalf("duplicate rate name %s", r.Name)
		}
		names[r.Name] = true
		if r.Mod != OFDM {
			t.Fatalf("802.11n rate %s is not OFDM", r.Name)
		}
	}
	// Two-stream MCS of the same nominal Mbps needs a bit more SNR than
	// a single-stream MCS with the same modulation order would, and Mbps
	// values legitimately repeat across stream counts.
	m8, _ := BandN.RateByName("mcs8")
	m1, _ := BandN.RateByName("mcs1")
	if m8.Mbps != m1.Mbps {
		t.Fatalf("mcs1 and mcs8 should share 13 Mbps")
	}
	if m8.MidSNR <= m1.MidSNR {
		t.Fatalf("two-stream MCS should need more SNR")
	}
}

func TestNHasMoreRatesThanBG(t *testing.T) {
	// §4's contrast depends on 802.11n having significantly more rates.
	if len(BandN.Rates) <= len(BandBG.Rates) {
		t.Fatal("802.11n must have more rates than 802.11b/g")
	}
}

func TestBandByName(t *testing.T) {
	b, err := BandByName("bg")
	if err != nil || b.Name != "bg" {
		t.Fatalf("BandByName(bg) = %v, %v", b.Name, err)
	}
	b, err = BandByName("n")
	if err != nil || b.Name != "n" {
		t.Fatalf("BandByName(n) = %v, %v", b.Name, err)
	}
	if _, err := BandByName("ac"); err == nil {
		t.Fatal("unknown band should error")
	}
}

func TestRateLookups(t *testing.T) {
	r, ok := BandBG.RateByName("36M")
	if !ok || r.Mbps != 36 {
		t.Fatalf("RateByName(36M) = %+v, %v", r, ok)
	}
	if _, ok := BandBG.RateByName("99M"); ok {
		t.Fatal("nonexistent rate found")
	}
	if i := BandBG.RateIndex("1M"); i != 0 {
		t.Fatalf("RateIndex(1M) = %d", i)
	}
	if i := BandBG.RateIndex("nope"); i != -1 {
		t.Fatalf("RateIndex(nope) = %d", i)
	}
}

func TestLowestRateAndMax(t *testing.T) {
	if r := BandBG.LowestRate(); r.Name != "1M" {
		t.Fatalf("BG lowest = %s", r.Name)
	}
	if r := BandN.LowestRate(); r.Name != "mcs0" {
		t.Fatalf("N lowest = %s", r.Name)
	}
	if m := BandBG.MaxMbps(); m != 48 {
		t.Fatalf("BG max = %v", m)
	}
	if m := BandN.MaxMbps(); m != 130 {
		t.Fatalf("N max = %v", m)
	}
}

func TestModulationString(t *testing.T) {
	if DSSS.String() != "DSSS" || OFDM.String() != "OFDM" {
		t.Fatal("modulation names wrong")
	}
	if Modulation(9).String() != "Modulation(9)" {
		t.Fatal("unknown modulation formatting wrong")
	}
}

func BenchmarkSuccessProb(b *testing.B) {
	r := BandBG.Rates[4]
	for i := 0; i < b.N; i++ {
		_ = r.SuccessProb(float64(i % 40))
	}
}

// successProbFormula is the unshortened success curve: SuccessProb must
// return exactly its bits for every input.
func successProbFormula(r Rate, snr float64) float64 {
	p := 1 / (1 + math.Exp(-(snr-r.MidSNR)/r.Slope))
	if p > 0.995 {
		return 0.995
	}
	return p
}

// TestSuccessProbMatchesFormula referees SuccessProb's saturated-side
// shortcut against the formula bit for bit: every rate of both bands plus
// degenerate slopes, across an SNR sweep, at the shortcut's edge and at
// the non-finite inputs.
func TestSuccessProbMatchesFormula(t *testing.T) {
	rates := append(append([]Rate{}, BandBG.Rates...), BandN.Rates...)
	rates = append(rates,
		Rate{Name: "flat", Mbps: 1, MidSNR: 5, Slope: 0},
		Rate{Name: "falling", Mbps: 1, MidSNR: 5, Slope: -2},
	)
	check := func(r Rate, snr float64) {
		t.Helper()
		got, want := r.SuccessProb(snr), successProbFormula(r, snr)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s (slope %v): SuccessProb(%v) = %v (%#x), formula %v (%#x)",
				r.Name, r.Slope, snr, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for _, r := range rates {
		for i := -60 * 64; i <= 90*64; i++ {
			check(r, float64(i)/64)
		}
		for _, snr := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			check(r, snr)
		}
		if r.Slope == 0 {
			continue
		}
		// The SNRs whose x = -(snr-MidSNR)/Slope lands on -6 and on its
		// float64 neighbours, and a few ulps either side of them.
		edge := r.MidSNR + 6*r.Slope
		for _, snr := range []float64{edge, math.Nextafter(edge, math.Inf(1)), math.Nextafter(edge, math.Inf(-1))} {
			s := snr
			for k := 0; k < 4; k++ {
				check(r, s)
				s = math.Nextafter(s, math.Inf(-1))
			}
			s = snr
			for k := 0; k < 4; k++ {
				check(r, s)
				s = math.Nextafter(s, math.Inf(1))
			}
		}
	}
	// The shortcut's own threshold, both sides: a slope of 1 and a
	// midpoint of 0 make x = -snr exactly.
	unit := Rate{Name: "unit", Mbps: 1, Slope: 1}
	for _, x := range []float64{-6, math.Nextafter(-6, 0), math.Nextafter(-6, math.Inf(-1))} {
		check(unit, -x)
	}
}
