package radio

import (
	"math"
	"testing"

	"meshlab/internal/phy"
	"meshlab/internal/rng"
	"meshlab/internal/stats"
)

func TestMeanSNRDecreasesWithDistance(t *testing.T) {
	p := DefaultParams(Indoor)
	prev := math.Inf(1)
	for d := 1.0; d <= 200; d *= 2 {
		s := p.MeanSNR(d)
		if s >= prev {
			t.Fatalf("SNR not decreasing at %v m", d)
		}
		prev = s
	}
}

func TestMeanSNRClampsBelowOneMeter(t *testing.T) {
	p := DefaultParams(Indoor)
	if p.MeanSNR(0.01) != p.MeanSNR(1) {
		t.Fatal("distances below 1 m should clamp to the reference")
	}
}

func TestIndoorHarsherThanOutdoor(t *testing.T) {
	in, out := DefaultParams(Indoor), DefaultParams(Outdoor)
	if in.PathLossExp <= out.PathLossExp {
		t.Fatal("indoor path loss exponent should exceed outdoor")
	}
	if in.MeanSNR(50) >= out.MeanSNR(50) {
		t.Fatal("indoor SNR at 50 m should be below outdoor")
	}
}

func TestPairDeterminism(t *testing.T) {
	mk := func() *Pair { return NewPair(rng.New(99), 30, DefaultParams(Indoor)) }
	a, b := mk(), mk()
	if a.Fwd.MeanSNR() != b.Fwd.MeanSNR() || a.Rev.MeanSNR() != b.Rev.MeanSNR() {
		t.Fatal("pairs from identical seeds differ")
	}
	for i := 0; i < 50; i++ {
		a.Fwd.Advance(40)
		b.Fwd.Advance(40)
		if a.Fwd.EffectiveSNR() != b.Fwd.EffectiveSNR() {
			t.Fatalf("channel dynamics diverged at step %d", i)
		}
	}
}

func TestDirectionsShareShadowingButDiffer(t *testing.T) {
	r := rng.New(5)
	p := DefaultParams(Indoor)
	var diffs []float64
	for i := 0; i < 300; i++ {
		pr := NewPair(r.SplitN("pair", i), 40, p)
		diffs = append(diffs, pr.Fwd.MeanSNR()-pr.Rev.MeanSNR())
	}
	s, _ := stats.Summarize(diffs)
	// Directions differ by ~sqrt(2)*AsymStd, not by the (much larger)
	// shadowing std — i.e. shadowing is shared.
	want := p.AsymStd * math.Sqrt2
	if s.Std < want*0.7 || s.Std > want*1.3 {
		t.Fatalf("direction difference std %v, want ≈ %v", s.Std, want)
	}
	if math.Abs(s.Mean) > 0.5 {
		t.Fatalf("direction difference mean %v should be ~0", s.Mean)
	}
}

func TestAsymmetryAblation(t *testing.T) {
	r := rng.New(6)
	p := DefaultParams(Indoor)
	p.DisableAsymmetry = true
	for i := 0; i < 50; i++ {
		pr := NewPair(r.SplitN("pair", i), 40, p)
		if pr.Fwd.MeanSNR() != pr.Rev.MeanSNR() {
			t.Fatal("DisableAsymmetry should make directions identical in mean")
		}
	}
}

func TestOffsetAblation(t *testing.T) {
	r := rng.New(7)
	p := DefaultParams(Indoor)
	p.DisableOffsets = true
	for i := 0; i < 50; i++ {
		pr := NewPair(r.SplitN("pair", i), 40, p)
		if pr.Fwd.MeanEffectiveSNR() != pr.Fwd.MeanSNR() {
			t.Fatal("DisableOffsets should equate effective and reported means")
		}
	}
}

func TestOffsetsSeparateEffectiveFromReported(t *testing.T) {
	r := rng.New(8)
	p := DefaultParams(Indoor)
	var gaps []float64
	for i := 0; i < 500; i++ {
		pr := NewPair(r.SplitN("pair", i), 40, p)
		gaps = append(gaps, pr.Fwd.MeanEffectiveSNR()-pr.Fwd.MeanSNR())
	}
	s, _ := stats.Summarize(gaps)
	if s.Std < p.OffsetStd*0.8 || s.Std > p.OffsetStd*1.2 {
		t.Fatalf("offset std %v, want ≈ %v", s.Std, p.OffsetStd)
	}
}

func TestARStationaryStd(t *testing.T) {
	p := DefaultParams(Indoor)
	p.DisableBursts = true
	pr := NewPair(rng.New(10), 30, p)
	c := pr.Fwd
	var xs []float64
	for i := 0; i < 5000; i++ {
		c.Advance(40)
		xs = append(xs, c.EffectiveSNR())
	}
	s, _ := stats.Summarize(xs)
	if s.Std < p.ARSigma*0.8 || s.Std > p.ARSigma*1.3 {
		t.Fatalf("stationary effective-SNR std %v, want ≈ %v", s.Std, p.ARSigma)
	}
}

func TestReportedSNRShortTermStdSmall(t *testing.T) {
	// Figure 3.1: stddev of SNR within a probe set (~20 reports over
	// 800 s) is < 5 dB ~97.5% of the time.
	r := rng.New(11)
	p := DefaultParams(Indoor)
	under5 := 0
	const trials = 400
	for i := 0; i < trials; i++ {
		pr := NewPair(r.SplitN("pair", i), 30, p)
		var snrs []float64
		for k := 0; k < 20; k++ {
			pr.Fwd.Advance(40)
			snrs = append(snrs, pr.Fwd.ReportedSNR())
		}
		if stats.Std(snrs) < 5 {
			under5++
		}
	}
	if frac := float64(under5) / trials; frac < 0.93 {
		t.Fatalf("only %v of probe sets have SNR std < 5 dB; want ≳0.95", frac)
	}
}

func TestBurstsReduceEffectiveNotReported(t *testing.T) {
	p := DefaultParams(Indoor)
	p.BurstProneFrac = 1
	p.BurstMeanRate = 1.0 / 100 // frequent, so the test sees some
	pr := NewPair(rng.New(12), 30, p)
	c := pr.Fwd
	sawBurst := false
	for i := 0; i < 2000 && !sawBurst; i++ {
		c.Advance(40)
		if c.InBurst() {
			sawBurst = true
			gap := c.EffectiveSNR() - (c.base + c.ar + c.offset)
			if gap >= 0 {
				t.Fatalf("burst should lower effective SNR, gap=%v", gap)
			}
			if gap < -p.BurstPenaltyHi {
				t.Fatalf("burst penalty %v exceeds configured max", -gap)
			}
		}
	}
	if !sawBurst {
		t.Fatal("no burst observed in 2000 steps on an always-prone link")
	}
}

func TestBurstAblation(t *testing.T) {
	p := DefaultParams(Indoor)
	p.DisableBursts = true
	pr := NewPair(rng.New(13), 30, p)
	for i := 0; i < 3000; i++ {
		pr.Fwd.Advance(40)
		if pr.Fwd.InBurst() {
			t.Fatal("burst occurred despite DisableBursts")
		}
	}
}

func TestFadedSuccessBounds(t *testing.T) {
	rate, _ := phy.BandBG.RateByName("24M")
	for eff := -10.0; eff < 50; eff += 1 {
		p := FadedSuccess(rate, eff, 1.6)
		if p < 0 || p > 1 {
			t.Fatalf("FadedSuccess out of range: %v at %v dB", p, eff)
		}
	}
}

func TestFadedSuccessMatchesNoFading(t *testing.T) {
	rate, _ := phy.BandBG.RateByName("12M")
	if FadedSuccess(rate, 20, 0) != rate.SuccessProb(20) {
		t.Fatal("zero fading should reduce to the raw curve")
	}
}

func TestFadedSuccessSmoothsCurve(t *testing.T) {
	// Fading averages the logistic, so at the midpoint it stays ~0.5 but
	// above the midpoint it is lower than the raw curve (concavity).
	rate, _ := phy.BandBG.RateByName("24M")
	at := rate.MidSNR + 3
	if FadedSuccess(rate, at, 3) >= rate.SuccessProb(at) {
		t.Fatal("fading should reduce success above the midpoint")
	}
	mid := FadedSuccess(rate, rate.MidSNR, 3)
	if math.Abs(mid-0.5) > 0.05 {
		t.Fatalf("faded success at midpoint = %v, want ≈0.5", mid)
	}
}

func TestSampleProbesStatistics(t *testing.T) {
	p := DefaultParams(Indoor)
	p.DisableBursts = true
	p.DisableOffsets = true
	pr := NewPair(rng.New(21), 10, p) // very close, high SNR
	rate, _ := phy.BandBG.RateByName("1M")
	got := pr.Fwd.SampleProbes(rate, 1000)
	if got < 950 {
		t.Fatalf("high-SNR 1M probes: %d/1000 received", got)
	}
	rate48, _ := phy.BandBG.RateByName("48M")
	far := NewPair(rng.New(22), 300, p)
	if far.Fwd.SampleProbes(rate48, 1000) > 50 {
		t.Fatal("far 48M probes should almost all be lost")
	}
}

func TestSuccessProbConsistentWithSample(t *testing.T) {
	p := DefaultParams(Indoor)
	pr := NewPair(rng.New(23), 35, p)
	rate, _ := phy.BandBG.RateByName("12M")
	analytic := pr.Fwd.SuccessProb(rate)
	n := 20000
	got := float64(pr.Fwd.SampleProbes(rate, n)) / float64(n)
	if math.Abs(got-analytic) > 0.02 {
		t.Fatalf("sampled %v vs analytic %v", got, analytic)
	}
}

func TestEnvironmentString(t *testing.T) {
	if Indoor.String() != "indoor" || Outdoor.String() != "outdoor" {
		t.Fatal("environment names wrong")
	}
}

func TestAdvanceZeroIsNoop(t *testing.T) {
	pr := NewPair(rng.New(31), 30, DefaultParams(Indoor))
	before := pr.Fwd.EffectiveSNR()
	pr.Fwd.Advance(0)
	pr.Fwd.Advance(-5)
	if pr.Fwd.EffectiveSNR() != before {
		t.Fatal("non-positive dt should not change state")
	}
}

func BenchmarkAdvance(b *testing.B) {
	pr := NewPair(rng.New(1), 30, DefaultParams(Indoor))
	for i := 0; i < b.N; i++ {
		pr.Fwd.Advance(40)
	}
}

func BenchmarkSampleProbes(b *testing.B) {
	pr := NewPair(rng.New(1), 30, DefaultParams(Indoor))
	rate, _ := phy.BandBG.RateByName("24M")
	for i := 0; i < b.N; i++ {
		_ = pr.Fwd.SampleProbes(rate, 20)
	}
}

// advanceFormula is Advance recomputing its per-dt constants on every
// call: the referee for the cached form.
func advanceFormula(c *Channel, dt float64) {
	if dt <= 0 {
		return
	}
	rho := math.Exp(-dt / c.params.ARTau)
	c.ar = rho*c.ar + math.Sqrt(1-rho*rho)*c.params.ARSigma*c.rng.NormFloat64()
	if c.burstLeft > 0 {
		c.burstLeft -= dt
		if c.burstLeft <= 0 {
			c.burstLeft = 0
			c.burstPenalty = 0
		}
	}
	if c.burstLeft == 0 && c.burstRate > 0 {
		if c.rng.Bool(1 - math.Exp(-c.burstRate*dt)) {
			c.burstLeft = c.params.BurstMeanDur * (0.3 + c.rng.ExpFloat64())
			c.burstPenalty = c.rng.Range(c.params.BurstPenaltyLo, c.params.BurstPenaltyHi)
		}
	}
}

// TestAdvanceCacheMatchesRecompute: Advance's cached per-dt constants
// follow a dt that changes between calls, and the channel state stays
// bit-identical to recomputing them every call.
func TestAdvanceCacheMatchesRecompute(t *testing.T) {
	p := DefaultParams(Indoor)
	p.BurstProneFrac = 1 // every channel bursts, so the burst draw runs
	dts := []float64{300, 300, 40, 40, 300, 1e-3, 0, 300, -5, 7200, 40, 300}
	for seed := uint64(1); seed <= 8; seed++ {
		cached := NewPair(rng.New(seed), 30, p).Fwd
		ref := NewPair(rng.New(seed), 30, p).Fwd
		for round := 0; round < 20; round++ {
			for _, dt := range dts {
				cached.Advance(dt)
				advanceFormula(ref, dt)
				if math.Float64bits(cached.ar) != math.Float64bits(ref.ar) ||
					math.Float64bits(cached.burstLeft) != math.Float64bits(ref.burstLeft) ||
					math.Float64bits(cached.burstPenalty) != math.Float64bits(ref.burstPenalty) {
					t.Fatalf("seed %d round %d dt %v: cached Advance diverged: ar %v/%v burst %v/%v penalty %v/%v",
						seed, round, dt, cached.ar, ref.ar, cached.burstLeft, ref.burstLeft, cached.burstPenalty, ref.burstPenalty)
				}
				if dt <= 0 {
					continue
				}
				rho := math.Exp(-dt / p.ARTau)
				want := advanceStep{
					dt:    dt,
					rho:   rho,
					innov: math.Sqrt(1-rho*rho) * p.ARSigma,
					burst: 1 - math.Exp(-cached.burstRate*dt),
				}
				if cached.step != want {
					t.Fatalf("seed %d dt %v: cached constants %+v, recomputed %+v", seed, dt, cached.step, want)
				}
			}
		}
	}
}
