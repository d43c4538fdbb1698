package routing

import (
	"math"
	"testing"

	"meshlab/internal/phy"
)

// twoRateMatrices builds a 3-node line where the A→B link is strong at
// both rates but B→C only works at the low rate, so ETT must mix rates.
func twoRateMatrices() map[int]Matrix {
	ms := make(map[int]Matrix)
	for ri := 0; ri < len(phy.BandBG.Rates); ri++ {
		ms[ri] = NewMatrix(3)
	}
	lo := phy.BandBG.RateIndex("1M")
	hi := phy.BandBG.RateIndex("48M")
	// A↔B: perfect at both rates.
	for _, ri := range []int{lo, hi} {
		ms[ri].Set(0, 1, 0.95)
		ms[ri].Set(1, 0, 0.95)
	}
	// B↔C: only at 1M.
	ms[lo].Set(1, 2, 0.9)
	ms[lo].Set(2, 1, 0.9)
	return ms
}

func TestETTLinkCostsPicksFastestUsableRate(t *testing.T) {
	ms := twoRateMatrices()
	links := ETTLinkCosts(ms, phy.BandBG, 0, 0)
	hi := phy.BandBG.RateIndex("48M")
	lo := phy.BandBG.RateIndex("1M")
	if links[0][1].RateIdx != hi {
		t.Fatalf("A→B should use 48M, got rate %d", links[0][1].RateIdx)
	}
	if links[1][2].RateIdx != lo {
		t.Fatalf("B→C should use 1M, got rate %d", links[1][2].RateIdx)
	}
	if !math.IsInf(links[0][2].Seconds, 1) || links[0][2].RateIdx != -1 {
		t.Fatal("A→C has no delivery and must be unusable")
	}
	if links[0][0].RateIdx != -1 {
		t.Fatal("self link must be unusable")
	}
	// Airtime sanity: 48M at 0.95 ≈ (300µs + 12000/48e6)/0.95 ≈ 579µs.
	want := (DefaultOverhead + DefaultPacketBits/(48e6)) / 0.95
	if math.Abs(links[0][1].Seconds-want) > 1e-9 {
		t.Fatalf("A→B airtime %v, want %v", links[0][1].Seconds, want)
	}
}

func TestETTBeatsSlowRateOnFastLink(t *testing.T) {
	// For a clean strong link, ETT at 48M is far below 1M airtime.
	ms := twoRateMatrices()
	links := ETTLinkCosts(ms, phy.BandBG, 0, 0)
	oneM := (DefaultOverhead + DefaultPacketBits/1e6) / 0.95
	if links[0][1].Seconds >= oneM {
		t.Fatal("ETT should exploit the high rate on the strong link")
	}
}

func TestAllPairsCostMatchesAllPairs(t *testing.T) {
	// AllPairsCost over explicit ETX1 costs must agree with AllPairs.
	m := lineMatrix()
	n := m.Size()
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, n)
		for j := range cost[i] {
			if i == j {
				cost[i][j] = math.Inf(1)
				continue
			}
			cost[i][j] = ETX1.LinkCost(m, i, j)
		}
	}
	a := AllPairs(m, ETX1)
	b := AllPairsCost(cost)
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if math.Abs(a.Dist[s][d]-b.Dist[s][d]) > 1e-12 {
				t.Fatalf("dist mismatch at %d→%d: %v vs %v", s, d, a.Dist[s][d], b.Dist[s][d])
			}
			if a.Hops[s][d] != b.Hops[s][d] || a.Next[s][d] != b.Next[s][d] {
				t.Fatalf("structure mismatch at %d→%d", s, d)
			}
		}
	}
}

func TestCompareETTGainNonNegative(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		base := randomMatrix(seed, 10, 0.05)
		// Derive per-rate matrices by attenuating success with rate
		// midpoint, crudely mimicking the PHY.
		ms := make(map[int]Matrix)
		for ri, rate := range phy.BandBG.Rates {
			m := NewMatrix(10)
			factor := 1.0 - rate.MidSNR/40
			if factor < 0.05 {
				factor = 0.05
			}
			for i := 0; i < 10; i++ {
				for j := 0; j < 10; j++ {
					v := base.At(i, j) * factor
					if v < 0.03 {
						v = 0
					}
					m.Set(i, j, v)
				}
			}
			ms[ri] = m
		}
		res := CompareETT(ms, phy.BandBG, 0, 0)
		if res.Pairs == 0 {
			continue
		}
		if res.Gain < 0 {
			t.Fatalf("seed %d: negative ETT gain %v", seed, res.Gain)
		}
		if res.MeanETTSeconds <= 0 {
			t.Fatalf("seed %d: non-positive ETT airtime", seed)
		}
		if res.BestFixedRate < 0 {
			t.Fatalf("seed %d: no fixed rate selected", seed)
		}
	}
}

// TestCompareETTFromMatchesCompareETT: fed cached ETX1 solutions, the
// comparison is bit-identical to one that solves every rate itself —
// including networks where some pairs are unreachable at every rate.
func TestCompareETTFromMatchesCompareETT(t *testing.T) {
	bits := math.Float64bits
	for seed := uint64(0); seed < 10; seed++ {
		ms := make(map[int]Matrix)
		etx := make(map[int]*Paths)
		for ri := range phy.BandBG.Rates {
			ms[ri] = randomMatrix(seed*31+uint64(ri), 12, 0.2)
			etx[ri] = AllPairs(ms[ri], ETX1)
		}
		want := CompareETT(ms, phy.BandBG, 0, 0)
		got := CompareETTFrom(ms, etx, phy.BandBG, 0, 0)
		if got.BestFixedRate != want.BestFixedRate || got.Pairs != want.Pairs ||
			bits(got.MeanFixedSeconds) != bits(want.MeanFixedSeconds) ||
			bits(got.MeanETTSeconds) != bits(want.MeanETTSeconds) ||
			bits(got.Gain) != bits(want.Gain) {
			t.Fatalf("seed %d: cached %+v vs from scratch %+v", seed, got, want)
		}
	}
}

func TestCompareETTMixedRateWins(t *testing.T) {
	// The two-rate line forces ETT to mix rates; any fixed rate is
	// strictly worse (1M wastes the strong link, 48M cannot reach C).
	res := CompareETT(twoRateMatrices(), phy.BandBG, 0, 0)
	if res.Pairs == 0 {
		t.Fatal("no pairs")
	}
	if res.Gain <= 0 {
		t.Fatalf("mixed-rate ETT should strictly beat any fixed rate, gain %v", res.Gain)
	}
}

func TestCompareETTEmpty(t *testing.T) {
	ms := make(map[int]Matrix)
	for ri := range phy.BandBG.Rates {
		ms[ri] = NewMatrix(3)
	}
	res := CompareETT(ms, phy.BandBG, 0, 0)
	if res.Pairs != 0 {
		t.Fatal("no-delivery network should have no pairs")
	}
}

func BenchmarkCompareETT20(b *testing.B) {
	base := randomMatrix(3, 20, 0.05)
	ms := make(map[int]Matrix)
	for ri := range phy.BandBG.Rates {
		ms[ri] = base
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = CompareETT(ms, phy.BandBG, 0, 0)
	}
}
