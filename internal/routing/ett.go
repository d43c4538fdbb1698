package routing

import (
	"math"

	"meshlab/internal/phy"
)

// This file implements the expected-transmission-time (ETT) metric of
// Bicket et al.'s Roofnet work, which the thesis names alongside ETX as
// the other standard mesh path metric (§1, question 2). Where ETX counts
// transmissions at one rate, ETT charges each link the *airtime* of its
// best rate: ETT(link) = min over rates r of ETX_r(link) × time(r), with
// time(r) = overhead + bits/rate. Routing over ETT therefore picks both a
// path and a per-link transmit rate.

// DefaultPacketBits is the payload size ETT airtime uses: a 1500-byte
// frame.
const DefaultPacketBits = 1500 * 8

// DefaultOverhead is the fixed per-transmission airtime in seconds
// (preamble, contention, ACK at the base rate), a typical 802.11b/g value.
const DefaultOverhead = 300e-6

// ETTLink holds one directed link's ETT solution.
type ETTLink struct {
	// Seconds is the expected airtime to get one packet across, +Inf if
	// no rate delivers.
	Seconds float64
	// RateIdx is the airtime-minimizing rate, -1 if unusable.
	RateIdx int
}

// ETTLinkCosts computes each directed link's best-rate ETT from per-rate
// success matrices (as produced by SuccessMatrices). The ETX flavor used
// per rate is ETX1 (perfect ACK), matching how Roofnet measured forward
// delivery per rate; pktBits and overhead default when non-positive.
func ETTLinkCosts(ms map[int]Matrix, band phy.Band, pktBits, overhead float64) [][]ETTLink {
	if pktBits <= 0 {
		pktBits = DefaultPacketBits
	}
	if overhead <= 0 {
		overhead = DefaultOverhead
	}
	var n int
	for _, m := range ms {
		n = m.Size()
		break
	}
	out := make([][]ETTLink, n)
	for i := range out {
		out[i] = make([]ETTLink, n)
		for j := range out[i] {
			out[i][j] = ETTLink{Seconds: math.Inf(1), RateIdx: -1}
			if i == j {
				continue
			}
			for ri, rate := range band.Rates {
				p := ms[ri].At(i, j)
				if p <= 0 {
					continue
				}
				t := (overhead + pktBits/(rate.Mbps*1e6)) / p
				if t < out[i][j].Seconds {
					out[i][j] = ETTLink{Seconds: t, RateIdx: ri}
				}
			}
		}
	}
	return out
}

// AllPairsCost runs the same deterministic heap Dijkstra as AllPairs over
// an arbitrary non-negative cost matrix (cost[i][j] = +Inf for unusable
// links). The returned Paths has Variant ETX1 as a placeholder; only Dist,
// Hops, and Next are meaningful.
func AllPairsCost(cost [][]float64) *Paths {
	n := len(cost)
	p := newPaths(ETX1, n)
	count := func(i int) int {
		c := 0
		for j, v := range cost[i] {
			if j != i && !math.IsInf(v, 1) {
				c++
			}
		}
		return c
	}
	fill := func(i int, arcs []arc) []arc {
		for j, v := range cost[i] {
			if j != i && !math.IsInf(v, 1) {
				arcs = append(arcs, arc{to: int32(j), cost: v})
			}
		}
		return arcs
	}
	sv := newSolver(n, count, fill)
	for s := 0; s < n; s++ {
		sv.run(s, p.Dist[s], p.Hops[s], p.Next[s])
	}
	return p
}

// ETTResult compares single-rate ETX routing against multi-rate ETT
// routing for one network.
type ETTResult struct {
	// BestFixedRate is the rate index whose fixed-rate ETX routing
	// minimizes mean path airtime.
	BestFixedRate int
	// MeanFixedSeconds is that fixed-rate scheme's mean path airtime
	// over reachable pairs.
	MeanFixedSeconds float64
	// MeanETTSeconds is multi-rate ETT routing's mean path airtime over
	// the same pairs.
	MeanETTSeconds float64
	// Gain is MeanFixedSeconds/MeanETTSeconds − 1 (≥ 0: ETT can always
	// mimic the fixed-rate scheme).
	Gain float64
	// Pairs is the number of pairs reachable under both schemes.
	Pairs int
}

// CompareETT evaluates fixed-rate ETX routing at every rate and multi-rate
// ETT routing on the same per-rate matrices, comparing mean expected path
// airtime over pairs reachable under ETT: CompareETTFrom over fresh ETX1
// solutions.
func CompareETT(ms map[int]Matrix, band phy.Band, pktBits, overhead float64) ETTResult {
	etx := make(map[int]*Paths, len(band.Rates))
	for ri := range band.Rates {
		etx[ri] = AllPairs(ms[ri], ETX1)
	}
	return CompareETTFrom(ms, etx, band, pktBits, overhead)
}

// CompareETTFrom is CompareETT over precomputed fixed-rate solutions,
// etx[ri] = AllPairs(ms[ri], ETX1), for callers that already solved each
// rate's routing.
func CompareETTFrom(ms map[int]Matrix, etx map[int]*Paths, band phy.Band, pktBits, overhead float64) ETTResult {
	if pktBits <= 0 {
		pktBits = DefaultPacketBits
	}
	if overhead <= 0 {
		overhead = DefaultOverhead
	}
	links := ETTLinkCosts(ms, band, pktBits, overhead)
	n := len(links)
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, n)
		for j := range cost[i] {
			cost[i][j] = links[i][j].Seconds
		}
	}
	ett := AllPairsCost(cost)

	res := ETTResult{BestFixedRate: -1}
	var ettSum float64
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d || math.IsInf(ett.Dist[s][d], 1) {
				continue
			}
			ettSum += ett.Dist[s][d]
			res.Pairs++
		}
	}
	if res.Pairs == 0 {
		return res
	}
	res.MeanETTSeconds = ettSum / float64(res.Pairs)

	res.MeanFixedSeconds = math.Inf(1)
	for ri, rate := range band.Rates {
		airtime := overhead + pktBits/(rate.Mbps*1e6)
		fixed := etx[ri]
		var sum float64
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				if s == d || math.IsInf(ett.Dist[s][d], 1) {
					continue
				}
				if math.IsInf(fixed.Dist[s][d], 1) {
					// Unreachable at this fixed rate: charge the
					// base-rate fallback so rates are comparable.
					sum += ett.Dist[s][d] * 10
					continue
				}
				sum += fixed.Dist[s][d] * airtime
			}
		}
		mean := sum / float64(res.Pairs)
		if mean < res.MeanFixedSeconds {
			res.MeanFixedSeconds = mean
			res.BestFixedRate = ri
		}
	}
	if res.MeanETTSeconds > 0 {
		res.Gain = res.MeanFixedSeconds/res.MeanETTSeconds - 1
		if res.Gain < 0 {
			res.Gain = 0
		}
	}
	return res
}
