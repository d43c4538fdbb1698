package routing

import (
	"math"
	"sort"
	"testing"

	"meshlab/internal/dataset"
	"meshlab/internal/rng"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// lineMatrix builds the thesis's worked example (§5.2.2): A→B→C with 0.9
// links and a 0.3 direct A→C path, symmetric.
func lineMatrix() Matrix {
	m := NewMatrix(3)
	m.Set(0, 1, 0.9)
	m.Set(1, 0, 0.9)
	m.Set(1, 2, 0.9)
	m.Set(2, 1, 0.9)
	m.Set(0, 2, 0.3)
	m.Set(2, 0, 0.3)
	return m
}

func TestLinkCost(t *testing.T) {
	m := lineMatrix()
	if got := ETX1.LinkCost(m, 0, 1); !almostEq(got, 1/0.9, 1e-12) {
		t.Fatalf("ETX1 cost = %v", got)
	}
	if got := ETX2.LinkCost(m, 0, 1); !almostEq(got, 1/(0.9*0.9), 1e-12) {
		t.Fatalf("ETX2 cost = %v", got)
	}
	m.Set(0, 1, 0)
	if !math.IsInf(ETX1.LinkCost(m, 0, 1), 1) {
		t.Fatal("zero forward probability should cost +Inf")
	}
	m.Set(0, 1, 0.9)
	m.Set(1, 0, 0)
	if !math.IsInf(ETX2.LinkCost(m, 0, 1), 1) {
		t.Fatal("ETX2 with dead reverse should cost +Inf")
	}
	if !math.IsInf(ETX1.LinkCost(m, 0, 1), 1) == false {
		t.Fatal("ETX1 ignores the reverse direction")
	}
}

func TestAllPairsLine(t *testing.T) {
	p := AllPairs(lineMatrix(), ETX1)
	// A→C: via B costs 2/0.9 ≈ 2.22, direct costs 1/0.3 ≈ 3.33.
	if !almostEq(p.Dist[0][2], 2/0.9, 1e-9) {
		t.Fatalf("dist A→C = %v, want %v", p.Dist[0][2], 2/0.9)
	}
	if p.Hops[0][2] != 2 {
		t.Fatalf("hops A→C = %d, want 2", p.Hops[0][2])
	}
	if p.Next[0][2] != 1 {
		t.Fatalf("next hop A→C = %d, want B", p.Next[0][2])
	}
	if p.Dist[0][0] != 0 || p.Hops[0][0] != 0 {
		t.Fatal("self distance must be zero")
	}
}

func TestAllPairsUnreachable(t *testing.T) {
	m := NewMatrix(3)
	m.Set(0, 1, 0.9) // node 2 isolated
	p := AllPairs(m, ETX1)
	if !math.IsInf(p.Dist[0][2], 1) || p.Hops[0][2] != -1 {
		t.Fatal("isolated node should be unreachable")
	}
	if math.IsInf(p.Dist[0][1], 1) {
		t.Fatal("direct link should be reachable")
	}
	// Directed: 1 cannot reach 0.
	if !math.IsInf(p.Dist[1][0], 1) {
		t.Fatal("reverse of a one-way link should be unreachable")
	}
}

func TestExORWorkedExample(t *testing.T) {
	// §5.2.2: ETX path A→B→C needs ≈2.22 transmissions; with a 0.3
	// chance the broadcast reaches C directly, ExOR needs
	// (1 + 0.63·(1/0.9)) / (1 − 0.7·0.1) ≈ 1.828.
	m := lineMatrix()
	etx := AllPairs(m, ETX1)
	exor := ExORToDest(m, etx, 2)
	if !almostEq(exor[2], 0, 1e-12) {
		t.Fatal("ExOR to self must be 0")
	}
	if !almostEq(exor[1], 1/0.9, 1e-9) {
		t.Fatalf("ExOR B→C = %v, want %v", exor[1], 1/0.9)
	}
	want := (1 + 0.63*(1/0.9)) / (1 - 0.07)
	if !almostEq(exor[0], want, 1e-9) {
		t.Fatalf("ExOR A→C = %v, want %v", exor[0], want)
	}
	if exor[0] >= etx.Dist[0][2] {
		t.Fatal("opportunistic routing should beat ETX on the example")
	}
}

func TestExORNoCloserNodeDegeneratesToETX(t *testing.T) {
	// Two nodes: the source has no forwarder closer than itself.
	m := NewMatrix(2)
	m.Set(0, 1, 0.5)
	m.Set(1, 0, 0.5)
	etx := AllPairs(m, ETX1)
	exor := ExORToDest(m, etx, 1)
	if !almostEq(exor[0], 2, 1e-12) {
		t.Fatalf("ExOR with only the destination = %v, want ETX 2", exor[0])
	}
}

func randomMatrix(seed uint64, n int, asym float64) Matrix {
	r := rng.New(seed)
	m := NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Bool(0.3) {
				continue // some pairs out of range
			}
			base := r.Float64()
			m.Set(i, j, clamp01(base+asym*r.NormFloat64()))
			m.Set(j, i, clamp01(base+asym*r.NormFloat64()))
		}
	}
	return m
}

func clamp01(x float64) float64 {
	if x < 0.02 {
		return 0
	}
	if x > 0.98 {
		return 0.98
	}
	return x
}

func TestExORNeverWorseThanETXProperty(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		m := randomMatrix(seed, 12, 0.1)
		for _, v := range []Variant{ETX1, ETX2} {
			for _, pr := range Improvements(m, v) {
				if pr.ExOR > pr.ETX+1e-9 {
					t.Fatalf("seed %d %s: ExOR %v > ETX %v for %d→%d",
						seed, v, pr.ExOR, pr.ETX, pr.S, pr.D)
				}
				if pr.Improvement < 0 {
					t.Fatalf("negative improvement %v", pr.Improvement)
				}
				if pr.ExOR < 1 && pr.S != pr.D {
					t.Fatalf("ExOR cost %v below one transmission", pr.ExOR)
				}
			}
		}
	}
}

func TestETXAtLeastHops(t *testing.T) {
	// ETX of a path can never be below its hop count (§2.3).
	for seed := uint64(0); seed < 10; seed++ {
		m := randomMatrix(seed, 10, 0.05)
		p := AllPairs(m, ETX1)
		for s := 0; s < 10; s++ {
			for d := 0; d < 10; d++ {
				if s == d || math.IsInf(p.Dist[s][d], 1) {
					continue
				}
				if p.Dist[s][d] < float64(p.Hops[s][d])-1e-9 {
					t.Fatalf("ETX %v below hop count %d", p.Dist[s][d], p.Hops[s][d])
				}
			}
		}
	}
}

func TestETX2ImprovementExceedsETX1OnAsymmetricLinks(t *testing.T) {
	// §5.2.1: asymmetry is why ETX2 sees much larger opportunistic
	// gains. Aggregate median improvement must be larger under ETX2.
	var imp1, imp2 []float64
	for seed := uint64(0); seed < 10; seed++ {
		m := randomMatrix(seed, 14, 0.15)
		for _, pr := range Improvements(m, ETX1) {
			imp1 = append(imp1, pr.Improvement)
		}
		for _, pr := range Improvements(m, ETX2) {
			imp2 = append(imp2, pr.Improvement)
		}
	}
	if len(imp1) == 0 || len(imp2) == 0 {
		t.Fatal("no pairs")
	}
	if mean(imp2) <= mean(imp1) {
		t.Fatalf("ETX2 mean improvement %v should exceed ETX1 %v", mean(imp2), mean(imp1))
	}
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func TestSymmetricMatrixConvergesVariants(t *testing.T) {
	// With perfectly symmetric links, ETX2 = ETX1 measured over the
	// squared costs; improvements should be close (ablation check).
	m := randomMatrix(3, 12, 0)
	i1 := Improvements(m, ETX1)
	i2 := Improvements(m, ETX2)
	var v1, v2 []float64
	for _, p := range i1 {
		v1 = append(v1, p.Improvement)
	}
	for _, p := range i2 {
		v2 = append(v2, p.Improvement)
	}
	// ETX2 still differs (squared link costs change path choice), but
	// without asymmetry the gap must be modest.
	if mean(v2)-mean(v1) > 0.5 {
		t.Fatalf("symmetric links should not produce a large ETX1/ETX2 gap: %v vs %v", mean(v1), mean(v2))
	}
}

func TestOneHopPairsOftenNoImprovement(t *testing.T) {
	// §5.2.2: short paths are why most pairs see little gain.
	m := randomMatrix(7, 12, 0.05)
	res := Improvements(m, ETX1)
	noImp, oneHop := 0, 0
	for _, pr := range res {
		if pr.Hops == 1 {
			oneHop++
		}
		if pr.Improvement < 1e-9 {
			noImp++
		}
	}
	if oneHop == 0 {
		t.Fatal("expected some one-hop pairs")
	}
	if noImp == 0 {
		t.Fatal("expected some pairs with zero improvement")
	}
}

func TestAsymmetryRatios(t *testing.T) {
	m := NewMatrix(3)
	m.Set(0, 1, 0.8)
	m.Set(1, 0, 0.4)
	m.Set(0, 2, 0.5) // one-way: excluded
	got := AsymmetryRatios(m)
	if len(got) != 1 || !almostEq(got[0], 2, 1e-12) {
		t.Fatalf("AsymmetryRatios = %v, want [2]", got)
	}
}

func TestSuccessMatrices(t *testing.T) {
	nd := &dataset.NetworkData{
		Info: dataset.NetworkInfo{Name: "x", Band: "bg", APs: make([]dataset.APInfo, 3)},
		Links: []*dataset.Link{
			{From: 0, To: 1, Sets: []dataset.ProbeSet{
				{T: 300, SNR: 20, Obs: []dataset.Obs{{RateIdx: 0, Loss: 0.2}}},
				{T: 600, SNR: 20, Obs: []dataset.Obs{{RateIdx: 0, Loss: 0.4}}},
			}},
		},
	}
	ms, err := SuccessMatrices(nd)
	if err != nil {
		t.Fatal(err)
	}
	if got := ms[0].At(0, 1); !almostEq(got, 0.7, 1e-6) {
		t.Fatalf("mean success = %v, want 0.7", got)
	}
	if ms[0].At(1, 0) != 0 {
		t.Fatal("unmeasured direction should be 0")
	}
	if len(ms) != 7 {
		t.Fatalf("expected 7 rate matrices, got %d", len(ms))
	}
}

func TestSuccessMatricesBadLink(t *testing.T) {
	nd := &dataset.NetworkData{
		Info:  dataset.NetworkInfo{Name: "x", Band: "bg", APs: make([]dataset.APInfo, 2)},
		Links: []*dataset.Link{{From: 0, To: 5}},
	}
	if _, err := SuccessMatrices(nd); err == nil {
		t.Fatal("out-of-range link should error")
	}
}

func TestVariantString(t *testing.T) {
	if ETX1.String() != "etx1" || ETX2.String() != "etx2" {
		t.Fatal("variant names wrong")
	}
}

func TestImprovementDefinition(t *testing.T) {
	// §5.1: ExOR 1.2 vs ETX 1.5 is an improvement of 0.25.
	pr := PairResult{ETX: 1.5, ExOR: 1.2}
	imp := pr.ETX/pr.ExOR - 1
	if !almostEq(imp, 0.25, 1e-12) {
		t.Fatalf("improvement = %v, want 0.25", imp)
	}
}

func BenchmarkAllPairs50(b *testing.B) {
	m := randomMatrix(1, 50, 0.1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = AllPairs(m, ETX1)
	}
}

func BenchmarkImprovements30(b *testing.B) {
	m := randomMatrix(1, 30, 0.1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Improvements(m, ETX1)
	}
}

// denseMatrix is the giant reference network's shape: n APs, every pair
// in range.
func denseMatrix(seed uint64, n int) Matrix {
	r := rng.New(seed)
	m := NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				m.Set(i, j, 0.05+0.9*r.Float64())
			}
		}
	}
	return m
}

func BenchmarkAllPairs203Dense(b *testing.B) {
	m := denseMatrix(1, 203)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = AllPairs(m, ETX1)
	}
}

func BenchmarkImprovements203Dense(b *testing.B) {
	m := denseMatrix(1, 203)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Improvements(m, ETX1)
	}
}

// samePairs reports whether two comparisons agree bit for bit.
func samePairs(a, b []PairResult) bool {
	if len(a) != len(b) {
		return false
	}
	bits := math.Float64bits
	for i := range a {
		x, y := a[i], b[i]
		if x.S != y.S || x.D != y.D || x.Hops != y.Hops ||
			bits(x.ETX) != bits(y.ETX) || bits(x.ExOR) != bits(y.ExOR) ||
			bits(x.Improvement) != bits(y.Improvement) {
			return false
		}
	}
	return true
}

// TestImprovementsFromMatchesImprovements: one shared solution, reused
// across calls, answers exactly what a from-scratch solve does — the
// contract that lets a caller solve each (rate, variant) once. The
// random matrices leave ~30% of pairs out of range, and every other seed
// isolates one AP, so unreachable pairs are covered.
func TestImprovementsFromMatchesImprovements(t *testing.T) {
	for seed := uint64(0); seed < 12; seed++ {
		for _, n := range []int{2, 7, 25} {
			m := randomMatrix(seed, n, 0.15)
			if seed%2 == 0 {
				// Cut the last AP off entirely: unreachable both ways.
				for i := 0; i < n; i++ {
					m.Set(i, n-1, 0)
					m.Set(n-1, i, 0)
				}
			}
			for _, v := range []Variant{ETX1, ETX2} {
				want := Improvements(m, v)
				etx := AllPairs(m, v)
				for pass := 0; pass < 2; pass++ {
					if got := ImprovementsFrom(m, etx); !samePairs(got, want) {
						t.Fatalf("seed %d n=%d %v pass %d: ImprovementsFrom diverged from Improvements", seed, n, v, pass)
					}
				}
			}
		}
	}
}

func TestMatrixFlatAPI(t *testing.T) {
	m := NewMatrix(3)
	m.Set(1, 2, 0.5)
	if m.At(1, 2) != 0.5 || m.At(2, 1) != 0 {
		t.Fatal("At/Set mismatch")
	}
	row := m.Row(1)
	if len(row) != 3 || row[2] != 0.5 {
		t.Fatalf("Row = %v", row)
	}
	row[0] = 0.25 // rows alias the backing store
	if m.At(1, 0) != 0.25 {
		t.Fatal("Row should alias the matrix")
	}
	if m.Size() != 3 {
		t.Fatalf("Size = %d", m.Size())
	}
}

func TestExORMatchesBruteForceCandidates(t *testing.T) {
	// Cross-check the prefix-based candidate walk against an explicit
	// per-source candidate enumeration on random topologies.
	for seed := uint64(0); seed < 8; seed++ {
		m := randomMatrix(seed, 10, 0.1)
		etx := AllPairs(m, ETX1)
		for d := 0; d < 10; d++ {
			got := ExORToDest(m, etx, d)
			want := bruteExOR(m, etx, d)
			for s := range got {
				if math.IsInf(got[s], 1) != math.IsInf(want[s], 1) {
					t.Fatalf("seed %d d=%d s=%d: reachability mismatch", seed, d, s)
				}
				if !math.IsInf(got[s], 1) && !almostEq(got[s], want[s], 1e-12) {
					t.Fatalf("seed %d d=%d s=%d: %v vs brute %v", seed, d, s, got[s], want[s])
				}
			}
		}
	}
}

// bruteExOR is the seed implementation's literal recursion: per-source
// candidate collection and sort, kept as an oracle.
func bruteExOR(m Matrix, etx *Paths, d int) []float64 {
	n := m.Size()
	exor := make([]float64, n)
	for i := range exor {
		exor[i] = math.Inf(1)
	}
	exor[d] = 0
	order := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if i != d && !math.IsInf(etx.Dist[i][d], 1) {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(a, b int) bool {
		if etx.Dist[order[a]][d] != etx.Dist[order[b]][d] {
			return etx.Dist[order[a]][d] < etx.Dist[order[b]][d]
		}
		return order[a] < order[b]
	})
	for _, s := range order {
		ds := etx.Dist[s][d]
		type cand struct {
			node int
			p    float64
			dist float64
		}
		var cands []cand
		for _, c := range append([]int{d}, order...) {
			if c == s || etx.Dist[c][d] >= ds || m.At(s, c) <= 0 {
				continue
			}
			cands = append(cands, cand{node: c, p: m.At(s, c), dist: etx.Dist[c][d]})
		}
		if len(cands) == 0 {
			exor[s] = ds
			continue
		}
		sort.Slice(cands, func(a, b int) bool {
			if cands[a].dist != cands[b].dist {
				return cands[a].dist < cands[b].dist
			}
			return cands[a].node < cands[b].node
		})
		num, noneCloser := 1.0, 1.0
		for _, c := range cands {
			num += c.p * noneCloser * exor[c.node]
			noneCloser *= 1 - c.p
		}
		if noneCloser >= 1 {
			exor[s] = ds
			continue
		}
		e := num / (1 - noneCloser)
		if e > ds {
			e = ds
		}
		exor[s] = e
	}
	return exor
}

func BenchmarkExORToDest50(b *testing.B) {
	m := randomMatrix(1, 50, 0.1)
	etx := AllPairs(m, ETX1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ExORToDest(m, etx, 0)
	}
}
