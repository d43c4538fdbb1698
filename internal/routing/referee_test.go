package routing

import (
	"math"
	"sort"
	"testing"

	"meshlab/internal/rng"
)

// lazyAllPairs is AllPairs over the lazy-deletion heap the decrease-key
// solver replaced: one heap entry per relaxation, stale entries skipped
// on extraction. It is the referee for the settle order.
func lazyAllPairs(m Matrix, v Variant) *Paths {
	return lazySolve(v, newMatrixSolver(m, v).adj)
}

// lazyAllPairsCost is AllPairsCost over the lazy-deletion heap.
func lazyAllPairsCost(cost [][]float64) *Paths {
	adj := make([][]arc, len(cost))
	for i, row := range cost {
		for j, c := range row {
			if j != i && !math.IsInf(c, 1) {
				adj[i] = append(adj[i], arc{to: int32(j), cost: c})
			}
		}
	}
	return lazySolve(ETX1, adj)
}

func lazySolve(v Variant, adj [][]arc) *Paths {
	n := len(adj)
	p := newPaths(v, n)
	done := make([]bool, n)
	var h []heapNode
	for src := 0; src < n; src++ {
		dist, hops, next := p.Dist[src], p.Hops[src], p.Next[src]
		for i := range dist {
			dist[i] = math.Inf(1)
			hops[i] = -1
			next[i] = -1
			done[i] = false
		}
		dist[src], hops[src] = 0, 0
		h = lazyPush(h[:0], heapNode{dist: 0, hops: 0, node: int32(src)})
		for len(h) > 0 {
			top := h[0]
			h = lazyPop(h)
			u := int(top.node)
			if done[u] {
				continue
			}
			done[u] = true
			du, hu := dist[u], hops[u]
			for _, a := range adj[u] {
				w := int(a.to)
				if done[w] {
					continue
				}
				nd := du + a.cost
				nh := hu + 1
				if nd < dist[w] || (nd == dist[w] && nh < hops[w]) {
					dist[w] = nd
					hops[w] = nh
					if u == src {
						next[w] = w
					} else {
						next[w] = next[u]
					}
					h = lazyPush(h, heapNode{dist: nd, hops: int32(nh), node: int32(w)})
				}
			}
		}
	}
	return p
}

func lazyPush(h []heapNode, x heapNode) []heapNode {
	h = append(h, x)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !heapLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	return h
}

func lazyPop(h []heapNode) []heapNode {
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h) && heapLess(h[l], h[smallest]) {
			smallest = l
		}
		if r < len(h) && heapLess(h[r], h[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
	return h
}

// sortExORToDest is exorToDest as it was before the gathered keys: a
// sort.Slice of node indices by a column of Dist, which the inner loop
// walks again. It is the referee for the key-based walk.
func sortExORToDest(m Matrix, etx *Paths, d int) []float64 {
	n := m.Size()
	exor := make([]float64, n)
	for i := range exor {
		exor[i] = math.Inf(1)
	}
	exor[d] = 0
	order := []int{d}
	for i := 0; i < n; i++ {
		if i != d && !math.IsInf(etx.Dist[i][d], 1) {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(a, b int) bool {
		da, db := etx.Dist[order[a]][d], etx.Dist[order[b]][d]
		if da != db {
			return da < db
		}
		return order[a] < order[b]
	})
	for oi := 1; oi < len(order); oi++ {
		s := order[oi]
		ds := etx.Dist[s][d]
		row := m.Row(s)
		num := 1.0
		noneCloser := 1.0
		for _, c := range order[:oi] {
			if etx.Dist[c][d] >= ds {
				break
			}
			p := row[c]
			if p <= 0 {
				continue
			}
			r := p * noneCloser
			num += r * exor[c]
			noneCloser *= 1 - p
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

// refImprovements is ImprovementsFrom over the referee ExOR walk.
func refImprovements(m Matrix, etx *Paths) []PairResult {
	n := m.Size()
	var out []PairResult
	for d := 0; d < n; d++ {
		exor := sortExORToDest(m, etx, d)
		for s := 0; s < n; s++ {
			if s == d || math.IsInf(etx.Dist[s][d], 1) || math.IsInf(exor[s], 1) {
				continue
			}
			imp := 0.0
			if exor[s] > 0 {
				imp = etx.Dist[s][d]/exor[s] - 1
			}
			if imp < 0 {
				imp = 0
			}
			out = append(out, PairResult{
				S: s, D: d,
				ETX: etx.Dist[s][d], ExOR: exor[s],
				Hops:        etx.Hops[s][d],
				Improvement: imp,
			})
		}
	}
	return out
}

// samePaths reports whether two solutions agree bit for bit.
func samePaths(a, b *Paths) bool {
	if a.Variant != b.Variant || len(a.Dist) != len(b.Dist) {
		return false
	}
	for s := range a.Dist {
		for d := range a.Dist[s] {
			if math.Float64bits(a.Dist[s][d]) != math.Float64bits(b.Dist[s][d]) ||
				a.Hops[s][d] != b.Hops[s][d] || a.Next[s][d] != b.Next[s][d] {
				return false
			}
		}
	}
	return true
}

// tieMatrix is a random n-node delivery matrix with each directed pair
// in range with probability density, and every probability on a grid of
// levels steps, so that equal path costs (and with them the hop and node
// tie-breaks) are common.
func tieMatrix(seed uint64, n int, density float64, levels int) Matrix {
	r := rng.New(seed)
	m := NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && r.Float64() < density {
				m.Set(i, j, float64(1+r.Intn(levels))/float64(levels))
			}
		}
	}
	return m
}

// checkAgainstReferees compares the decrease-key solver, the key-based
// ExOR walk and AllPairsCost with their referees on one matrix.
func checkAgainstReferees(t *testing.T, m Matrix) {
	t.Helper()
	for _, v := range []Variant{ETX1, ETX2} {
		got, want := AllPairs(m, v), lazyAllPairs(m, v)
		if !samePaths(got, want) {
			t.Fatalf("%v: AllPairs diverged from the lazy-heap solver on n=%d", v, m.Size())
		}
		if !samePairs(ImprovementsFrom(m, got), refImprovements(m, want)) {
			t.Fatalf("%v: ImprovementsFrom diverged from the sort.Slice walk on n=%d", v, m.Size())
		}
	}
	n := m.Size()
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, n)
		for j := range cost[i] {
			// Small integer costs, zero included, tie more often than
			// 1/p; an out-of-range pair stays unusable.
			cost[i][j] = math.Inf(1)
			if p := m.At(i, j); p > 0 {
				cost[i][j] = math.Round(4 * p)
			}
		}
	}
	if !samePaths(AllPairsCost(cost), lazyAllPairsCost(cost)) {
		t.Fatalf("AllPairsCost diverged from the lazy-heap solver on n=%d", n)
	}
}

// TestSolverMatchesLazyHeap sweeps sizes, densities from sparse to
// complete and coarse probability grids.
func TestSolverMatchesLazyHeap(t *testing.T) {
	seed := uint64(0)
	for _, n := range []int{1, 2, 3, 8, 30} {
		for _, density := range []float64{0, 0.1, 0.4, 0.8, 1} {
			for _, levels := range []int{1, 2, 4, 20} {
				seed++
				checkAgainstReferees(t, tieMatrix(seed, n, density, levels))
			}
		}
	}
	checkAgainstReferees(t, denseMatrix(3, 80))
}

// FuzzAllPairs compares Dist bits, Hops, Next, ImprovementsFrom and
// AllPairsCost with the lazy-heap solver and the sort.Slice ExOR walk
// over random matrices, from sparse to complete, with ties common.
func FuzzAllPairs(f *testing.F) {
	f.Add(uint64(1), uint8(10), uint8(255), uint8(1))
	f.Add(uint64(2), uint8(25), uint8(128), uint8(2))
	f.Add(uint64(3), uint8(40), uint8(20), uint8(4))
	f.Add(uint64(4), uint8(1), uint8(255), uint8(3))
	f.Add(uint64(5), uint8(12), uint8(0), uint8(5))
	f.Fuzz(func(t *testing.T, seed uint64, n, density, levels uint8) {
		m := tieMatrix(seed, 1+int(n)%48, float64(density)/255, 1+int(levels)%8)
		checkAgainstReferees(t, m)
	})
}
