// Package routing implements the thesis's §5 analysis: traditional
// shortest-path routing under the ETX metric versus an idealized
// opportunistic routing protocol (ExOR/MORE without coordination
// overhead), compared by the expected number of transmissions needed to
// move one packet between each AP pair.
//
// Two ETX variants are analyzed, as in §5.1:
//
//   - ETX1 assumes a perfect ACK channel: link cost 1/P(s→d).
//   - ETX2 charges the reverse direction too: 1/(P(s→d)·P(d→s)), the
//     metric of the original ETX paper.
//
// The idealized opportunistic cost ("ExOR cost") follows §5.1's recursion:
// the source broadcasts; among the neighbors closer to the destination
// (under the ETX metric), the one closest to the destination that received
// the packet forwards it. With r(n) the probability that n received the
// packet and no node closer than n did, and r(s) the probability that no
// closer node received it at all:
//
//	ExOR(s→d) = (1 + Σ_{n∈C} r(n)·ExOR(n→d)) / (1 − r(s))
package routing

import (
	"fmt"
	"math"
	"sort"

	"meshlab/internal/dataset"
)

// Matrix is a dense directed packet-success-probability matrix backed by a
// flat row-major array: At(i, j) is the probability a packet from i is
// received by j. The zero Matrix is empty; copies share the backing store.
type Matrix struct {
	n    int
	data []float64
}

// NewMatrix allocates an n×n zero matrix.
func NewMatrix(n int) Matrix {
	return Matrix{n: n, data: make([]float64, n*n)}
}

// Size returns the node count.
func (m Matrix) Size() int { return m.n }

// At returns the delivery probability for the directed link i→j.
func (m Matrix) At(i, j int) float64 { return m.data[i*m.n+j] }

// Set stores the delivery probability for the directed link i→j.
func (m Matrix) Set(i, j int, v float64) { m.data[i*m.n+j] = v }

// Row returns row i (the delivery probabilities from sender i) as a slice
// aliasing the matrix's backing store.
func (m Matrix) Row(i int) []float64 { return m.data[i*m.n : (i+1)*m.n : (i+1)*m.n] }

// SuccessMatrices derives one success matrix per rate index from a
// network's probe data: success = 1 − mean loss over the link's probe
// sets. Directed links with no probe sets stay at 0.
func SuccessMatrices(nd *dataset.NetworkData) (map[int]Matrix, error) {
	band, err := nd.Band()
	if err != nil {
		return nil, err
	}
	n := nd.NumAPs()
	nr := len(band.Rates)
	out := make(map[int]Matrix, nr)
	for ri := range band.Rates {
		out[ri] = NewMatrix(n)
	}
	sum := make([]float64, nr)
	cnt := make([]int, nr)
	for _, l := range nd.Links {
		if l.From < 0 || l.From >= n || l.To < 0 || l.To >= n {
			return nil, fmt.Errorf("routing: link %d->%d out of range", l.From, l.To)
		}
		for ri := 0; ri < nr; ri++ {
			sum[ri], cnt[ri] = 0, 0
		}
		for _, ps := range l.Sets {
			for _, o := range ps.Obs {
				sum[o.RateIdx] += 1 - float64(o.Loss)
				cnt[o.RateIdx]++
			}
		}
		for ri := range band.Rates {
			if cnt[ri] > 0 {
				out[ri].Set(l.From, l.To, sum[ri]/float64(cnt[ri]))
			}
		}
	}
	return out, nil
}

// Variant selects the ETX flavor.
type Variant int

const (
	// ETX1 assumes a perfect ACK channel (forward probability only).
	ETX1 Variant = iota
	// ETX2 includes the reverse delivery probability, as in the
	// original ETX paper.
	ETX2
)

// String returns "etx1" or "etx2".
func (v Variant) String() string {
	if v == ETX2 {
		return "etx2"
	}
	return "etx1"
}

// LinkCost returns the expected transmissions for the directed link i→j
// under the variant, or +Inf for an unusable link.
func (v Variant) LinkCost(m Matrix, i, j int) float64 {
	pf := m.At(i, j)
	if pf <= 0 {
		return math.Inf(1)
	}
	if v == ETX1 {
		return 1 / pf
	}
	pr := m.At(j, i)
	if pr <= 0 {
		return math.Inf(1)
	}
	return 1 / (pf * pr)
}

// Paths holds the all-pairs shortest-path solution under an ETX variant.
type Paths struct {
	Variant Variant
	// Dist[s][d] is the ETX path cost (expected transmissions), +Inf if
	// unreachable.
	Dist [][]float64
	// Hops[s][d] is the hop count of the chosen shortest path, 0 for
	// s == d and -1 if unreachable.
	Hops [][]int
	// Next[s][d] is the first hop on the chosen path, -1 if none.
	Next [][]int
}

// newPaths allocates a Paths whose rows alias two flat backing arrays, so
// the whole solution costs O(1) allocations instead of O(n) per field.
func newPaths(v Variant, n int) *Paths {
	p := &Paths{
		Variant: v,
		Dist:    make([][]float64, n),
		Hops:    make([][]int, n),
		Next:    make([][]int, n),
	}
	dist := make([]float64, n*n)
	ints := make([]int, 2*n*n)
	for i := 0; i < n; i++ {
		p.Dist[i] = dist[i*n : (i+1)*n : (i+1)*n]
		p.Hops[i] = ints[i*n : (i+1)*n : (i+1)*n]
		p.Next[i] = ints[n*n+i*n : n*n+(i+1)*n : n*n+(i+1)*n]
	}
	return p
}

// arc is one usable directed link in a solver's adjacency list.
type arc struct {
	to   int32
	cost float64
}

// heapNode is one binary-heap entry: ordering is lexicographic on
// (dist, hops, node) so extraction order — and with it every tie — is
// deterministic.
type heapNode struct {
	dist float64
	hops int32
	node int32
}

func heapLess(a, b heapNode) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	if a.hops != b.hops {
		return a.hops < b.hops
	}
	return a.node < b.node
}

// solver runs heap-based Dijkstra over a precomputed adjacency list,
// reusing its scratch buffers across sources so an all-pairs sweep does
// not allocate per source. Probe matrices are sparse (most AP pairs are
// out of range), so skipping zero-probability links at adjacency-build
// time is the main win over the dense O(n³) scan.
type solver struct {
	n    int
	adj  [][]arc
	heap []heapNode
	done []bool
}

// newSolver builds a solver from per-node arc counts and a fill callback;
// the arcs for all nodes live in one flat slice.
func newSolver(n int, arcCount func(i int) int, fill func(i int, arcs []arc) []arc) *solver {
	sv := &solver{n: n, adj: make([][]arc, n), done: make([]bool, n)}
	total := 0
	for i := 0; i < n; i++ {
		total += arcCount(i)
	}
	flat := make([]arc, 0, total)
	for i := 0; i < n; i++ {
		start := len(flat)
		flat = fill(i, flat)
		sv.adj[i] = flat[start:len(flat):len(flat)]
	}
	return sv
}

// newMatrixSolver precomputes the variant's link costs (via LinkCost, the
// single source of the ETX semantics) as an adjacency list, keeping only
// usable links.
func newMatrixSolver(m Matrix, v Variant) *solver {
	n := m.Size()
	count := func(i int) int {
		c := 0
		for j := 0; j < n; j++ {
			if j != i && !math.IsInf(v.LinkCost(m, i, j), 1) {
				c++
			}
		}
		return c
	}
	fill := func(i int, arcs []arc) []arc {
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			cost := v.LinkCost(m, i, j)
			if math.IsInf(cost, 1) {
				continue
			}
			arcs = append(arcs, arc{to: int32(j), cost: cost})
		}
		return arcs
	}
	return newSolver(n, count, fill)
}

// run solves single-source shortest paths from src, writing the solution
// into the caller's dist/hops/next rows. Ties in path cost resolve toward
// fewer hops; remaining ties keep the first relaxation found under the
// deterministic (dist, hops, node) extraction order.
func (sv *solver) run(src int, dist []float64, hops, next []int) {
	for i := range dist {
		dist[i] = math.Inf(1)
		hops[i] = -1
		next[i] = -1
		sv.done[i] = false
	}
	dist[src], hops[src] = 0, 0
	h := sv.heap[:0]
	h = heapPush(h, heapNode{dist: 0, hops: 0, node: int32(src)})
	for len(h) > 0 {
		top := h[0]
		h = heapPop(h)
		u := int(top.node)
		if sv.done[u] {
			continue // stale duplicate from lazy deletion
		}
		sv.done[u] = true
		du, hu := dist[u], hops[u]
		for _, a := range sv.adj[u] {
			w := int(a.to)
			if sv.done[w] {
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
				h = heapPush(h, heapNode{dist: nd, hops: int32(nh), node: int32(w)})
			}
		}
	}
	sv.heap = h[:0] // retain capacity for the next source
}

func heapPush(h []heapNode, x heapNode) []heapNode {
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

func heapPop(h []heapNode) []heapNode {
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

// AllPairs runs Dijkstra from every source over the variant's link costs.
// Ties in path cost resolve toward fewer hops, so results are
// deterministic.
func AllPairs(m Matrix, v Variant) *Paths {
	n := m.Size()
	p := newPaths(v, n)
	sv := newMatrixSolver(m, v)
	for s := 0; s < n; s++ {
		sv.run(s, p.Dist[s], p.Hops[s], p.Next[s])
	}
	return p
}

// ExORToDest computes the idealized opportunistic cost from every node to
// destination d, using forward delivery probabilities for receptions and
// the supplied ETX solution to define "closer to d". Unreachable nodes get
// +Inf. The recursion is well-founded because nodes are processed in
// increasing ETX distance to d, and every candidate forwarder of s is
// strictly closer than s.
func ExORToDest(m Matrix, etx *Paths, d int) []float64 {
	exor := make([]float64, m.Size())
	exorToDest(m, etx, d, exor, make([]int, 0, m.Size()))
	return exor
}

// exorToDest fills exor using order (capacity ≥ n) as scratch. The single
// sort by (distance-to-d, index) already yields every source's candidate
// set as a strictly-closer prefix, so no per-source candidate slice or
// re-sort is needed: s's candidates are exactly the nodes before the first
// entry at distance ≥ dist(s), in forwarding priority order.
func exorToDest(m Matrix, etx *Paths, d int, exor []float64, order []int) {
	n := m.Size()
	for i := range exor {
		exor[i] = math.Inf(1)
	}
	exor[d] = 0

	// All reachable nodes — d first (distance 0) — ordered by increasing
	// ETX distance to d, then index.
	order = order[:0]
	order = append(order, d)
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
				break // sorted: no later entry is strictly closer
			}
			p := row[c]
			if p <= 0 {
				continue
			}
			r := p * noneCloser // c received, nobody closer did
			num += r * exor[c]
			noneCloser *= 1 - p
		}
		if noneCloser >= 1 {
			// No node closer to d: ExOR degenerates to ETX (§5.1).
			exor[s] = ds
			continue
		}
		e := num / (1 - noneCloser)
		// The idealized opportunistic cost can exceed the pure ETX path
		// cost only through the degenerate candidate orderings of very
		// lossy topologies; opportunistic routing can always fall back
		// to the shortest path, so cap at the ETX cost.
		if e > ds {
			e = ds
		}
		exor[s] = e
	}
}

// PairResult is one (source, destination) comparison.
type PairResult struct {
	S, D int
	// ETX is the shortest-path expected transmissions, ExOR the
	// idealized opportunistic expected transmissions.
	ETX, ExOR float64
	// Hops is the shortest path's hop count.
	Hops int
	// Improvement is ETX/ExOR − 1: an improvement of x means traditional
	// routing needs x·100% more transmissions (§5.1's definition).
	Improvement float64
}

// Improvements compares opportunistic routing against the ETX variant for
// every ordered reachable pair of the matrix: ImprovementsFrom over a
// fresh AllPairs solution.
func Improvements(m Matrix, v Variant) []PairResult {
	return ImprovementsFrom(m, AllPairs(m, v))
}

// ImprovementsFrom is Improvements over a precomputed ETX solution, etx =
// AllPairs(m, etx.Variant), for callers that share one solution between
// analyses. The per-destination ExOR recursions share one scratch buffer.
func ImprovementsFrom(m Matrix, etx *Paths) []PairResult {
	n := m.Size()
	exor := make([]float64, n)
	order := make([]int, 0, n)
	var out []PairResult
	for d := 0; d < n; d++ {
		exorToDest(m, etx, d, exor, order)
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

// AsymmetryRatios returns, for every unordered pair with delivery in both
// directions, the ratio P(a→b)/P(b→a) with a < b (Figure 5.2).
func AsymmetryRatios(m Matrix) []float64 {
	var out []float64
	n := m.Size()
	for a := 0; a < n; a++ {
		row := m.Row(a)
		for b := a + 1; b < n; b++ {
			if row[b] > 0 && m.At(b, a) > 0 {
				out = append(out, row[b]/m.At(b, a))
			}
		}
	}
	return out
}
