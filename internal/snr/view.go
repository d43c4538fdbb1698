package snr

// view.go holds GroupView, the one §4 index a sample group is given. The
// feeding goroutine builds a view per group (or sub-chunk), and every
// chunked core reads it: the group's per-network segments are split once,
// and each of the four instance orders the cores walk — (Link, by SNR),
// (Link, chunk order), (AP, by SNR) and (Network, by SNR) — is sorted by
// chunkOrder the first time a core asks for it and then shared. Cores
// running in parallel on one view under conc.ForEach wait on the same
// once-guarded sort instead of repeating it.

import (
	"cmp"
	"slices"
	"sync"
)

// orderKey names one of the four instance orders a view caches.
type orderKey uint8

const (
	linkBySNR orderKey = iota // Link-scope training cells
	linkPlain                 // links in chunk order (the strategy replay)
	apBySNR                   // AP-scope training cells
	netBySNR                  // Network- and Global-scope cells of one network
	numOrderKeys
)

// keyOf maps a (scope, bySNR) request to its cached order. Global and
// Network share one order: both sort a network's samples by SNR alone.
func keyOf(scope Scope, bySNR bool) orderKey {
	switch {
	case scope == Link && bySNR:
		return linkBySNR
	case scope == Link:
		return linkPlain
	case scope == AP && bySNR:
		return apBySNR
	case bySNR:
		return netBySNR
	}
	panic("snr: no cached order for " + scope.String() + " without SNR")
}

// cellOrder is one cached order: idx lists the group's sample indices,
// network segment by segment, each segment ordered as chunkOrder.sort
// orders it; runs holds the start of every run of idx that shares the
// key's instance (and SNR), closed by len(idx).
type cellOrder struct {
	once sync.Once
	idx  []int32
	runs []int32
}

// GroupView is one sample group's shared index: the unit every chunked
// core's ObserveGroup consumes. A group is any run of samples that keeps
// each network contiguous and never splits a directed link (see the chunk
// contract in chunked.go). A view is safe for concurrent use by the cores;
// its samples must not change while it is in use.
type GroupView struct {
	samples []Sample
	// segs bounds the per-network segments: segment k is
	// samples[segs[k]:segs[k+1]].
	segs   []int32
	orders [numOrderKeys]cellOrder
	levels sampleLevels
	// linkIDs and apIDs number each sample's link and sending AP densely
	// in (From, To) order, segment after segment; links and aps count
	// them. The link order sets them.
	linkIDs, apIDs []int32
	links, aps     int32
}

// NewGroupView indexes one group. It only splits the group into network
// segments; each order is sorted on first use.
func NewGroupView(group []Sample) *GroupView {
	v := &GroupView{samples: group, segs: []int32{0}}
	// Networks are contiguous, so a group whose ends share a network is
	// that one network: the common case skips the scan.
	if n := len(group); n > 0 && group[0].Net != group[n-1].Net {
		for i := 1; i < n; i++ {
			if group[i].Net != group[i-1].Net {
				v.segs = append(v.segs, int32(i))
			}
		}
	}
	if len(group) > 0 {
		v.segs = append(v.segs, int32(len(group)))
	}
	return v
}

// Len returns the number of samples in the group.
func (v *GroupView) Len() int { return len(v.samples) }

// net returns the name of the group's first network ("" when empty).
func (v *GroupView) net() string {
	if len(v.samples) == 0 {
		return ""
	}
	return v.samples[0].Net
}

// cells returns the group's samples ordered by the scope's instance and,
// when bySNR, by SNR within it, one network segment after another, plus
// the start of each run sharing an instance (and SNR), closed by len(idx).
// Indices are into v.samples. Both slices are shared and read-only. Each
// order equals chunkOrder.sort of every segment in turn.
func (v *GroupView) cells(scope Scope, bySNR bool) (idx, runs []int32) {
	k := keyOf(scope, bySNR)
	o := &v.orders[k]
	o.once.Do(func() {
		switch k {
		case netBySNR:
			o.idx, o.runs = v.sortBySNR()
		case linkPlain:
			o.idx, o.runs = v.sortLinks()
		case linkBySNR:
			o.idx, o.runs = v.regroup(false)
		case apBySNR:
			o.idx, o.runs = v.regroup(true)
		}
	})
	return o.idx, o.runs
}

// sortBySNR orders every segment by SNR: one counting pass each.
func (v *GroupView) sortBySNR() (idx, runs []int32) {
	var ord chunkOrder
	idx = make([]int32, 0, len(v.samples))
	runs = make([]int32, 0, 64)
	for k := 1; k < len(v.segs); k++ {
		lo := v.segs[k-1]
		seg := v.samples[lo:v.segs[k]]
		for j, i := range ord.sort(seg, Network, true) {
			if j == 0 || seg[i].SNR != v.samples[idx[len(idx)-1]].SNR {
				runs = append(runs, int32(len(idx)))
			}
			idx = append(idx, lo+i)
		}
	}
	return idx, append(runs, int32(len(idx)))
}

// linkRun is a maximal run of one directed link's samples in chunk order.
type linkRun struct {
	from, to   int
	start, end int32
}

// sortLinks orders every segment by (From, To), keeping chunk order
// within a link. A segment's samples arrive link by link, so it stably
// sorts the segment's link runs rather than its samples, then numbers the
// links and the sending APs densely in that order (v.linkIDs, v.apIDs):
// the ids rise with (From, To) and From within a segment and from one
// segment to the next, so one counting pass over them regroups any order.
func (v *GroupView) sortLinks() (idx, runs []int32) {
	n := len(v.samples)
	idx = make([]int32, 0, n)
	v.linkIDs = make([]int32, n)
	v.apIDs = make([]int32, n)
	var lruns []linkRun
	link, ap := int32(-1), int32(-1)
	for k := 1; k < len(v.segs); k++ {
		lruns = lruns[:0]
		for i := v.segs[k-1]; i < v.segs[k]; i++ {
			s := &v.samples[i]
			if l := len(lruns) - 1; l >= 0 && lruns[l].end == i && lruns[l].from == s.From && lruns[l].to == s.To {
				lruns[l].end++
				continue
			}
			lruns = append(lruns, linkRun{from: s.From, to: s.To, start: i, end: i + 1})
		}
		slices.SortStableFunc(lruns, func(a, b linkRun) int {
			return cmp.Or(cmp.Compare(a.from, b.from), cmp.Compare(a.to, b.to))
		})
		for r, lr := range lruns {
			if r == 0 || lr.from != lruns[r-1].from {
				ap++
			}
			if r == 0 || lr.from != lruns[r-1].from || lr.to != lruns[r-1].to {
				link++
				runs = append(runs, int32(len(idx)))
			}
			for i := lr.start; i < lr.end; i++ {
				v.linkIDs[i], v.apIDs[i] = link, ap
				idx = append(idx, i)
			}
		}
	}
	v.links, v.aps = link+1, ap+1
	return idx, append(runs, int32(len(idx)))
}

// regroup stably reorders the SNR order by the dense link or AP ids,
// which leaves each (instance, SNR) cell one run. Within a cell the
// samples keep chunk order, as chunkOrder's passes keep them.
func (v *GroupView) regroup(byAP bool) (idx, runs []int32) {
	bySNR, _ := v.cells(Network, true)
	v.cells(Link, false) // numbers the links and APs
	ids, span := v.linkIDs, v.links
	if byAP {
		ids, span = v.apIDs, v.aps
	}
	// count[k] becomes the first output position of id k.
	count := make([]int32, span+1)
	for _, i := range bySNR {
		count[ids[i]+1]++
	}
	for k := 1; k < len(count); k++ {
		count[k] += count[k-1]
	}
	idx = make([]int32, len(bySNR))
	for _, i := range bySNR {
		idx[count[ids[i]]] = i
		count[ids[i]]++
	}
	runs = make([]int32, 0, 64)
	for j, i := range idx {
		if j == 0 || ids[i] != ids[idx[j-1]] || v.samples[i].SNR != v.samples[idx[j-1]].SNR {
			runs = append(runs, int32(j))
		}
	}
	return idx, append(runs, int32(len(idx)))
}
