package snr

// merge.go gives the table cores a Merge operation: fold another
// accumulator's partial state into this one, as if this accumulator had
// observed both inputs' chunks itself. (The strategy and top-k cores
// merge through their state cells, in snapshot.go.) Every core's
// persistent state is a count or histogram table, so merge is addition —
// exact, with no floating-point reassociation — and the shard-vs-whole
// oracle pins the merged result byte-identical to a single whole-input
// run.
//
// The shard contract mirrors the chunk contract (see the package comment
// in chunked.go), one level up: each partial observes a contiguous run of
// networks, partials are merged in input order, and no network's chunks
// split across partials. Under that contract the Network-, AP-, and
// Link-scope states are already resolved (or resolvable) per partial,
// and only Global-scope cells — which span the fleet — carry unresolved
// banked state across the merge. Merging resolves nothing Global: cells
// combine count-wise and resolve once, at the final Finalize, so the
// fleet-wide argmax sees exactly the counts a whole run would.
//
// A merged-from accumulator must not be observed or finalized afterwards;
// the merged-into accumulator remains usable.

// merge folds another histogram into this one.
func (h *diffHist) merge(o *diffHist) {
	h.nan += o.nan
	for _, sl := range o.slots {
		if sl.bits != emptyKey {
			*h.cellBits(sl.bits) += sl.n
		}
	}
}

// addTo re-expands the counted form into a histogram (the inverse of
// newCounted).
func (c *counted) addTo(h *diffHist) {
	h.nan += c.nan
	prev := c.nan
	for i, v := range c.vals {
		h.add(v, c.cum[i]-prev)
		prev = c.cum[i]
	}
}

// Merge folds another distribution into this one: the result is the
// counted form of the combined multiset, identical to freezing one
// histogram fed both inputs.
func (d *Dist) Merge(o *Dist) {
	if o == nil || o.c.n == 0 {
		return
	}
	var h diffHist
	d.c.addTo(&h)
	o.c.addTo(&h)
	d.c = *newCounted(&h)
}

// Merge folds another penalty partial into this one. Both accumulators
// must share numRates and the same scope sequence (construct both with
// NewPenaltyAccum over identical arguments), and each must have observed
// a shard of whole networks. Link-, Network-, and AP-scope state resolves
// within each partial; Global cells merge count-wise and stay banked
// until FinalizeDists, so the fleet-wide argmax is unchanged.
func (a *PenaltyAccum) Merge(o *PenaltyAccum) {
	a.total += o.total
	for si := range a.states {
		st, ost := &a.states[si], &o.states[si]
		switch st.scope {
		case Global:
			for snrVal, ocell := range ost.cells {
				cell := st.cells[snrVal]
				if cell == nil {
					cell = &bankedCell{
						counts: make([]int64, a.numRates),
						pend:   make([]diffHist, a.numRates),
					}
					st.cells[snrVal] = cell
				}
				for ri, n := range ocell.counts {
					cell.counts[ri] += n
				}
				ocell.fold(ost.diffs.grid)
				for p := range ocell.pend {
					cell.pend[p].merge(&ocell.pend[p])
				}
			}
		case Network, AP:
			// Shards hold whole networks, so both sides' pending network
			// state is complete: flush it, then the remaining state is
			// pure histogram addition.
			a.finishNet(st)
			o.finishNet(ost)
			if ost.netSeen {
				st.curNet, st.netSeen = ost.curNet, true
			}
		}
		ost.diffs.flush()
		st.diffs.merge(&ost.diffs.diffHist)
		st.exact += ost.exact
	}
}

// merge folds another per-SNR coverage aggregate into this one. covCell
// contributions are integer-valued, so the float sums stay exact.
func (g *coverageAgg) merge(o *coverageAgg) {
	for snrVal, oc := range o.bySNR {
		c, ok := g.bySNR[snrVal]
		if !ok {
			c = &covCell{}
			g.bySNR[snrVal] = c
		}
		c.n50 += oc.n50
		c.n80 += oc.n80
		c.n95 += oc.n95
		if oc.max95 > c.max95 {
			c.max95 = oc.max95
		}
		c.cells += oc.cells
	}
}

// Merge folds another table's cells into this one, count-wise. Both
// tables must share Scope and NumRates.
func (t *Table) Merge(o *Table) {
	for key, obySNR := range o.counts {
		bySNR, ok := t.counts[key]
		if !ok {
			bySNR = make(map[int][]int, len(obySNR))
			t.counts[key] = bySNR
		}
		for snrVal, oc := range obySNR {
			c, ok := bySNR[snrVal]
			if !ok {
				c = make([]int, t.NumRates)
				bySNR[snrVal] = c
			}
			for ri, n := range oc {
				c[ri] += n
			}
		}
	}
}

// Merge folds another coverage partial into this one. Both accumulators
// must share scope, numRates, and minObs, and each must have observed a
// shard of whole networks. Non-Global scopes resolve within each partial;
// the Global scope's fleet-lifetime table merges count-wise and folds
// once, at Finalize.
func (a *CoverageAccum) Merge(o *CoverageAccum) {
	switch a.scope {
	case Global:
		a.table.Merge(o.table)
	case Network, AP:
		a.finishNet()
		o.finishNet()
		if o.netSeen {
			a.curNet, a.netSeen = o.curNet, true
		}
	}
	a.agg.merge(o.agg)
}

// Merge folds another throughput partial into this one. Both accumulators
// must share numRates and minObs. The histogram rows are
// order-independent, so any shard split works.
func (a *TputAccum) Merge(o *TputAccum) {
	o.flushLevels()
	for snrVal, orow := range o.rows {
		row := a.rows[snrVal]
		if row == nil {
			row = &tputRow{cells: make([]diffHist, a.numRates)}
			if a.grid != nil {
				row.levels = make([]int64, a.numRates*levels)
			}
			a.rows[snrVal] = row
			if len(a.rows) == 1 || snrVal < a.minSNR {
				a.minSNR = snrVal
			}
			if len(a.rows) == 1 || snrVal > a.maxSNR {
				a.maxSNR = snrVal
			}
		}
		row.n += orow.n
		for ri := range orow.cells {
			row.cells[ri].merge(&orow.cells[ri])
		}
	}
}

// Merge folds another rate-set partial into this one (set union).
func (a *RateSetAccum) Merge(o *RateSetAccum) {
	for snrVal, om := range o.seen {
		m, ok := a.seen[snrVal]
		if !ok {
			m = make(map[int]bool, len(om))
			a.seen[snrVal] = m
		}
		for ri := range om {
			m[ri] = true
		}
	}
}
