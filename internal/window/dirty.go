package window

import "slices"

// DirtyRuns returns the runs an incremental (ECO) re-solve must solve when
// the given design rows are dirty, and how many bands they merge: a delta
// touches a handful of rows and only the affected windows pay a solve.
//
// A band is dirty when any dirty row falls inside its sub-design range
// [SubLo, SubHi): the owned rows, the frozen-context margin (a change there
// invalidates the context snapshot the band solved against), and the
// overhang of tall owned cells. Partition pushes SubHi past the top of the
// tallest owned cell, so a dirty row under a cell whose overhang crosses
// into a neighboring band's territory still pulls in the cell's owner, the
// only band allowed to move it.
//
// Dirty bands, in ascending order, merge into one run while their sub
// ranges overlap, so distinct runs own disjoint rows and solve
// independently. A run is a Band that spans its bands' rows, takes the
// first band's Index and concatenates their Owned lists, ready for
// SubBuf.Build. The runs live in p's storage until the next DirtyRuns or
// Repartition.
func (p *Plan) DirtyRuns(dirty map[int]bool) (runs []Band, bands int) {
	runs = p.runs[:0]
	// Room for every owned ID, so no append below moves the lists already
	// carved from ids.
	ids := slices.Grow(p.runIDs[:0], len(p.ids))
	for _, b := range p.Bands {
		hit := false
		for r := b.SubLo; r < b.SubHi && !hit; r++ {
			hit = dirty[r]
		}
		if !hit {
			continue
		}
		bands++
		at := len(ids)
		ids = append(ids, b.Owned...)
		if n := len(runs); n > 0 && b.SubLo < runs[n-1].SubHi {
			r := &runs[n-1]
			r.RowHi = b.RowHi
			r.SubHi = max(r.SubHi, b.SubHi)
			r.Owned = ids[at-len(r.Owned):]
			continue
		}
		b.Owned = ids[at:]
		runs = append(runs, b)
	}
	p.runs, p.runIDs = runs, ids
	return runs, bands
}
