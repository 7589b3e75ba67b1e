package window

import "mclg/internal/design"

// BuildRun materializes a merged run of bands — typically the contiguous
// dirty bands of an incremental (ECO) re-solve — as one independent
// sub-design in buf, exactly as BuildSub does for a single band: the union
// of the bands' sub rows at their absolute coordinates, every cell owned by
// any of the bands movable (re-IDed, global positions preserved), and every
// other cell whose snapshot rectangle intersects the run frozen as fixed
// context. The returned idx maps sub cell index to full-design ID for owned
// cells (-1 for context). Both live in buf's storage and stay valid until
// the next build into buf.
//
// bands must be non-empty indices into p.Bands in ascending order. Callers
// merge bands whose sub ranges overlap into one run before building, so
// distinct runs own disjoint row ranges and can be solved independently.
func (p *Plan) BuildRun(d *design.Design, bands []int, buf *SubBuf) (*design.Design, []int) {
	first := &p.Bands[bands[0]]
	merged := &buf.band
	*merged = Band{
		Index: first.Index,
		RowLo: first.RowLo,
		RowHi: first.RowHi,
		SubLo: first.SubLo,
		SubHi: first.SubHi,
		Owned: merged.Owned[:0],
	}
	for _, bi := range bands {
		b := &p.Bands[bi]
		merged.RowLo = min(merged.RowLo, b.RowLo)
		merged.RowHi = max(merged.RowHi, b.RowHi)
		merged.SubLo = min(merged.SubLo, b.SubLo)
		merged.SubHi = max(merged.SubHi, b.SubHi)
		merged.Owned = append(merged.Owned, b.Owned...)
	}
	return buf.build(d, p, merged)
}

// DirtyBands returns the indices (into p.Bands) of every band that must be
// re-solved when the given design rows are dirty — the selection primitive
// behind incremental (ECO) re-legalization, where a delta touches a handful
// of rows and only the affected windows pay a solve.
//
// A band is dirty when any dirty row falls inside its sub-design range
// [SubLo, SubHi): the owned rows, the frozen-context margin (a change there
// invalidates the context snapshot the band solved against), and the
// overhang of tall owned cells. Partition pushes SubHi past the top of the
// tallest owned cell, so a dirty row under a cell whose overhang crosses
// into a neighboring band's territory still pulls in the cell's owner, the
// only band allowed to move it.
//
// The returned indices are in ascending band order.
func (p *Plan) DirtyBands(dirty map[int]bool) []int {
	if len(dirty) == 0 {
		return nil
	}
	var out []int
	for i, b := range p.Bands {
		for r := b.SubLo; r < b.SubHi; r++ {
			if dirty[r] {
				out = append(out, i)
				break
			}
		}
	}
	return out
}
