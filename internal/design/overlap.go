package design

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"mclg/internal/geom"
	"mclg/internal/recycle"
)

// The overlap kernel behind CheckLegal and IsLegal. Each cell goes into
// every row band its bounds touch, so two overlapping cells meet in the band
// of any point of their y-intersection; each band is swept in (X, ID) order
// with an active list of cells whose x-span may still reach the sweep line.
// A legal placement keeps about one active cell per band, so the sweep is
// linear in the entries after the per-band sorts; one x-sweep over all cells
// would keep about one active cell per row, O(n·R).

// bandEntry is one cell's membership of one row band. It carries the
// cell's bounds, so the sweep reads cells only to break ties and to report.
type bandEntry struct {
	x, hx, y, hy float64 // the cell's bounds: X, X+W, Y, Y+H
	c            int32   // index into Design.Cells
	lo           int32   // the first band the cell touches
	fixed        bool
}

// overlapPair is one overlapping pair of cell indices: later comes after
// earlier in the band's (X, ID) order.
type overlapPair struct{ later, earlier int32 }

// sweep is the kernel's scratch, recycled through sweeps.
type sweep struct {
	band   []int32 // per cell: its first and last band, two entries each
	off    []int32 // band b's entries are ent[off[b]:off[b+1]]
	ent    []bandEntry
	active []int32 // positions in the current band's entries
	pairs  []overlapPair
}

// sweeps recycles the kernel's scratch, so the verdict allocates nothing
// in steady state; concurrent checks (window solves) take distinct scratch.
var sweeps recycle.Pool[sweep]

// bandRange returns the first and last of d's nb row bands that cell c
// touches: from the band of its bottom edge to the band of the last float
// below its top edge, so a cell whose top lies on a row boundary stays out
// of the band above. Two cells that overlap share the band of the higher
// bottom edge: both bounds hold that point, and bandOf is monotone.
// Clamping keeps cells overlapping outside the core together in an edge
// band. An empty cell may get hi < lo and enter no band.
func bandRange(d *Design, c *Cell, nb int) (lo, hi int32) {
	return bandOf(c.Y, d.Core.Lo.Y, d.RowHeight, nb),
		bandOf(math.Nextafter(c.Y+c.H, math.Inf(-1)), d.Core.Lo.Y, d.RowHeight, nb)
}

// bandOf maps y to its row band, clamped into [0, nb-1]. It is monotone in
// y (a NaN lands in band 0), which is all the band assignment relies on.
func bandOf(y, y0, rowH float64, nb int) int32 {
	f := math.Floor((y - y0) / rowH)
	if !(f > 0) {
		return 0
	}
	if f >= float64(nb-1) {
		return int32(nb - 1)
	}
	return int32(f)
}

// oneBand reports whether the kernel sweeps a single band: when n cells
// would make more than 4n + nb entries, as cells spanning most of the rows
// do (fixed macros are not bounded by the core), since the entries would
// grow as O(n·R). One band is the plain x-sweep over all cells.
func oneBand(entries, n, nb int) bool { return entries > 4*n+nb }

// overlaps runs the kernel on d. With first set it stops at the first
// overlapping pair, in any band and any order, and reports whether there
// was one; otherwise it leaves every pair in s.pairs, each once and in no
// particular order (appendOverlaps sorts them). Pairs of two fixed cells are
// skipped (see CheckLegal).
func (s *sweep) overlaps(d *Design, first bool) bool {
	cells := d.Cells
	n := len(cells)
	s.pairs = s.pairs[:0]
	nb := len(d.Rows)
	if nb < 1 || !(d.RowHeight > 0) {
		nb = 1
	}
	s.band = recycle.Grow(s.band, 2*n)
	total := 0
	for i, c := range cells {
		lo, hi := bandRange(d, c, nb)
		s.band[2*i], s.band[2*i+1] = lo, hi
		total += max(int(hi-lo)+1, 0)
	}
	if oneBand(total, n, nb) {
		nb = 1
		for i := range cells {
			s.band[2*i], s.band[2*i+1] = 0, 0
		}
		total = n
	}
	s.off = recycle.Grow(s.off, nb+1)
	clear(s.off)
	for i := 0; i < n; i++ {
		for b := s.band[2*i]; b <= s.band[2*i+1]; b++ {
			s.off[b+1]++
		}
	}
	for b := 1; b <= nb; b++ {
		s.off[b] += s.off[b-1]
	}
	s.ent = recycle.Grow(s.ent, total)
	for i, c := range cells {
		e := bandEntry{x: c.X, hx: c.X + c.W, y: c.Y, hy: c.Y + c.H, c: int32(i), lo: s.band[2*i], fixed: c.Fixed}
		for b := e.lo; b <= s.band[2*i+1]; b++ {
			s.ent[s.off[b]] = e
			s.off[b]++
		}
	}
	// The fill advanced each offset to its band's end; shift them back.
	copy(s.off[1:], s.off[:nb])
	s.off[0] = 0

	for b := 0; b < nb; b++ {
		ent := s.ent[s.off[b]:s.off[b+1]]
		slices.SortFunc(ent, func(p, q bandEntry) int { return cmpCells(cells, p.x, q.x, p.c, q.c) })
		active := s.active[:0]
		for k := range ent {
			ei := &ent[k]
			keep := active[:0]
			for _, a := range active {
				ej := &ent[a]
				if !(ej.hx > ei.x) {
					continue // its x-span ends before the sweep line
				}
				keep = append(keep, a)
				// Report a pair only in the first band both cells share.
				if max(ei.lo, ej.lo) != int32(b) || ei.fixed && ej.fixed {
					continue // fixed-fixed: input blockage overlap, not a legalization failure
				}
				if ei.bounds().Overlaps(ej.bounds()) {
					if first {
						s.active = keep
						return true
					}
					s.pairs = append(s.pairs, overlapPair{later: ei.c, earlier: ej.c})
				}
			}
			active = append(keep, int32(k))
		}
		s.active = active
	}
	return len(s.pairs) > 0
}

// bounds is the cell's Bounds, rebuilt from the entry.
func (e *bandEntry) bounds() geom.Rect {
	return geom.Rect{Lo: geom.Point{X: e.x, Y: e.y}, Hi: geom.Point{X: e.hx, Y: e.hy}}
}

// cmpCells orders cells i and j, at xi and xj, by (X, ID) as the sweep
// visits them, then by index for determinism.
func cmpCells(cells []*Cell, xi, xj float64, i, j int32) int {
	switch {
	case xi < xj:
		return -1
	case xi > xj:
		return 1
	}
	if c := cmp.Compare(cells[i].ID, cells[j].ID); c != 0 {
		return c
	}
	return cmp.Compare(i, j)
}

// appendOverlaps appends one VOverlap violation per overlapping pair of d,
// in a fixed order because audit certificates hash it: pairs sorted by
// their later cell in (X, ID) order, then by their earlier cell, which is
// the order one x-sweep over all cells meets them in.
func appendOverlaps(dst []Violation, d *Design) []Violation {
	s := sweeps.Get()
	defer sweeps.Put(s)
	if !s.overlaps(d, false) {
		return dst
	}
	cells := d.Cells
	cmpCell := func(i, j int32) int { return cmpCells(cells, cells[i].X, cells[j].X, i, j) }
	slices.SortFunc(s.pairs, func(p, q overlapPair) int {
		if c := cmpCell(p.later, q.later); c != 0 {
			return c
		}
		return cmpCell(p.earlier, q.earlier)
	})
	for _, p := range s.pairs {
		ci, cj := cells[p.later], cells[p.earlier]
		a, b := ci.ID, cj.ID
		if a > b {
			a, b = b, a
		}
		dst = append(dst, Violation{
			Kind: VOverlap, Cells: []int{a, b},
			Msg: fmt.Sprintf("cells %d and %d overlap (area %g)", a, b, ci.Bounds().Intersect(cj.Bounds()).Area()),
		})
	}
	return dst
}
