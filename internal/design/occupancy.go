package design

import (
	"fmt"
	"math"
	"slices"

	"mclg/internal/geom"
)

// Occupancy is a per-row site-occupancy grid. Entry (row, site) holds the
// ID+1 of the occupying cell, or 0 when free, so overlaps are detected on
// insertion and the grid doubles as a reverse index for debugging.
type Occupancy struct {
	lo         geom.Point // core origin
	rowH, site float64    // row height, site width
	grid       [][]int32  // grid[row][site], rows sliced from sites
	sites      []int32

	// undo records the edits of the open transaction (Begin), if tx.
	undo []occEdit
	tx   bool
}

// occEdit is one recorded grid write: the site and its previous value.
type occEdit struct {
	row, site int
	prev      int32
}

// NewOccupancy allocates an empty grid for the design's rows. The grid keeps
// only the row and site geometry, so it serves any design with the same
// core and rows.
func NewOccupancy(d *Design) *Occupancy {
	o := &Occupancy{}
	o.Reset(d)
	return o
}

// Reset makes o an empty grid for d's rows with no open transaction, as
// NewOccupancy would, reusing o's storage.
func (o *Occupancy) Reset(d *Design) {
	o.lo, o.rowH, o.site = d.Core.Lo, d.RowHeight, d.SiteW
	o.undo, o.tx = o.undo[:0], false
	n := 0
	for _, r := range d.Rows {
		n += r.NumSites
	}
	o.sites = slices.Grow(o.sites[:0], n)[:n]
	clear(o.sites)
	o.grid = slices.Grow(o.grid[:0], len(d.Rows))[:len(d.Rows)]
	n = 0
	for i, r := range d.Rows {
		o.grid[i] = o.sites[n : n+r.NumSites : n+r.NumSites]
		n += r.NumSites
	}
}

// set writes one grid entry, recording the old value in an open
// transaction.
func (o *Occupancy) set(r, s int, v int32) {
	if o.tx {
		o.undo = append(o.undo, occEdit{r, s, o.grid[r][s]})
	}
	o.grid[r][s] = v
}

// Begin opens a transaction: every grid write from Place and Clear is
// recorded until Commit keeps them or Rollback undoes them.
func (o *Occupancy) Begin() {
	o.undo = o.undo[:0]
	o.tx = true
}

// Commit closes the open transaction, keeping its edits.
func (o *Occupancy) Commit() { o.tx = false }

// Rollback undoes the open transaction's edits, newest first, and closes it.
func (o *Occupancy) Rollback() {
	for i := len(o.undo) - 1; i >= 0; i-- {
		e := o.undo[i]
		o.grid[e.row][e.site] = e.prev
	}
	o.Commit()
}

// cellSpan converts a cell position to (rowStart, rowEnd, siteStart, siteEnd)
// half-open index ranges. Returns an error if the position is off-grid or
// outside the core.
func (o *Occupancy) cellSpan(c *Cell, x, y float64) (r0, r1, s0, s1 int, err error) {
	fr := (y - o.lo.Y) / o.rowH
	r0 = int(math.Round(fr))
	if math.Abs(fr-float64(r0)) > 1e-6 {
		return 0, 0, 0, 0, fmt.Errorf("cell %d: y=%g not on a row boundary", c.ID, y)
	}
	fs := (x - o.lo.X) / o.site
	s0 = int(math.Round(fs))
	if math.Abs(fs-float64(s0)) > 1e-6 {
		return 0, 0, 0, 0, fmt.Errorf("cell %d: x=%g not on a site boundary", c.ID, x)
	}
	r1 = r0 + c.RowSpan
	s1 = s0 + siteSpan(c.W, o.site)
	if r0 < 0 || r1 > len(o.grid) {
		return 0, 0, 0, 0, fmt.Errorf("cell %d: rows [%d,%d) outside core", c.ID, r0, r1)
	}
	if s0 < 0 || s1 > len(o.grid[r0]) {
		return 0, 0, 0, 0, fmt.Errorf("cell %d: sites [%d,%d) outside row", c.ID, s0, s1)
	}
	return r0, r1, s0, s1, nil
}

// Place marks the sites covered by cell c at position (x, y) as occupied.
// It fails without modifying the grid if any covered site is already
// occupied or the position is off-grid.
func (o *Occupancy) Place(c *Cell, x, y float64) error {
	r0, r1, s0, s1, err := o.cellSpan(c, x, y)
	if err != nil {
		return err
	}
	for r := r0; r < r1; r++ {
		for s := s0; s < s1; s++ {
			if o.grid[r][s] != 0 {
				return fmt.Errorf("cell %d: site (row %d, site %d) already occupied by cell %d",
					c.ID, r, s, o.grid[r][s]-1)
			}
		}
	}
	id := int32(c.ID + 1)
	for r := r0; r < r1; r++ {
		for s := s0; s < s1; s++ {
			o.set(r, s, id)
		}
	}
	return nil
}

// Clear frees every site a cell of c's size covers at (x, y), whoever holds
// it; an off-grid position clears nothing. For a cell of a legal placement
// that footprint holds only the cell itself, so Clear removes it without
// consulting the IDs the grid stores.
func (o *Occupancy) Clear(c *Cell, x, y float64) {
	r0, r1, s0, s1, err := o.cellSpan(c, x, y)
	if err != nil {
		return
	}
	for r := r0; r < r1; r++ {
		for s := s0; s < s1; s++ {
			if o.grid[r][s] != 0 {
				o.set(r, s, 0)
			}
		}
	}
}

// Remove clears the sites covered by cell c at position (x, y). Sites not
// owned by c are left untouched.
func (o *Occupancy) Remove(c *Cell, x, y float64) {
	r0, r1, s0, s1, err := o.cellSpan(c, x, y)
	if err != nil {
		return
	}
	id := int32(c.ID + 1)
	for r := r0; r < r1; r++ {
		for s := s0; s < s1; s++ {
			if o.grid[r][s] == id {
				o.grid[r][s] = 0
			}
		}
	}
}

// Fits reports whether cell c can be placed at (x, y): on-grid, inside the
// core, and with every covered site free.
func (o *Occupancy) Fits(c *Cell, x, y float64) bool {
	r0, r1, s0, s1, err := o.cellSpan(c, x, y)
	if err != nil {
		return false
	}
	for r := r0; r < r1; r++ {
		for s := s0; s < s1; s++ {
			if o.grid[r][s] != 0 {
				return false
			}
		}
	}
	return true
}

// FreeRun reports whether sites [s0, s1) are free in all rows [r0, r1).
func (o *Occupancy) FreeRun(r0, r1, s0, s1 int) bool {
	if r0 < 0 || r1 > len(o.grid) {
		return false
	}
	for r := r0; r < r1; r++ {
		if s0 < 0 || s1 > len(o.grid[r]) {
			return false
		}
		for s := s0; s < s1; s++ {
			if o.grid[r][s] != 0 {
				return false
			}
		}
	}
	return true
}

// OwnerAt returns the cell ID occupying (row, site), or -1 if free.
func (o *Occupancy) OwnerAt(row, site int) int {
	if row < 0 || row >= len(o.grid) || site < 0 || site >= len(o.grid[row]) {
		return -1
	}
	if v := o.grid[row][site]; v != 0 {
		return int(v - 1)
	}
	return -1
}

// BlockArea marks as occupied by the given cell ID every site that the
// rectangle [x, x+w) x [y, y+h) overlaps under the legality checker's strict
// half-open test, with the site's extent taken in absolute coordinates:
// a movable cell placed on any site left free cannot overlap the rectangle
// in CheckLegal's eyes. It is used for fixed cells and blockages, which need
// not be site-aligned. Already occupied sites are left as they are.
func (o *Occupancy) BlockArea(cellID int, x, y, w, h float64) {
	r0, r1 := overlapRange(o.lo.Y, o.rowH, y, y+h, len(o.grid))
	id := int32(cellID + 1)
	for r := r0; r < r1; r++ {
		s0, s1 := overlapRange(o.lo.X, o.site, x, x+w, len(o.grid[r]))
		for s := s0; s < s1; s++ {
			if o.grid[r][s] == 0 {
				o.grid[r][s] = id
			}
		}
	}
}

// BlockFixed blocks, as BlockArea does, the sites under every fixed cell of
// d, in ID order.
func (o *Occupancy) BlockFixed(d *Design) {
	for _, c := range d.Cells {
		if c.Fixed {
			o.BlockArea(c.ID, c.X, c.Y, c.W, c.H)
		}
	}
}

// PlaceMovable places every movable cell of d at its position, in ID order,
// and returns the first Place error.
func (o *Occupancy) PlaceMovable(d *Design) error {
	for _, c := range d.Cells {
		if c.Fixed {
			continue
		}
		if err := o.Place(c, c.X, c.Y); err != nil {
			return err
		}
	}
	return nil
}

// overlapRange returns the indices [a, b) within [0, n) of the grid slots
// [origin+i·step, origin+(i+1)·step) that overlap [lo, hi) under the strict
// test of geom.Interval.Overlaps. The floor and ceiling only seed the
// search; the loops settle each edge on the exact comparison.
func overlapRange(origin, step, lo, hi float64, n int) (a, b int) {
	if !(lo < hi) {
		return 0, 0
	}
	a = min(max(int(math.Floor((lo-origin)/step)), 0), n)
	for a > 0 && origin+float64(a)*step > lo { // slot a-1 ends after lo
		a--
	}
	for a < n && origin+float64(a+1)*step <= lo { // slot a ends by lo
		a++
	}
	b = min(max(int(math.Ceil((hi-origin)/step)), a), n)
	for b < n && origin+float64(b)*step < hi { // slot b starts before hi
		b++
	}
	for b > a && origin+float64(b-1)*step >= hi { // slot b-1 starts at hi or later
		b--
	}
	return a, b
}

// UsedSites returns the total number of occupied sites.
func (o *Occupancy) UsedSites() int {
	n := 0
	for _, row := range o.grid {
		for _, v := range row {
			if v != 0 {
				n++
			}
		}
	}
	return n
}
