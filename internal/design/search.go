package design

import (
	"math"
	"slices"
)

// NearestFree searches for the free on-grid position nearest to (tx, ty)
// in squared-Euclidean distance where cell c fits: rail-compatible start
// rows are scanned outward by |Δy|, and within each row sites are scanned
// outward from the snapped target, pruned once the row's vertical distance
// alone exceeds the best cost found. Returns ok == false when no free run
// of the required width exists anywhere.
func NearestFree(d *Design, occ *Occupancy, c *Cell, tx, ty float64) (x, y float64, ok bool) {
	bestCost := math.Inf(1)
	var bestX, bestY float64
	found := false

	baseRow := d.RowAt(ty + d.RowHeight/2)
	maxStart := len(d.Rows) - c.RowSpan
	if maxStart < 0 {
		return 0, 0, false
	}
	if baseRow < 0 {
		if ty < d.Core.Lo.Y {
			baseRow = 0
		} else {
			baseRow = maxStart
		}
	}
	if baseRow > maxStart {
		baseRow = maxStart
	}
	widthSites := d.SiteSpan(c)

	for delta := 0; delta <= len(d.Rows); delta++ {
		progressed := false
		for _, row := range [2]int{baseRow - delta, baseRow + delta} {
			if row < 0 || row > maxStart {
				continue
			}
			progressed = true
			if !d.RailCompatible(c, row) {
				continue
			}
			y := d.RowY(row)
			dy := y - ty
			if dy*dy >= bestCost {
				continue
			}
			if x, ok := scanRowForRun(d, occ, c, row, tx, bestCost-dy*dy, widthSites); ok {
				dx := x - tx
				if cost := dx*dx + dy*dy; cost < bestCost {
					bestCost, bestX, bestY, found = cost, x, y, true
				}
			}
			if delta == 0 {
				break
			}
		}
		if !progressed && delta > 0 {
			break
		}
		if found {
			dy := float64(delta) * d.RowHeight
			if dy*dy > bestCost {
				break
			}
		}
	}
	return bestX, bestY, found
}

// PlaceNearest places c at the free position nearest (tx, ty) (NearestFree),
// marks it in occ and moves the cell there (Move). When no free run of c's
// width exists anywhere, it clears c's footprint at site SiteIndex(tx) of the
// nearest correct row to ty (NearestCorrectRow), shifted left as far as the
// row's end requires: the movable cells there are evicted, c is placed, and
// the evicted cells are re-placed in ID order, each by PlaceNearest from its
// old position with one less depth. c is appended to failed instead when
// depth is 0, when no row qualifies or the row is narrower than c, or when a
// fixed cell blocks the footprint.
func PlaceNearest(d *Design, occ *Occupancy, c *Cell, tx, ty float64, depth int, failed *[]*Cell) {
	if x, y, ok := NearestFree(d, occ, c, tx, ty); ok {
		if err := occ.Place(c, x, y); err != nil {
			*failed = append(*failed, c)
			return
		}
		d.Move(c, x, y)
		return
	}
	row := d.NearestCorrectRow(c, ty)
	if depth == 0 || row < 0 {
		*failed = append(*failed, c)
		return
	}
	w := d.SiteSpan(c)
	s0 := min(d.SiteIndex(tx), d.Rows[row].NumSites-w)
	if s0 < 0 {
		*failed = append(*failed, c)
		return
	}
	var evicted []int
	for r := row; r < row+c.RowSpan; r++ {
		for s := s0; s < s0+w; s++ {
			if id := occ.OwnerAt(r, s); id >= 0 {
				if d.Cells[id].Fixed {
					*failed = append(*failed, c)
					return
				}
				evicted = append(evicted, id)
			}
		}
	}
	slices.Sort(evicted)
	evicted = slices.Compact(evicted)
	for _, id := range evicted {
		ec := d.Cells[id]
		occ.Remove(ec, ec.X, ec.Y)
	}
	x, y := d.Rows[row].OriginX+float64(s0)*d.SiteW, d.RowY(row)
	if err := occ.Place(c, x, y); err != nil {
		// The footprint could not be cleared; put the evicted cells back.
		for _, id := range evicted {
			ec := d.Cells[id]
			_ = occ.Place(ec, ec.X, ec.Y)
		}
		*failed = append(*failed, c)
		return
	}
	d.Move(c, x, y)
	for _, id := range evicted {
		ec := d.Cells[id]
		PlaceNearest(d, occ, ec, ec.X, ec.Y, depth-1, failed)
	}
}

// scanRowForRun finds the free run of widthSites sites starting at row
// whose left edge is nearest to tx, with squared horizontal distance below
// maxCostSq. The run must be free in all of the cell's spanned rows.
func scanRowForRun(d *Design, occ *Occupancy, c *Cell, row int, tx float64, maxCostSq float64, widthSites int) (float64, bool) {
	r := &d.Rows[row]
	target := int(math.Round((tx - r.OriginX) / r.SiteW))
	maxStartSite := r.NumSites - widthSites
	if maxStartSite < 0 {
		return 0, false
	}
	if target < 0 {
		target = 0
	}
	if target > maxStartSite {
		target = maxStartSite
	}
	r0, r1 := row, row+c.RowSpan
	check := func(s int) bool {
		return occ.FreeRun(r0, r1, s, s+widthSites)
	}
	for delta := 0; ; delta++ {
		dx := float64(delta) * r.SiteW
		if dx*dx >= maxCostSq {
			return 0, false
		}
		if s := target - delta; s >= 0 && check(s) {
			return r.OriginX + float64(s)*r.SiteW, true
		}
		if delta > 0 {
			if s := target + delta; s <= maxStartSite && check(s) {
				return r.OriginX + float64(s)*r.SiteW, true
			}
		}
		if target-delta < 0 && target+delta > maxStartSite {
			return 0, false
		}
	}
}
