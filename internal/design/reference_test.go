package design

import (
	"fmt"
	"math"
	"sort"
)

// checkLegalRef is CheckLegal as it was before the row-band overlap kernel:
// the per-cell checks and the single x-sweep below, kept verbatim as the
// oracle the kernel's report is tested against (FuzzCheckLegal,
// TestCheckLegalGolden).
func checkLegalRef(d *Design) *LegalityReport {
	rep := &LegalityReport{}
	for _, c := range d.Cells {
		if !c.Fixed {
			rep.Violations = appendCellViolationsRef(rep.Violations, d, c)
		}
	}
	rep.Violations = append(rep.Violations, findOverlapsRef(d)...)
	return rep
}

func appendCellViolationsRef(dst []Violation, d *Design, c *Cell) []Violation {
	const eps = 1e-6
	b := c.Bounds()
	if b.Lo.X < d.Core.Lo.X-eps || b.Hi.X > d.Core.Hi.X+eps ||
		b.Lo.Y < d.Core.Lo.Y-eps || b.Hi.Y > d.Core.Hi.Y+eps {
		dst = append(dst, Violation{
			Kind: VOutsideCore, Cells: []int{c.ID},
			Msg: fmt.Sprintf("cell %d at %v outside core %v", c.ID, b, d.Core),
		})
	}
	// Site alignment, tolerance scaled for far-from-origin cores.
	fs := (c.X - d.Core.Lo.X) / d.SiteW
	if math.Abs(fs-math.Round(fs)) > alignTol(c.X, d.Core.Lo.X, d.SiteW) {
		dst = append(dst, Violation{
			Kind: VOffSite, Cells: []int{c.ID},
			Msg: fmt.Sprintf("cell %d x=%g not on site grid (site width %g)", c.ID, c.X, d.SiteW),
		})
	}
	// Row alignment.
	fr := (c.Y - d.Core.Lo.Y) / d.RowHeight
	row := int(math.Round(fr))
	if math.Abs(fr-float64(row)) > alignTol(c.Y, d.Core.Lo.Y, d.RowHeight) || row < 0 || row+c.RowSpan > len(d.Rows) {
		return append(dst, Violation{
			Kind: VOffRow, Cells: []int{c.ID},
			Msg: fmt.Sprintf("cell %d y=%g not on a row boundary", c.ID, c.Y),
		}) // rail check meaningless without a row
	}
	if c.EvenSpan() && d.Rows[row].Rail != c.BottomRail {
		dst = append(dst, Violation{
			Kind: VRailMismatch, Cells: []int{c.ID},
			Msg: fmt.Sprintf("cell %d (span %d, bottom %v) on row %d with rail %v",
				c.ID, c.RowSpan, c.BottomRail, row, d.Rows[row].Rail),
		})
	}
	return dst
}

// findOverlapsRef detects pairwise overlaps with a sweep over x-sorted cells,
// O(n log n + k) for k overlaps in typical row-structured placements.
// Overlaps between two fixed cells are skipped (see CheckLegal). The sweep
// order breaks x ties by cell ID, so the violation list is identical from
// run to run — audit certificates hash it and must get a stable ordering.
func findOverlapsRef(d *Design) []Violation {
	idx := make([]int, len(d.Cells))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ca, cb := d.Cells[idx[a]], d.Cells[idx[b]]
		if ca.X != cb.X {
			return ca.X < cb.X
		}
		return ca.ID < cb.ID
	})
	var out []Violation
	// Active window: cells whose x-span may still intersect the sweep line.
	var active []int
	for _, i := range idx {
		ci := d.Cells[i]
		bi := ci.Bounds()
		keep := active[:0]
		for _, j := range active {
			cj := d.Cells[j]
			if cj.X+cj.W > bi.Lo.X {
				keep = append(keep, j)
				if ci.Fixed && cj.Fixed {
					continue // input blockage overlap, not a legalization failure
				}
				if bi.Overlaps(cj.Bounds()) {
					a, b := ci.ID, cj.ID
					if a > b {
						a, b = b, a
					}
					out = append(out, Violation{
						Kind: VOverlap, Cells: []int{a, b},
						Msg: fmt.Sprintf("cells %d and %d overlap (area %g)", a, b, bi.Intersect(cj.Bounds()).Area()),
					})
				}
			}
		}
		active = append(keep, i)
	}
	return out
}
