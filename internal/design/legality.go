package design

import (
	"fmt"
	"math"
	"sort"
)

// Violation describes a single legality failure.
type Violation struct {
	Kind  string
	Cells []int // IDs of the cells involved
	Msg   string
}

func (v Violation) String() string { return fmt.Sprintf("%s: %s", v.Kind, v.Msg) }

// Violation kinds reported by CheckLegal.
const (
	VOutsideCore  = "outside-core"
	VOffSite      = "off-site"
	VOffRow       = "off-row"
	VRailMismatch = "rail-mismatch"
	VOverlap      = "overlap"
)

// LegalityReport aggregates all violations of a placement.
type LegalityReport struct {
	Violations []Violation
}

// Legal reports whether the placement had no violations.
func (r *LegalityReport) Legal() bool { return len(r.Violations) == 0 }

// Count returns the number of violations of the given kind.
func (r *LegalityReport) Count(kind string) int {
	n := 0
	for _, v := range r.Violations {
		if v.Kind == kind {
			n++
		}
	}
	return n
}

func (r *LegalityReport) String() string {
	if r.Legal() {
		return "legal"
	}
	return fmt.Sprintf("%d violations (%d outside-core, %d off-site, %d off-row, %d rail, %d overlap)",
		len(r.Violations), r.Count(VOutsideCore), r.Count(VOffSite), r.Count(VOffRow),
		r.Count(VRailMismatch), r.Count(VOverlap))
}

// alignTol returns the scale-aware tolerance for site/row alignment checks.
// The quotient (coord − origin) / unit carries round-off proportional to the
// magnitude of the operands, so for cores far from the coordinate origin a
// fixed absolute tolerance produces false off-site/off-row violations. The
// tolerance scales with the number of representable units of round-off at
// the operands' magnitude, and is capped at a tenth of a unit so it can
// never absorb a genuinely misaligned position.
func alignTol(coord, origin, unit float64) float64 {
	const eps = 1e-6
	scale := math.Max(math.Abs(coord), math.Abs(origin)) / unit
	tol := eps * math.Max(1, scale*1e-6)
	return math.Min(tol, 0.1)
}

// CheckLegal validates the full set of legalization constraints from the
// paper's problem statement (Section 2.1):
//
//  1. cells inside the chip core,
//  2. cells at placement sites on rows,
//  3. no two cells overlapping,
//  4. even-row-span cells aligned to a matching power rail.
//
// Fixed cells are exempt from the alignment constraints, and overlaps
// between two fixed cells are not reported either: pre-existing blockage
// overlaps are a property of the input, not of the legalization result, and
// no legalizer can repair them. A fixed cell overlapping a movable cell is
// still a violation.
func CheckLegal(d *Design) *LegalityReport {
	rep := &LegalityReport{}
	for _, c := range d.Cells {
		if !c.Fixed {
			rep.Violations = AppendCellViolations(rep.Violations, d, c)
		}
	}
	rep.Violations = append(rep.Violations, findOverlaps(d)...)
	return rep
}

// AppendCellViolations appends the per-cell violations CheckLegal reports
// for movable cell c — core containment, site and row alignment, and the
// power rail of an even-span cell — leaving overlaps out. Callers that
// track occupancy themselves (an ECO commit) check overlaps on their grid.
func AppendCellViolations(dst []Violation, d *Design, c *Cell) []Violation {
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

// findOverlaps detects pairwise overlaps with a sweep over x-sorted cells,
// O(n log n + k) for k overlaps in typical row-structured placements.
// Overlaps between two fixed cells are skipped (see CheckLegal). The sweep
// order breaks x ties by cell ID, so the violation list is identical from
// run to run — audit certificates hash it and must get a stable ordering.
func findOverlaps(d *Design) []Violation {
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
