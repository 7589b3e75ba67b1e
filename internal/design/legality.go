package design

import (
	"fmt"
	"math"
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
// never absorb a genuinely misaligned position. It is never below
// alignEps, so a position within alignEps units of the grid skips it.
func alignTol(coord, origin, unit float64) float64 {
	scale := math.Max(math.Abs(coord), math.Abs(origin)) / unit
	tol := alignEps * math.Max(1, scale*1e-6)
	return math.Min(tol, 0.1)
}

const alignEps = 1e-6

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
//
// The report lists every violation: the per-cell ones in cell order, then
// the overlaps in the order described at appendOverlaps. Callers that need
// only the verdict use IsLegal, which formats nothing.
func CheckLegal(d *Design) *LegalityReport {
	rep := &LegalityReport{}
	for _, c := range d.Cells {
		if !c.Fixed {
			rep.Violations = AppendCellViolations(rep.Violations, d, c)
		}
	}
	rep.Violations = appendOverlaps(rep.Violations, d)
	return rep
}

// IsLegal reports whether CheckLegal(d) would find no violation. It stops
// at the first one and, once its pooled scratch has grown to d's size,
// allocates nothing.
func IsLegal(d *Design) bool {
	for _, c := range d.Cells {
		if !c.Fixed {
			if f, _ := cellFaults(d, c); f != 0 {
				return false
			}
		}
	}
	s := getSweep()
	defer s.release()
	return !s.overlaps(d, true)
}

// Per-cell faults, as bits of the value cellFaults returns.
const (
	faultOutside = 1 << iota
	faultOffSite
	faultOffRow
	faultRail
)

// cellFaults evaluates the per-cell constraints on movable cell c and
// returns the faults found, with the row c sits on when it is on one. An
// off-row cell is not checked for its rail.
func cellFaults(d *Design, c *Cell) (faults, row int) {
	const eps = 1e-6
	b := c.Bounds()
	// Written as negated containment so a NaN bound, for which every
	// comparison is false, reads as outside.
	if !(b.Lo.X >= d.Core.Lo.X-eps && b.Hi.X <= d.Core.Hi.X+eps &&
		b.Lo.Y >= d.Core.Lo.Y-eps && b.Hi.Y <= d.Core.Hi.Y+eps) {
		faults |= faultOutside
	}
	// Site alignment, tolerance scaled for far-from-origin cores.
	fs := (c.X - d.Core.Lo.X) / d.SiteW
	if e := math.Abs(fs - math.Round(fs)); e > alignEps && e > alignTol(c.X, d.Core.Lo.X, d.SiteW) {
		faults |= faultOffSite
	}
	// Row alignment.
	fr := (c.Y - d.Core.Lo.Y) / d.RowHeight
	row = int(math.Round(fr))
	if e := math.Abs(fr - float64(row)); e > alignEps && e > alignTol(c.Y, d.Core.Lo.Y, d.RowHeight) ||
		row < 0 || row+c.RowSpan > len(d.Rows) {
		return faults | faultOffRow, row // rail check meaningless without a row
	}
	if c.EvenSpan() && d.Rows[row].Rail != c.BottomRail {
		faults |= faultRail
	}
	return faults, row
}

// AppendCellViolations appends the per-cell violations CheckLegal reports
// for movable cell c — core containment, site and row alignment, and the
// power rail of an even-span cell — leaving overlaps out. Callers that
// track occupancy themselves (an ECO commit) check overlaps on their grid.
func AppendCellViolations(dst []Violation, d *Design, c *Cell) []Violation {
	f, row := cellFaults(d, c)
	if f == 0 {
		return dst
	}
	if f&faultOutside != 0 {
		dst = append(dst, Violation{
			Kind: VOutsideCore, Cells: []int{c.ID},
			Msg: fmt.Sprintf("cell %d at %v outside core %v", c.ID, c.Bounds(), d.Core),
		})
	}
	if f&faultOffSite != 0 {
		dst = append(dst, Violation{
			Kind: VOffSite, Cells: []int{c.ID},
			Msg: fmt.Sprintf("cell %d x=%g not on site grid (site width %g)", c.ID, c.X, d.SiteW),
		})
	}
	if f&faultOffRow != 0 {
		dst = append(dst, Violation{
			Kind: VOffRow, Cells: []int{c.ID},
			Msg: fmt.Sprintf("cell %d y=%g not on a row boundary", c.ID, c.Y),
		})
	}
	if f&faultRail != 0 {
		dst = append(dst, Violation{
			Kind: VRailMismatch, Cells: []int{c.ID},
			Msg: fmt.Sprintf("cell %d (span %d, bottom %v) on row %d with rail %v",
				c.ID, c.RowSpan, c.BottomRail, row, d.Rows[row].Rail),
		})
	}
	return dst
}
