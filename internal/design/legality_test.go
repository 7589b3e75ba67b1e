package design

import (
	"math"
	"math/rand"
	"testing"
)

func place(c *Cell, x, y float64) {
	c.X, c.Y = x, y
}

func TestCheckLegalCleanPlacement(t *testing.T) {
	d := smallDesign()
	a := d.AddCell("a", 4, 10, VSS)
	b := d.AddCell("b", 4, 20, VSS)
	place(a, 0, 0)
	place(b, 4, 0) // abuts a, starts on VSS row 0
	rep := CheckLegal(d)
	if !rep.Legal() {
		t.Fatalf("expected legal, got %v", rep)
	}
}

func TestCheckLegalOutsideCore(t *testing.T) {
	d := smallDesign()
	a := d.AddCell("a", 4, 10, VSS)
	place(a, 98, 0) // extends to x=102 > 100
	rep := CheckLegal(d)
	if rep.Count(VOutsideCore) != 1 {
		t.Errorf("outside-core = %d, want 1: %v", rep.Count(VOutsideCore), rep)
	}
}

// A non-finite coordinate fails every comparison or lands off the core, so
// both CheckLegal and IsLegal must reject it, as an outside-core fault.
func TestCheckLegalRejectsNonFinite(t *testing.T) {
	for _, tc := range []struct {
		name string
		x, y float64
	}{
		{"NaN X", math.NaN(), 0},
		{"NaN Y", 0, math.NaN()},
		{"+Inf X", math.Inf(1), 0},
		{"-Inf X", math.Inf(-1), 0},
		{"+Inf Y", 0, math.Inf(1)},
		{"-Inf Y", 0, math.Inf(-1)},
	} {
		d := smallDesign()
		a := d.AddCell("a", 4, 10, VSS)
		place(a, tc.x, tc.y)
		rep := CheckLegal(d)
		if rep.Legal() || rep.Count(VOutsideCore) != 1 {
			t.Errorf("%s: CheckLegal = %v, want an outside-core violation", tc.name, rep)
		}
		if IsLegal(d) {
			t.Errorf("%s: IsLegal accepted the cell", tc.name)
		}
	}
}

func TestCheckLegalOffSiteOffRow(t *testing.T) {
	d := smallDesign()
	a := d.AddCell("a", 4, 10, VSS)
	place(a, 3.5, 0)
	if rep := CheckLegal(d); rep.Count(VOffSite) != 1 {
		t.Errorf("off-site: %v", rep)
	}
	place(a, 3, 5)
	if rep := CheckLegal(d); rep.Count(VOffRow) != 1 {
		t.Errorf("off-row: %v", rep)
	}
}

func TestCheckLegalRailMismatch(t *testing.T) {
	d := smallDesign()
	e := d.AddCell("e", 4, 20, VSS)
	place(e, 0, 10) // row 1 is VDD but cell bottom is VSS
	rep := CheckLegal(d)
	if rep.Count(VRailMismatch) != 1 {
		t.Errorf("rail mismatch = %d, want 1: %v", rep.Count(VRailMismatch), rep)
	}
	// An odd cell on any row is fine.
	o := d.AddCell("o", 4, 10, VSS)
	place(o, 10, 10)
	rep = CheckLegal(d)
	if rep.Count(VRailMismatch) != 1 {
		t.Errorf("odd cell must not trigger rail violation: %v", rep)
	}
}

func TestCheckLegalOverlap(t *testing.T) {
	d := smallDesign()
	a := d.AddCell("a", 6, 10, VSS)
	b := d.AddCell("b", 6, 10, VSS)
	place(a, 0, 0)
	place(b, 4, 0)
	rep := CheckLegal(d)
	if rep.Count(VOverlap) != 1 {
		t.Fatalf("overlap = %d, want 1: %v", rep.Count(VOverlap), rep)
	}
	// Multi-row overlap: double-height cell vs single in its upper row.
	c := d.AddCell("c", 6, 20, VSS)
	e := d.AddCell("e", 6, 10, VSS)
	place(c, 20, 0)
	place(e, 22, 10) // overlaps c's upper half
	rep = CheckLegal(d)
	if rep.Count(VOverlap) != 2 {
		t.Errorf("overlap = %d, want 2: %v", rep.Count(VOverlap), rep)
	}
}

func TestCheckLegalAbuttingNotOverlap(t *testing.T) {
	d := smallDesign()
	a := d.AddCell("a", 5, 10, VSS)
	b := d.AddCell("b", 5, 10, VSS)
	place(a, 0, 0)
	place(b, 5, 0)
	if rep := CheckLegal(d); !rep.Legal() {
		t.Errorf("abutting cells flagged: %v", rep)
	}
}

func TestCheckLegalFixedCellsExemptButCollide(t *testing.T) {
	d := smallDesign()
	f := d.AddCell("f", 4, 10, VSS)
	f.Fixed = true
	place(f, 0.5, 3) // off grid — but fixed, so no off-site/off-row violation
	a := d.AddCell("a", 4, 10, VSS)
	place(a, 0, 0) // overlaps the fixed cell
	rep := CheckLegal(d)
	if rep.Count(VOffSite) != 0 || rep.Count(VOffRow) != 0 {
		t.Errorf("fixed cell should be exempt from alignment: %v", rep)
	}
	if rep.Count(VOverlap) != 1 {
		t.Errorf("fixed cell must still participate in overlap: %v", rep)
	}
}

// Regression: two overlapping fixed cells (pre-existing blockage overlap in
// the input) must not mark an otherwise-legal placement illegal — no
// legalizer can repair what it is not allowed to move.
func TestCheckLegalFixedFixedOverlapExempt(t *testing.T) {
	d := smallDesign()
	f1 := d.AddCell("f1", 8, 10, VSS)
	f1.Fixed = true
	place(f1, 10, 0)
	f2 := d.AddCell("f2", 8, 10, VSS)
	f2.Fixed = true
	place(f2, 14, 0) // overlaps f1 — both fixed
	a := d.AddCell("a", 4, 10, VSS)
	place(a, 30, 0)
	rep := CheckLegal(d)
	if !rep.Legal() {
		t.Errorf("fixed-fixed overlap flagged the placement illegal: %v", rep)
	}
	// A movable cell overlapping a fixed cell is still a violation.
	place(a, 12, 0)
	if rep := CheckLegal(d); rep.Count(VOverlap) == 0 {
		t.Errorf("fixed-movable overlap must still be reported: %v", rep)
	}
}

// Regression: a core far from the coordinate origin accumulates round-off in
// (c.X − Core.Lo.X) / SiteW past the old absolute 1e-6 tolerance, flagging
// perfectly site-aligned cells off-site. The tolerance must scale with the
// coordinate magnitude.
func TestCheckLegalFarOriginCore(t *testing.T) {
	const origin = 1e12 + 0.1 // ulp ≈ 1.2e-4 at this magnitude
	d := NewDesign(Config{
		Name: "far", NumRows: 4, NumSites: 100, RowHeight: 10, SiteW: 1,
		OriginX: origin, OriginY: origin,
	})
	a := d.AddCell("a", 4, 10, VSS)
	// Simulate what a solver computes: position derived through arithmetic
	// that rounds at the core's magnitude.
	x := d.SnapX(origin + 37.4999)
	place(a, x, d.RowY(2))
	rep := CheckLegal(d)
	if rep.Count(VOffSite) != 0 || rep.Count(VOffRow) != 0 {
		t.Errorf("far-origin aligned cell flagged: %v", rep)
	}
	// A genuinely misaligned cell must still be caught: half a site off.
	place(a, x+0.5, d.RowY(2))
	if rep := CheckLegal(d); rep.Count(VOffSite) != 1 {
		t.Errorf("misaligned far-origin cell not flagged: %v", rep)
	}
	// And half a row off.
	place(a, x, d.RowY(2)+5)
	if rep := CheckLegal(d); rep.Count(VOffRow) != 1 {
		t.Errorf("off-row far-origin cell not flagged: %v", rep)
	}
}

// Regression: violation output must be deterministic run to run, including
// cells with identical x positions — audit certificates hash the violation
// list and need a stable ordering.
func TestFindOverlapsDeterministicOrder(t *testing.T) {
	build := func() []Violation {
		d := smallDesign()
		// Many cells at identical x positions across rows, all overlapping a
		// wide cell in their row — x ties everywhere, so only the ID
		// tie-break keeps the sweep order stable.
		for row := 0; row < 4; row++ {
			w := d.AddCell("w", 20, 10, VSS)
			place(w, 0, d.RowY(row))
			for k := 0; k < 5; k++ {
				c := d.AddCell("c", 4, 10, VSS)
				place(c, float64(4*k), d.RowY(row))
			}
		}
		return CheckLegal(d).Violations
	}
	a := build()
	for run := 0; run < 5; run++ {
		b := build()
		if len(a) != len(b) {
			t.Fatalf("violation count changed between runs: %d vs %d", len(a), len(b))
		}
		for i := range a {
			if a[i].Kind != b[i].Kind || a[i].Msg != b[i].Msg ||
				a[i].Cells[0] != b[i].Cells[0] || a[i].Cells[1] != b[i].Cells[1] {
				t.Fatalf("run %d: violation %d differs: %v vs %v", run, i, a[i], b[i])
			}
		}
	}
	// Pin the ordering contract itself: pair IDs ascending within a
	// violation, and the list sorted by the sweep's (x, id) order.
	for _, v := range a {
		if len(v.Cells) == 2 && v.Cells[0] > v.Cells[1] {
			t.Errorf("violation pair not ID-ordered: %v", v)
		}
	}
}

func TestOccupancyPlaceRemoveFits(t *testing.T) {
	d := smallDesign()
	a := d.AddCell("a", 4, 20, VSS)
	o := NewOccupancy(d)
	if !o.Fits(a, 10, 0) {
		t.Fatal("empty grid should fit")
	}
	if err := o.Place(a, 10, 0); err != nil {
		t.Fatal(err)
	}
	if o.OwnerAt(0, 10) != a.ID || o.OwnerAt(1, 13) != a.ID {
		t.Error("occupancy not recorded across both rows")
	}
	if o.OwnerAt(0, 14) != -1 {
		t.Error("site past cell end should be free")
	}
	b := d.AddCell("b", 4, 10, VSS)
	if o.Fits(b, 12, 10) {
		t.Error("upper-row conflict not detected")
	}
	if err := o.Place(b, 12, 10); err == nil {
		t.Error("Place must fail on conflict")
	}
	if o.UsedSites() != 8 {
		t.Errorf("UsedSites = %d, want 8", o.UsedSites())
	}
	o.Remove(a, 10, 0)
	if o.UsedSites() != 0 {
		t.Error("Remove left occupied sites")
	}
	if !o.Fits(b, 12, 10) {
		t.Error("grid should be free after removal")
	}
}

func TestOccupancyOffGridRejected(t *testing.T) {
	d := smallDesign()
	a := d.AddCell("a", 4, 10, VSS)
	o := NewOccupancy(d)
	if o.Fits(a, 0.5, 0) {
		t.Error("off-site position must not fit")
	}
	if o.Fits(a, 0, 5) {
		t.Error("off-row position must not fit")
	}
	if o.Fits(a, 98, 0) {
		t.Error("position crossing right boundary must not fit")
	}
	if err := o.Place(a, 0.5, 0); err == nil {
		t.Error("Place must reject off-grid position")
	}
}

func TestOccupancyFreeRun(t *testing.T) {
	d := smallDesign()
	a := d.AddCell("a", 4, 10, VSS)
	o := NewOccupancy(d)
	if err := o.Place(a, 10, 0); err != nil {
		t.Fatal(err)
	}
	if !o.FreeRun(0, 1, 0, 10) {
		t.Error("sites left of the cell should be free")
	}
	if o.FreeRun(0, 1, 8, 12) {
		t.Error("run crossing the cell should not be free")
	}
	if o.FreeRun(-1, 1, 0, 1) || o.FreeRun(0, 1, 95, 105) {
		t.Error("out-of-range runs must be rejected")
	}
}

// Property-style randomized test: place random non-overlapping cells via the
// occupancy grid, then CheckLegal must agree the placement is legal.
func TestOccupancyAndCheckerAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		d := smallDesign()
		o := NewOccupancy(d)
		for i := 0; i < 60; i++ {
			span := 1 + rng.Intn(2)
			c := d.AddCell("c", float64(1+rng.Intn(6)), float64(span)*d.RowHeight, VSS)
			placed := false
			for try := 0; try < 30 && !placed; try++ {
				row := rng.Intn(len(d.Rows) - span + 1)
				if c.EvenSpan() && !d.RailCompatible(c, row) {
					continue
				}
				x := float64(rng.Intn(d.Rows[0].NumSites - int(c.W)))
				y := d.RowY(row)
				if o.Fits(c, x, y) {
					if err := o.Place(c, x, y); err != nil {
						t.Fatal(err)
					}
					place(c, x, y)
					placed = true
				}
			}
			if !placed {
				// Park it legally at a guaranteed-free spot or drop it.
				d.Cells = d.Cells[:len(d.Cells)-1]
			}
		}
		rep := CheckLegal(d)
		if !rep.Legal() {
			t.Fatalf("trial %d: occupancy-based placement flagged illegal: %v", trial, rep)
		}
	}
}
