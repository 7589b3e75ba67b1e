package tetris

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"mclg/internal/design"
	"mclg/internal/gen"
)

func mkDesign(rows, sites int) *design.Design {
	return design.NewDesign(design.Config{
		NumRows: rows, NumSites: sites, RowHeight: 10, SiteW: 1,
	})
}

func TestAllocateSnapsToSites(t *testing.T) {
	d := mkDesign(2, 50)
	c := d.AddCell("c", 4, 10, design.VSS)
	c.GX, c.GY = 10.3, 0
	c.X, c.Y = 10.3, 0
	res, err := Allocate(d)
	if err != nil {
		t.Fatal(err)
	}
	if c.X != 10 {
		t.Errorf("X = %g, want 10 (snapped)", c.X)
	}
	if res.Illegal != 0 {
		t.Errorf("Illegal = %d, want 0", res.Illegal)
	}
	if math.Abs(res.MaxSnapDist-0.3) > 1e-9 {
		t.Errorf("MaxSnapDist = %g, want 0.3", res.MaxSnapDist)
	}
}

func TestAllocateResolvesOverlapByShove(t *testing.T) {
	d := mkDesign(2, 50)
	a := d.AddCell("a", 5, 10, design.VSS)
	b := d.AddCell("b", 5, 10, design.VSS)
	a.X, a.Y = 10, 0
	b.X, b.Y = 12, 0 // overlaps a
	res, err := Allocate(d)
	if err != nil {
		t.Fatal(err)
	}
	// One cell was illegal after MMSIM (the overlap), and the shove pass
	// resolves it without the nearest-free repair stage.
	if res.Illegal != 1 {
		t.Errorf("Illegal = %d, want 1", res.Illegal)
	}
	if res.Repaired != 0 {
		t.Errorf("Repaired = %d, want 0 (shove pass should fix it)", res.Repaired)
	}
	if a.X >= b.X {
		t.Errorf("ordering lost: a.X=%g, b.X=%g", a.X, b.X)
	}
	if rep := design.CheckLegal(d); !rep.Legal() {
		t.Fatalf("still illegal: %v", rep)
	}
}

func TestAllocateRepairsOverfullRow(t *testing.T) {
	// Row 0 is overfull: 6 cells of width 10 in a 50-site row. The shove
	// pass cannot fix that; the repair stage must move cells to row 1.
	d := mkDesign(2, 50)
	for i := 0; i < 6; i++ {
		c := d.AddCell("c", 10, 10, design.VSS)
		c.X, c.Y = float64(8*i), 0
	}
	res, err := Allocate(d)
	if err != nil {
		t.Fatal(err)
	}
	if res.Illegal == 0 {
		t.Error("expected repair for an overfull row")
	}
	if res.Unplaced != 0 {
		t.Fatalf("Unplaced = %d", res.Unplaced)
	}
	if rep := design.CheckLegal(d); !rep.Legal() {
		t.Fatalf("still illegal: %v", rep)
	}
}

func TestAllocateOutOfRightBoundary(t *testing.T) {
	d := mkDesign(1, 20)
	a := d.AddCell("a", 8, 10, design.VSS)
	a.X, a.Y = 30, 0 // way past the right edge (relaxed boundary in MMSIM)
	if _, err := Allocate(d); err != nil {
		t.Fatal(err)
	}
	if a.X+a.W > d.Core.Hi.X {
		t.Errorf("cell still out of boundary: X=%g", a.X)
	}
	if rep := design.CheckLegal(d); !rep.Legal() {
		t.Fatalf("illegal: %v", rep)
	}
}

func TestAllocateRespectsRailOnRepair(t *testing.T) {
	d := mkDesign(6, 30)
	// Fill row 0 completely so the double-height VSS cell must move; its
	// only legal rows are VSS rails (0, 2, 4).
	blocker := d.AddCell("blk", 30, 10, design.VSS)
	blocker.X, blocker.Y = 0, 0
	dc := d.AddCell("dc", 6, 20, design.VSS)
	dc.X, dc.Y = 0, 0 // overlaps blocker
	if _, err := Allocate(d); err != nil {
		t.Fatal(err)
	}
	row := d.RowAt(dc.Y + 1)
	if d.Rows[row].Rail != design.VSS {
		t.Errorf("double-height cell repaired onto %v rail row %d", d.Rows[row].Rail, row)
	}
	if rep := design.CheckLegal(d); !rep.Legal() {
		t.Fatalf("illegal: %v", rep)
	}
}

func TestAllocateShovePreservesSeparatedCells(t *testing.T) {
	d := mkDesign(1, 100)
	a := d.AddCell("a", 10, 10, design.VSS)
	a.X, a.Y = 10, 0
	b := d.AddCell("b", 5, 10, design.VSS)
	b.X, b.Y = 40, 0 // far away: nothing should move
	if _, err := Allocate(d); err != nil {
		t.Fatal(err)
	}
	if a.X != 10 || b.X != 40 {
		t.Errorf("separated cells moved: a=%g b=%g", a.X, b.X)
	}
}

func TestAllocateFixedCellsBlock(t *testing.T) {
	d := mkDesign(2, 40)
	f := d.AddCell("f", 10, 10, design.VSS)
	f.Fixed = true
	f.X, f.Y = 10.5, 0 // off-grid fixed cell blocks sites 10..21
	c := d.AddCell("c", 4, 10, design.VSS)
	c.X, c.Y = 12, 0
	if _, err := Allocate(d); err != nil {
		t.Fatal(err)
	}
	if c.Bounds().Overlaps(f.Bounds()) {
		t.Errorf("movable cell overlaps fixed cell: c at %g", c.X)
	}
	if f.X != 10.5 {
		t.Error("fixed cell moved")
	}
}

func TestAllocateErrorOnBadRow(t *testing.T) {
	d := mkDesign(2, 40)
	c := d.AddCell("c", 4, 10, design.VSS)
	c.X, c.Y = 0, 5 // not on a row boundary
	if _, err := Allocate(d); err == nil {
		t.Error("expected error for off-row cell")
	}
}

func TestAllocateDensePackingViaRebuild(t *testing.T) {
	// Saturate a tiny core so the first-pass greedy inevitably fragments;
	// the rebuild fallback must still find the (unique up to permutation)
	// full packing.
	d := mkDesign(2, 20)
	for i := 0; i < 8; i++ {
		c := d.AddCell("c", 5, 10, design.VSS)
		c.X, c.Y = 7, 0 // everyone piled at the same spot
	}
	res, err := Allocate(d)
	if err != nil {
		t.Fatal(err)
	}
	if res.Unplaced != 0 {
		t.Fatalf("Unplaced = %d with exactly-full core", res.Unplaced)
	}
	if rep := design.CheckLegal(d); !rep.Legal() {
		t.Fatalf("illegal: %v", rep)
	}
}

func TestAllocateRandomizedAlwaysLegal(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		d := mkDesign(4+rng.Intn(4), 40+rng.Intn(40))
		n := 10 + rng.Intn(30)
		for i := 0; i < n; i++ {
			h := d.RowHeight
			rail := design.VSS
			if rng.Float64() < 0.25 {
				h *= 2
				if rng.Intn(2) == 0 {
					rail = design.VDD
				}
			}
			c := d.AddCell("c", float64(1+rng.Intn(6)), h, rail)
			// Random row-aligned y, arbitrary x (possibly out of bounds).
			row := rng.Intn(len(d.Rows) - int(h/d.RowHeight) + 1)
			if c.EvenSpan() {
				row = nearestCompatRow(d, c, row)
			}
			c.Y = d.RowY(row)
			c.X = rng.Float64()*float64(d.Rows[0].NumSites)*1.2 - 5
		}
		res, err := Allocate(d)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Unplaced != 0 {
			t.Fatalf("trial %d: %d unplaced", trial, res.Unplaced)
		}
		if rep := design.CheckLegal(d); !rep.Legal() {
			t.Fatalf("trial %d: %v", trial, rep)
		}
	}
}

func nearestCompatRow(d *design.Design, c *design.Cell, row int) int {
	best := -1
	for r := 0; r+c.RowSpan <= len(d.Rows); r++ {
		if d.RailCompatible(c, r) {
			if best < 0 || abs(r-row) < abs(best-row) {
				best = r
			}
		}
	}
	return best
}

func abs(a int) int {
	if a < 0 {
		return -a
	}
	return a
}

// TestScratchReuseMatchesFresh allocates designs of changing size and shape
// (big, small, big, triple-height cells, fixed macros) one after another
// through the recycled scratch, and each on fresh storage: every result and
// placement must match, so no pass reads what an earlier, differently sized
// pass left behind.
func TestScratchReuseMatchesFresh(t *testing.T) {
	var designs []*design.Design
	for _, s := range []gen.Spec{
		{Name: "big", SingleCells: 900, DoubleCells: 120, Density: 0.7, Seed: 1},
		{Name: "small", SingleCells: 60, DoubleCells: 8, Density: 0.5, Seed: 2},
		{Name: "big", SingleCells: 900, DoubleCells: 120, Density: 0.7, Seed: 1},
		{Name: "triple", SingleCells: 300, DoubleCells: 30, TripleCells: 25, Density: 0.55, Seed: 3},
		{Name: "macros", SingleCells: 400, DoubleCells: 40, FixedMacros: 3, Density: 0.5, Seed: 4},
	} {
		d, err := gen.Generate(s)
		if err != nil {
			t.Fatal(err)
		}
		// Row assignment as the legalizer does it, without the solve: the
		// global placement's overlaps exercise the repair passes.
		for _, c := range d.Cells {
			if !c.Fixed {
				c.X, c.Y = c.GX, d.RowY(d.NearestCorrectRow(c, c.GY))
			}
		}
		designs = append(designs, d)
	}
	type result struct {
		res Result
		pos []design.Cell
	}
	allocate := func(i int) result {
		d := designs[i].Clone()
		res, err := Allocate(d)
		if err != nil {
			t.Fatalf("design %d: %v", i, err)
		}
		r := result{res: *res}
		for _, c := range d.Cells {
			r.pos = append(r.pos, *c)
		}
		return r
	}
	want := make([]result, len(designs))
	for i := range designs {
		scratches.Get() // empties the slot; the collections empty the pool
		runtime.GC()
		runtime.GC()
		want[i] = allocate(i)
	}
	for i := range designs {
		if got := allocate(i); !reflect.DeepEqual(got, want[i]) {
			t.Errorf("design %d: recycled scratch gives %+v, fresh %+v", i, got.res, want[i].res)
		}
	}
}
