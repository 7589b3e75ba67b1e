package design

import (
	"math"
	"testing"
)

// railDesign has rows 0..3 with bottom rails VSS, VDD, VSS, VDD.
func railDesign(sites int) *Design {
	return NewDesign(Config{NumRows: 4, NumSites: sites, RowHeight: 10, SiteW: 1})
}

func TestMoveFlipsOddSpanOnRailMismatch(t *testing.T) {
	d := railDesign(20)
	single := d.AddCell("s", 2, 10, VSS)
	d.Move(single, 3, 10)
	if single.X != 3 || single.Y != 10 || !single.Flipped {
		t.Errorf("single on a VDD row: (%g, %g) flipped=%v, want (3, 10) flipped", single.X, single.Y, single.Flipped)
	}
	d.Move(single, 3, 20)
	if single.Flipped {
		t.Error("single on a VSS row stays flipped")
	}
	triple := d.AddCell("t", 2, 30, VDD)
	d.Move(triple, 0, 0)
	if !triple.Flipped {
		t.Error("VDD-bottom triple on a VSS row not flipped")
	}

	// Even-span cells keep their flag whatever the rail.
	double := d.AddCell("d", 2, 20, VDD)
	double.Flipped = true
	d.Move(double, 5, 0)
	if double.X != 5 || double.Y != 0 || !double.Flipped {
		t.Errorf("double: (%g, %g) flipped=%v, want (5, 0) with its flag kept", double.X, double.Y, double.Flipped)
	}
	double.Flipped = false
	d.Move(double, 5, 10)
	if double.Flipped {
		t.Error("double flipped by a move")
	}

	// Off the rows the flag is left alone.
	for _, y := range []float64{-10, 40} {
		single.Flipped = true
		d.Move(single, 1, y)
		if single.Y != y || !single.Flipped {
			t.Errorf("y=%g off the rows: y=%g flipped=%v, want the position set and the flag kept", y, single.Y, single.Flipped)
		}
	}
}

func TestSiteSpanToleratesRoundOff(t *testing.T) {
	d := NewDesign(Config{NumRows: 1, NumSites: 20, RowHeight: 10, SiteW: 2})
	for _, tc := range []struct {
		sites float64
		want  int
	}{
		{3, 3},
		{3 + 5e-10, 3},
		{3 + 2e-9, 4},
		{2.5, 3},
	} {
		c := d.AddCell("c", tc.sites*d.SiteW, 10, VSS)
		if got := d.SiteSpan(c); got != tc.want {
			t.Errorf("width %v sites: SiteSpan = %d, want %d", tc.sites, got, tc.want)
		}
	}
}

func TestBlockFixedAndPlaceMovable(t *testing.T) {
	d := NewDesign(Config{NumRows: 2, NumSites: 10, RowHeight: 10, SiteW: 1})
	fixed := d.AddCell("f", 2, 10, VSS)
	fixed.X, fixed.Fixed = 2.5, true // off-grid: covers sites 2, 3 and 4
	a := d.AddCell("a", 2, 10, VSS)
	b := d.AddCell("b", 3, 10, VSS)
	b.X, b.Y = 5, 10

	occ := NewOccupancy(d)
	occ.BlockFixed(d)
	for s := 0; s < 10; s++ {
		want := -1
		if s >= 2 && s <= 4 {
			want = fixed.ID
		}
		if got := occ.OwnerAt(0, s); got != want {
			t.Errorf("after BlockFixed: site %d owned by %d, want %d", s, got, want)
		}
	}
	if n := occ.UsedSites(); n != 3 {
		t.Errorf("BlockFixed used %d sites, want 3 (movable cells placed?)", n)
	}
	if err := occ.PlaceMovable(d); err != nil {
		t.Fatal(err)
	}
	if occ.OwnerAt(0, 1) != a.ID || occ.OwnerAt(1, 7) != b.ID || occ.UsedSites() != 8 {
		t.Errorf("after PlaceMovable: owners %d, %d and %d used sites, want %d, %d and 8",
			occ.OwnerAt(0, 1), occ.OwnerAt(1, 7), occ.UsedSites(), a.ID, b.ID)
	}

	// A movable cell on a blocked site is an error.
	a.X = 3
	occ = NewOccupancy(d)
	occ.BlockFixed(d)
	if err := occ.PlaceMovable(d); err == nil {
		t.Error("PlaceMovable accepted a cell on a fixed cell's site")
	}
}

// fragmented returns a one-row design with single-site cells at the given
// sites (fixed where marked), its grid, and a width-2 cell that has no free
// run anywhere and is not in the grid.
func fragmented(t *testing.T, sites int, at []int, fixed map[int]bool) (*Design, *Occupancy, *Cell) {
	t.Helper()
	d := NewDesign(Config{NumRows: 1, NumSites: sites, RowHeight: 10, SiteW: 1})
	for _, s := range at {
		c := d.AddCell("blk", 1, 10, VSS)
		c.X, c.Fixed = float64(s), fixed[s]
	}
	occ := NewOccupancy(d)
	occ.BlockFixed(d)
	if err := occ.PlaceMovable(d); err != nil {
		t.Fatal(err)
	}
	c := d.AddCell("wide", 2, 10, VSS)
	c.X = -1 // never placed
	if _, _, ok := NearestFree(d, occ, c, 0, 0); ok {
		t.Fatal("test premise: the wide cell found a free run")
	}
	return d, occ, c
}

func TestPlaceNearestFreeRun(t *testing.T) {
	d := railDesign(10)
	occ := NewOccupancy(d)
	c := d.AddCell("c", 2, 10, VSS)
	var failed []*Cell
	PlaceNearest(d, occ, c, 3.2, 11, false, &failed)
	if len(failed) != 0 || c.X != 3 || c.Y != 10 || !c.Flipped || occ.OwnerAt(1, 4) != c.ID {
		t.Errorf("got (%g, %g) flipped=%v failed=%d, want (3, 10) flipped and placed", c.X, c.Y, c.Flipped, len(failed))
	}
}

func TestPlaceNearestNoEvictFails(t *testing.T) {
	d, occ, c := fragmented(t, 5, []int{0, 2, 4}, nil)
	var failed []*Cell
	PlaceNearest(d, occ, c, 1, 0, false, &failed)
	if len(failed) != 1 || failed[0] != c {
		t.Fatalf("failed = %v, want [wide]", failed)
	}
	if c.X != -1 || occ.UsedSites() != 3 {
		t.Errorf("a failed placement moved the cell (x=%g) or changed the grid (%d used sites)", c.X, occ.UsedSites())
	}
}

func TestPlaceNearestFixedBlockerFails(t *testing.T) {
	d, occ, c := fragmented(t, 5, []int{0, 2, 4}, map[int]bool{0: true})
	var failed []*Cell
	PlaceNearest(d, occ, c, 0, 0, true, &failed)
	if len(failed) != 1 || failed[0] != c {
		t.Fatalf("failed = %v, want [wide]", failed)
	}
	for i, blk := range d.Cells[:3] {
		if s := int(blk.X); occ.OwnerAt(0, s) != blk.ID {
			t.Errorf("blocker %d evicted from site %d", i, s)
		}
	}
}

// The evicted cells are re-placed in ID order, not in the order the
// footprint scan meets them: p (ID 0) sits right of q (ID 1), and both want
// the free site 0.
func TestPlaceNearestEvictsInIDOrder(t *testing.T) {
	// Sites: 0 free, 1 q, 2 p, 3 and 4 blocked, 5 free, 6 blocked, 7 free.
	d, occ, c := fragmented(t, 8, []int{2, 1, 3, 4, 6}, nil)
	p, q := d.Cells[0], d.Cells[1]
	var failed []*Cell
	PlaceNearest(d, occ, c, 1, 0, true, &failed)
	if len(failed) != 0 {
		t.Fatalf("failed = %v", failed)
	}
	if c.X != 1 || occ.OwnerAt(0, 1) != c.ID || occ.OwnerAt(0, 2) != c.ID {
		t.Errorf("wide cell at x=%g, want 1 and in the grid", c.X)
	}
	if p.X != 0 || q.X != 5 {
		t.Errorf("evicted cells at p=%g, q=%g, want p=0, q=5 (ID order)", p.X, q.X)
	}
	if occ.OwnerAt(0, 0) != p.ID || occ.OwnerAt(0, 5) != q.ID {
		t.Error("grid does not hold the re-placed cells")
	}
}

func TestPositionHashByValue(t *testing.T) {
	d := railDesign(10)
	c := d.AddCell("c", 2, 10, VSS)
	h := PositionHash(d)
	c.X = math.Copysign(0, -1)
	if PositionHash(d) != h {
		t.Error("−0 and +0 hash differently")
	}
	c.Flipped = true
	if PositionHash(d) == h {
		t.Error("a flip leaves the hash unchanged")
	}
	if len(h) != 16 {
		t.Errorf("hash %q is not 16 hex digits", h)
	}
}
