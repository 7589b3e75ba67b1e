package tetris

import (
	"math/rand"
	"testing"

	"mclg/internal/design"
)

// TestAllocateFrontierFallbackMixedWidths constructs an exact-fill instance
// where the nearest-free rebuild fragments (big cells grab middle runs,
// leaving unusable slivers) so the frontier-compaction fallback must finish
// the job.
func TestAllocateFrontierFallbackMixedWidths(t *testing.T) {
	d := mkDesign(1, 20)
	specs := []struct {
		w float64
		x float64
	}{
		{7, 2}, {7, 2}, {6, 0},
	}
	for _, s := range specs {
		c := d.AddCell("c", s.w, 10, design.VSS)
		c.X, c.Y = s.x, 0
		c.GX, c.GY = s.x, 0
	}
	res, err := Allocate(d)
	if err != nil {
		t.Fatal(err)
	}
	if res.Unplaced != 0 {
		t.Fatalf("unplaced = %d on an exactly-fillable row", res.Unplaced)
	}
	if rep := design.CheckLegal(d); !rep.Legal() {
		t.Fatalf("illegal: %v", rep)
	}
	// Exact fill: every site must be used.
	total := 0.0
	for _, c := range d.Cells {
		total += c.W
	}
	if total != 20 {
		t.Fatalf("test setup wrong: total width %g", total)
	}
}

// TestAllocateExactFillRandomizedWidths stresses the full fallback chain on
// random exact-fill rows.
func TestAllocateExactFillRandomizedWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(137))
	for trial := 0; trial < 30; trial++ {
		rows := 1 + rng.Intn(3)
		capacity := 24
		d := mkDesign(rows, capacity)
		for r := 0; r < rows; r++ {
			remaining := capacity
			for remaining > 0 {
				w := 2 + rng.Intn(6)
				if w > remaining {
					w = remaining
				}
				if remaining-w == 1 { // avoid unusable width-1 leftover
					w = remaining
				}
				if w < 1 {
					w = remaining
				}
				c := d.AddCell("c", float64(w), 10, design.VSS)
				// Random (colliding) positions anywhere in the row.
				c.X = float64(rng.Intn(capacity))
				c.Y = d.RowY(r)
				c.GX, c.GY = c.X, c.Y
				remaining -= w
			}
		}
		res, err := Allocate(d)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Unplaced != 0 {
			t.Fatalf("trial %d: %d unplaced on exact fill", trial, res.Unplaced)
		}
		if rep := design.CheckLegal(d); !rep.Legal() {
			t.Fatalf("trial %d: %v", trial, rep)
		}
	}
}

// TestSnapClampRightEdge covers the clamp branch for cells whose real
// position extends beyond the row.
func TestSnapClampRightEdge(t *testing.T) {
	d := mkDesign(1, 20)
	c := d.AddCell("c", 5, 10, design.VSS)
	got := snapClamp(d, c, 18.7) // 18.7 + 5 > 20
	if got != 15 {
		t.Errorf("snapClamp = %g, want 15", got)
	}
	if got := snapClamp(d, c, -3); got != 0 {
		t.Errorf("snapClamp(-3) = %g, want 0", got)
	}
}

// TestAllocateEvictionPath fragments both rows with single-site gaps around
// a wide cell that overlaps row 0's blockers. The shove pass packs the cells
// left of the overlap before the scan, so every cell fits where it lands and
// none reaches the repair, let alone the eviction search
// (TestAllocateEvictsBlockers reaches it); the placement hash pins the
// result.
func TestAllocateEvictionPath(t *testing.T) {
	d := mkDesign(2, 31)
	// Row 0: width-2 blockers at 0,3,6,...,27 (gaps of 1 site) = 10 cells,
	// leaving 10 single-site gaps plus [30,31).
	for i := 0; i < 10; i++ {
		c := d.AddCell("blk", 2, 10, design.VSS)
		c.X, c.Y = float64(3*i), 0
		c.GX, c.GY = c.X, c.Y
	}
	// Row 1: same fragmentation.
	for i := 0; i < 10; i++ {
		c := d.AddCell("blk2", 2, 10, design.VSS)
		c.X, c.Y = float64(3*i), 10
		c.GX, c.GY = c.X, c.Y
	}
	// A width-4 cell with no free run anywhere, overlapping row 0.
	w := d.AddCell("wide", 4, 10, design.VSS)
	w.X, w.Y = 10, 0
	w.GX, w.GY = 10, 0
	res, err := Allocate(d)
	if err != nil {
		t.Fatal(err)
	}
	if res.Unplaced != 0 {
		t.Fatalf("unplaced = %d", res.Unplaced)
	}
	if rep := design.CheckLegal(d); !rep.Legal() {
		t.Fatalf("illegal: %v", rep)
	}
	if h := design.PositionHash(d); h != "f9cd3b6740f63d65" {
		t.Errorf("placement hash %s, want f9cd3b6740f63d65", h)
	}
}

// TestAllocateEvictsBlockers reaches design.PlaceNearest's eviction search
// from Tetris: both rows are fragmented into single-site gaps, and in row 1 a
// width-3 cell stacked on a single-site cell at the left edge, which the
// shove pass cannot separate, is left illegal with no free run of three
// sites anywhere. It evicts the two cells under its footprint, which are
// re-placed in ID order at their nearest free sites.
func TestAllocateEvictsBlockers(t *testing.T) {
	d := mkDesign(2, 12)
	add := func(name string, w, x, y float64) *design.Cell {
		c := d.AddCell(name, w, 10, design.VSS)
		c.X, c.Y = x, y
		c.GX, c.GY = x, y
		return c
	}
	for s := 0; s < 12; s += 2 {
		add("r0", 1, float64(s), 0)
	}
	a := add("a", 1, 0, 10)
	b := add("b", 1, 2, 10)
	for s := 4; s < 12; s += 2 {
		add("r1", 1, float64(s), 10)
	}
	w := add("wide", 3, 0, 10)
	res, err := Allocate(d)
	if err != nil {
		t.Fatal(err)
	}
	if res.Repaired != 1 || res.RepairFailed != 0 || res.Rebuilt {
		t.Fatalf("repaired %d, failed %d, rebuilt %v; want the one wide cell repaired in place",
			res.Repaired, res.RepairFailed, res.Rebuilt)
	}
	if rep := design.CheckLegal(d); !rep.Legal() {
		t.Fatalf("illegal: %v", rep)
	}
	for _, p := range []struct {
		c    *design.Cell
		x, y float64
	}{{w, 0, 10}, {a, 3, 10}, {b, 5, 10}} {
		if p.c.X != p.x || p.c.Y != p.y {
			t.Errorf("%s at (%g, %g), want (%g, %g)", p.c.Name, p.c.X, p.c.Y, p.x, p.y)
		}
	}
}
