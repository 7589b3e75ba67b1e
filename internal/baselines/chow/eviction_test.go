package chow

import (
	"testing"

	"mclg/internal/design"
)

// TestLegalizeEvictionPath forces the local-region eviction branch: the
// grid is fragmented into single-site gaps so a wide late-arriving cell has
// no free run and must displace blockers near its target. The placement
// hash pins where the evicted cells land.
func TestLegalizeEvictionPath(t *testing.T) {
	d := design.NewDesign(design.Config{NumRows: 2, NumSites: 31, RowHeight: 10, SiteW: 1})
	// Blockers with GX on the left so they are processed first (x order).
	for r := 0; r < 2; r++ {
		for i := 0; i < 10; i++ {
			c := d.AddCell("blk", 2, 10, design.VSS)
			c.GX, c.GY = float64(3*i), float64(10*r)
			c.X, c.Y = c.GX, c.GY
		}
	}
	// The wide cell arrives last (largest GX ties resolved by ID).
	w := d.AddCell("wide", 4, 10, design.VSS)
	w.GX, w.GY = 27.5, 0
	w.X, w.Y = w.GX, w.GY
	if err := Legalize(d); err != nil {
		t.Fatal(err)
	}
	if rep := design.CheckLegal(d); !rep.Legal() {
		t.Fatalf("illegal: %v", rep)
	}
	if w.X+w.W > d.Core.Hi.X {
		t.Errorf("wide cell out of core: x=%g", w.X)
	}
	if h := design.PositionHash(d); h != "fd4049ff2388e177" {
		t.Errorf("placement hash %s, want fd4049ff2388e177", h)
	}
}

// TestLegalizeTerminalFallback drives the tetris fallback: so much
// fragmentation that even eviction chains fail, leaving cells for the
// global repair.
func TestLegalizeTerminalFallback(t *testing.T) {
	d := design.NewDesign(design.Config{NumRows: 2, NumSites: 24, RowHeight: 10, SiteW: 1})
	// Exact fill with awkward widths: 7+7+6 per row, all targets stacked.
	for r := 0; r < 2; r++ {
		for _, w := range []float64{7, 7, 6, 4} {
			c := d.AddCell("c", w, 10, design.VSS)
			c.GX, c.GY = 3, float64(10*r)
			c.X, c.Y = c.GX, c.GY
		}
	}
	if err := Legalize(d); err != nil {
		t.Fatal(err)
	}
	if rep := design.CheckLegal(d); !rep.Legal() {
		t.Fatalf("illegal: %v", rep)
	}
}

// TestLegalizeImprovedAfterFallback checks refinement still runs after the
// occupancy rebuild.
func TestLegalizeImprovedAfterFallback(t *testing.T) {
	d := design.NewDesign(design.Config{NumRows: 2, NumSites: 24, RowHeight: 10, SiteW: 1})
	for r := 0; r < 2; r++ {
		for _, w := range []float64{7, 7, 6, 4} {
			c := d.AddCell("c", w, 10, design.VSS)
			c.GX, c.GY = 5, float64(10*r)
			c.X, c.Y = c.GX, c.GY
		}
	}
	if err := LegalizeImproved(d, Options{RefinePasses: 2}); err != nil {
		t.Fatal(err)
	}
	if rep := design.CheckLegal(d); !rep.Legal() {
		t.Fatalf("illegal: %v", rep)
	}
}
