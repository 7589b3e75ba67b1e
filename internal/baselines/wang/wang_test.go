package wang

import (
	"context"
	"testing"

	"mclg/internal/design"
	"mclg/internal/gen"
	"mclg/internal/tetris"
)

func TestLegalizePlusSnapIsLegal(t *testing.T) {
	for _, density := range []float64{0.3, 0.6, 0.8} {
		d, err := gen.Generate(gen.Spec{
			Name: "t", SingleCells: 300, DoubleCells: 30, Density: density, Seed: 31,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := LegalizeContext(context.Background(), d); err != nil {
			t.Fatalf("density %g: %v", density, err)
		}
		// Positions are real-valued; snap with the tetris allocator.
		if _, err := tetris.Allocate(d); err != nil {
			t.Fatal(err)
		}
		if rep := design.CheckLegal(d); !rep.Legal() {
			t.Fatalf("density %g: %v", density, rep)
		}
	}
}

func TestMultiRowCellsPlacedFirstAndCompatible(t *testing.T) {
	d, err := gen.Generate(gen.Spec{
		Name: "t", SingleCells: 100, DoubleCells: 40, Density: 0.5, Seed: 37,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := LegalizeContext(context.Background(), d); err != nil {
		t.Fatal(err)
	}
	for _, c := range d.Cells {
		if c.RowSpan < 2 {
			continue
		}
		row := d.RowAt(c.Y + 1)
		if row < 0 {
			t.Fatalf("multi-row cell %d off rows", c.ID)
		}
		if !d.RailCompatible(c, row) {
			t.Errorf("multi-row cell %d on incompatible row %d", c.ID, row)
		}
	}
}

func TestSegmentsRespectObstacles(t *testing.T) {
	d := design.NewDesign(design.Config{NumRows: 2, NumSites: 60, RowHeight: 10, SiteW: 1})
	f := d.AddCell("f", 10, 10, design.VSS)
	f.Fixed = true
	f.X, f.Y, f.GX, f.GY = 25, 0, 25, 0
	for i := 0; i < 6; i++ {
		c := d.AddCell("c", 5, 10, design.VSS)
		c.GX, c.GY = float64(20+i*2), 0
		c.X, c.Y = c.GX, c.GY
	}
	if err := LegalizeContext(context.Background(), d); err != nil {
		t.Fatal(err)
	}
	for _, c := range d.Cells {
		if c.Fixed {
			continue
		}
		if c.Bounds().Overlaps(f.Bounds()) {
			t.Errorf("cell %d overlaps the obstacle (x=%g)", c.ID, c.X)
		}
	}
}

func TestOrderingPreservedWithinSegments(t *testing.T) {
	d, err := gen.Generate(gen.Spec{
		Name: "t", SingleCells: 200, DoubleCells: 10, Density: 0.5, Seed: 41,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := LegalizeContext(context.Background(), d); err != nil {
		t.Fatal(err)
	}
	// Single-height cells in the same row must keep their GX order unless
	// separated by an obstacle; a coarse check: no pair in the same row with
	// strictly inverted order and overlapping GX ranking.
	byRow := map[int][]*design.Cell{}
	for _, c := range d.Cells {
		if c.RowSpan == 1 {
			byRow[d.RowAt(c.Y+1)] = append(byRow[d.RowAt(c.Y+1)], c)
		}
	}
	inversions, pairs := 0, 0
	for _, cells := range byRow {
		for i := range cells {
			for j := i + 1; j < len(cells); j++ {
				a, b := cells[i], cells[j]
				pairs++
				if (a.GX < b.GX && a.X > b.X+1e-9) || (b.GX < a.GX && b.X > a.X+1e-9) {
					inversions++
				}
			}
		}
	}
	if pairs > 0 && float64(inversions)/float64(pairs) > 0.05 {
		t.Errorf("ordering inverted for %d/%d same-row pairs", inversions, pairs)
	}
}
