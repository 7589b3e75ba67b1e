package chow

import (
	"context"
	"math/rand"
	"testing"

	"mclg/internal/design"
	"mclg/internal/gen"
	"mclg/internal/metrics"
)

func genSmall(t *testing.T, seed int64, density float64) *design.Design {
	t.Helper()
	d, err := gen.Generate(gen.Spec{
		Name: "t", SingleCells: 300, DoubleCells: 30, Density: density, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestLegalizeProducesLegalPlacement(t *testing.T) {
	for _, density := range []float64{0.3, 0.6, 0.85} {
		d := genSmall(t, 21, density)
		if err := LegalizeContext(context.Background(), d); err != nil {
			t.Fatalf("density %g: %v", density, err)
		}
		if rep := design.CheckLegal(d); !rep.Legal() {
			t.Fatalf("density %g: %v", density, rep)
		}
	}
}

func TestLegalizeImprovedNotWorse(t *testing.T) {
	d1 := genSmall(t, 23, 0.7)
	d2 := d1.Clone()
	if err := LegalizeContext(context.Background(), d1); err != nil {
		t.Fatal(err)
	}
	if err := LegalizeImprovedContext(context.Background(), d2, Options{}); err != nil {
		t.Fatal(err)
	}
	if rep := design.CheckLegal(d2); !rep.Legal() {
		t.Fatalf("improved result illegal: %v", rep)
	}
	base := metrics.MeasureDisplacement(d1).TotalSites
	imp := metrics.MeasureDisplacement(d2).TotalSites
	if imp > base+1e-9 {
		t.Errorf("improved displacement %g worse than base %g", imp, base)
	}
}

func TestLegalizeKeepsFixedCells(t *testing.T) {
	d := design.NewDesign(design.Config{NumRows: 4, NumSites: 60, RowHeight: 10, SiteW: 1})
	f := d.AddCell("f", 10, 10, design.VSS)
	f.Fixed = true
	f.X, f.Y, f.GX, f.GY = 20, 0, 20, 0
	c := d.AddCell("c", 6, 10, design.VSS)
	c.GX, c.GY = 22, 0 // wants to sit inside the fixed cell
	c.X, c.Y = c.GX, c.GY
	if err := LegalizeContext(context.Background(), d); err != nil {
		t.Fatal(err)
	}
	if f.X != 20 || f.Y != 0 {
		t.Error("fixed cell moved")
	}
	if c.Bounds().Overlaps(f.Bounds()) {
		t.Error("cell placed over fixed cell")
	}
}

func TestLegalizeEvenCellsOnMatchingRails(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	d := design.NewDesign(design.Config{NumRows: 8, NumSites: 100, RowHeight: 10, SiteW: 1})
	for i := 0; i < 30; i++ {
		rail := design.VSS
		if rng.Intn(2) == 0 {
			rail = design.VDD
		}
		c := d.AddCell("dc", 4, 20, rail)
		c.GX = rng.Float64() * 90
		c.GY = rng.Float64() * 60
		c.X, c.Y = c.GX, c.GY
	}
	if err := LegalizeContext(context.Background(), d); err != nil {
		t.Fatal(err)
	}
	rep := design.CheckLegal(d)
	if n := rep.Count(design.VRailMismatch); n != 0 {
		t.Errorf("%d rail mismatches: %v", n, rep)
	}
}
