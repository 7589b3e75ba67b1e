package gp

import (
	"math"
	"testing"

	"mclg/internal/core"
	"mclg/internal/design"
	"mclg/internal/gen"
	"mclg/internal/metrics"
)

func TestPlaceTwoCellsBetweenPads(t *testing.T) {
	d := design.NewDesign(design.Config{NumRows: 4, NumSites: 100, RowHeight: 10, SiteW: 1})
	a := d.AddCell("a", 4, 10, design.VSS)
	b := d.AddCell("b", 4, 10, design.VSS)
	// Chain: pad(0, 20) — a — b — pad(100, 20).
	d.Nets = append(d.Nets,
		design.Net{Name: "l", Pins: []design.Pin{
			{CellID: -1, DX: 0, DY: 20}, {CellID: 0, DX: 2, DY: 5},
		}},
		design.Net{Name: "m", Pins: []design.Pin{
			{CellID: 0, DX: 2, DY: 5}, {CellID: 1, DX: 2, DY: 5},
		}},
		design.Net{Name: "r", Pins: []design.Pin{
			{CellID: 1, DX: 2, DY: 5}, {CellID: -1, DX: 100, DY: 20},
		}},
	)
	res, err := Place(d, Options{Iterations: 1}) // pure quadratic solve
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 1 {
		t.Fatalf("iterations = %d", res.Iterations)
	}
	// Quadratic optimum of a uniform chain: pins at 1/3 and 2/3 between the
	// pads (pin x = center + 0; offsets symmetric).
	pinA := a.GX + 2
	pinB := b.GX + 2
	if math.Abs(pinA-100.0/3) > 1.0 {
		t.Errorf("a pin at %g, want ~%g", pinA, 100.0/3)
	}
	if math.Abs(pinB-200.0/3) > 1.0 {
		t.Errorf("b pin at %g, want ~%g", pinB, 200.0/3)
	}
	if a.GX >= b.GX {
		t.Error("chain order lost")
	}
}

func TestPlaceRequiresNets(t *testing.T) {
	d := design.NewDesign(design.Config{NumRows: 2, NumSites: 20, RowHeight: 10, SiteW: 1})
	d.AddCell("a", 4, 10, design.VSS)
	if _, err := Place(d, Options{}); err == nil {
		t.Error("expected error for netless design")
	}
}

func TestPlaceEmptyDesign(t *testing.T) {
	d := design.NewDesign(design.Config{NumRows: 2, NumSites: 20, RowHeight: 10, SiteW: 1})
	res, err := Place(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 0 {
		t.Errorf("empty design ran %d iterations", res.Iterations)
	}
}

func TestPlaceSpreadsClusteredCells(t *testing.T) {
	// A realistic netlist from the generator; scrub positions so the placer
	// starts from a cold clump at the core center.
	d, err := gen.Generate(gen.Spec{
		Name: "gp", SingleCells: 300, DoubleCells: 30, Density: 0.5, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range d.Cells {
		c.GX, c.GY = d.Core.Center().X, d.Core.Center().Y
		c.X, c.Y = c.GX, c.GY
	}
	res, err := Place(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Overflow > 0.5 {
		t.Errorf("placement barely spread: overflow %.3f", res.Overflow)
	}
	// Positions must be inside the core.
	for _, c := range d.Cells {
		if !d.Core.ContainsRect(c.GlobalBounds()) {
			t.Fatalf("cell %d outside core", c.ID)
		}
	}
}

func TestPlaceOutputIsLegalizable(t *testing.T) {
	// End-to-end substrate test: GP output -> MMSIM legalizer -> legal,
	// with displacement in a sane range.
	d, err := gen.Generate(gen.Spec{
		Name: "gp2", SingleCells: 250, DoubleCells: 25, Density: 0.45, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Place(d, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := core.New(core.Options{}).Legalize(d); err != nil {
		t.Fatal(err)
	}
	if rep := design.CheckLegal(d); !rep.Legal() {
		t.Fatalf("illegal: %v", rep)
	}
	disp := metrics.MeasureDisplacement(d)
	avg := disp.TotalSites / float64(len(d.Cells))
	if avg > 40 {
		t.Errorf("average displacement %.1f sites — GP output too rough", avg)
	}
}

func TestOverflowMetric(t *testing.T) {
	d := design.NewDesign(design.Config{NumRows: 8, NumSites: 128, RowHeight: 10, SiteW: 1})
	// All cells stacked on one spot: heavy overflow.
	for i := 0; i < 40; i++ {
		c := d.AddCell("c", 8, 10, design.VSS)
		c.GX, c.GY = 0, 0
	}
	if ov := Overflow(d); ov < 0.5 {
		t.Errorf("stacked design overflow %.3f, want large", ov)
	}
	// Spread them out: one per distinct bin region.
	for i, c := range d.Cells {
		c.GX = float64((i % 8) * 16)
		c.GY = float64((i / 8) * 20)
	}
	if ov := Overflow(d); ov > 0.2 {
		t.Errorf("spread design overflow %.3f, want small", ov)
	}
}
