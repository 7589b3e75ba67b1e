package design

import (
	"math"
	"testing"
)

func smallDesign() *Design {
	return NewDesign(Config{
		Name:      "t",
		NumRows:   8,
		NumSites:  100,
		RowHeight: 10,
		SiteW:     1,
	})
}

func TestNewDesignStructure(t *testing.T) {
	d := smallDesign()
	if len(d.Rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(d.Rows))
	}
	if d.Core.W() != 100 || d.Core.H() != 80 {
		t.Errorf("core = %v, want 100x80", d.Core)
	}
	for i, r := range d.Rows {
		if r.Y != float64(i)*10 {
			t.Errorf("row %d y = %g, want %g", i, r.Y, float64(i)*10)
		}
		wantRail := VSS
		if i%2 == 1 {
			wantRail = VDD
		}
		if r.Rail != wantRail {
			t.Errorf("row %d rail = %v, want %v (alternating)", i, r.Rail, wantRail)
		}
	}
}

func TestRailAlternation(t *testing.T) {
	d := NewDesign(Config{NumRows: 4, NumSites: 10, RowHeight: 1, SiteW: 1, BottomRail: VDD})
	want := []RailType{VDD, VSS, VDD, VSS}
	for i, r := range d.Rows {
		if r.Rail != want[i] {
			t.Errorf("row %d rail = %v, want %v", i, r.Rail, want[i])
		}
	}
}

func TestAddCellSpans(t *testing.T) {
	d := smallDesign()
	s := d.AddCell("s", 4, 10, VSS)
	m := d.AddCell("m", 4, 20, VSS)
	tr := d.AddCell("t", 4, 30, VSS)
	if s.RowSpan != 1 || m.RowSpan != 2 || tr.RowSpan != 3 {
		t.Errorf("spans = %d/%d/%d, want 1/2/3", s.RowSpan, m.RowSpan, tr.RowSpan)
	}
	if !m.EvenSpan() || s.EvenSpan() || tr.EvenSpan() {
		t.Error("EvenSpan misclassified")
	}
	if s.ID != 0 || m.ID != 1 || tr.ID != 2 {
		t.Error("IDs not sequential")
	}
}

func TestAddCellRejectsBadHeight(t *testing.T) {
	d := smallDesign()
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-multiple height")
		}
	}()
	d.AddCell("bad", 4, 15, VSS)
}

func TestRailCompatible(t *testing.T) {
	d := smallDesign() // rows 0..7, rails VSS,VDD,VSS,...
	odd := d.AddCell("odd", 4, 10, VSS)
	evenVSS := d.AddCell("evss", 4, 20, VSS)
	evenVDD := d.AddCell("evdd", 4, 20, VDD)
	for r := 0; r < 8; r++ {
		if !d.RailCompatible(odd, r) {
			t.Errorf("odd cell should fit row %d", r)
		}
	}
	// Even-span VSS-bottom cells only on even rows (VSS rails).
	for r := 0; r < 7; r++ {
		wantVSS := r%2 == 0
		if got := d.RailCompatible(evenVSS, r); got != wantVSS {
			t.Errorf("evenVSS row %d = %v, want %v", r, got, wantVSS)
		}
		if got := d.RailCompatible(evenVDD, r); got != !wantVSS {
			t.Errorf("evenVDD row %d = %v, want %v", r, got, !wantVSS)
		}
	}
	// Vertical fit: double-height cell cannot start on the last row.
	if d.RailCompatible(evenVSS, 7) {
		t.Error("double-height cell must not start on the top row")
	}
	if d.RailCompatible(odd, -1) || d.RailCompatible(odd, 8) {
		t.Error("out-of-range rows must be incompatible")
	}
}

func TestNearestCorrectRow(t *testing.T) {
	d := smallDesign()
	odd := d.AddCell("odd", 4, 10, VSS)
	even := d.AddCell("even", 4, 20, VSS) // needs VSS rail: rows 0,2,4,6

	if got := d.NearestCorrectRow(odd, 33); got != 3 {
		t.Errorf("odd at y=33 -> row %d, want 3", got)
	}
	// y=30 is row 3 (VDD); nearest VSS row is 2 or 4 — prefer searching down first.
	if got := d.NearestCorrectRow(even, 30); got != 2 {
		t.Errorf("even at y=30 -> row %d, want 2", got)
	}
	if got := d.NearestCorrectRow(even, 40); got != 4 {
		t.Errorf("even at y=40 -> row %d, want 4", got)
	}
	// Below the core: clamps to row 0.
	if got := d.NearestCorrectRow(even, -100); got != 0 {
		t.Errorf("even at y=-100 -> row %d, want 0", got)
	}
	// Above the core: clamps so the cell still fits (last start row for span-2 is 6).
	if got := d.NearestCorrectRow(even, 1000); got != 6 {
		t.Errorf("even at y=1000 -> row %d, want 6", got)
	}
	// A cell taller than the core has no row.
	tall := d.AddCell("tall", 4, 90, VSS)
	if got := d.NearestCorrectRow(tall, 0); got != -1 {
		t.Errorf("oversized cell -> row %d, want -1", got)
	}
}

func TestNearestCorrectRowEvenVDD(t *testing.T) {
	d := smallDesign()
	even := d.AddCell("e", 4, 20, VDD) // needs VDD rail: rows 1,3,5
	if got := d.NearestCorrectRow(even, 0); got != 1 {
		t.Errorf("VDD even at y=0 -> row %d, want 1", got)
	}
	if got := d.NearestCorrectRow(even, 70); got != 5 {
		t.Errorf("VDD even at y=70 -> row %d, want 5 (row 6 is VSS, row 7 too high)", got)
	}
}

func TestSnapXAndRowAt(t *testing.T) {
	d := smallDesign()
	if got := d.SnapX(3.4); got != 3 {
		t.Errorf("SnapX(3.4) = %g, want 3", got)
	}
	if got := d.SnapX(3.6); got != 4 {
		t.Errorf("SnapX(3.6) = %g, want 4", got)
	}
	if got := d.SnapX(-5); got != 0 {
		t.Errorf("SnapX(-5) = %g, want 0 (clamped)", got)
	}
	if got := d.RowAt(25); got != 2 {
		t.Errorf("RowAt(25) = %d, want 2", got)
	}
	if got := d.RowAt(-1); got != -1 {
		t.Errorf("RowAt(-1) = %d, want -1", got)
	}
	if got := d.RowY(3); got != 30 {
		t.Errorf("RowY(3) = %g, want 30", got)
	}
}

func TestCellDisplacement(t *testing.T) {
	d := smallDesign()
	c := d.AddCell("c", 4, 10, VSS)
	c.GX, c.GY = 10, 20
	c.X, c.Y = 13, 24
	if got := c.Displacement(); got != 5 {
		t.Errorf("Displacement = %g, want 5", got)
	}
	if got := c.DisplacementSq(); got != 25 {
		t.Errorf("DisplacementSq = %g, want 25", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	d := smallDesign()
	c := d.AddCell("c", 4, 10, VSS)
	c.X = 5
	d.Nets = append(d.Nets, Net{Name: "n", Pins: []Pin{{CellID: 0, DX: 1, DY: 1}}})
	cl := d.Clone()
	cl.Cells[0].X = 99
	cl.Nets[0].Pins[0].DX = 42
	if c.X != 5 {
		t.Error("clone shares cell storage")
	}
	if d.Nets[0].Pins[0].DX != 1 {
		t.Error("clone shares net storage")
	}
	if cl.Name != d.Name || cl.Core != d.Core {
		t.Error("clone lost scalar fields")
	}
}

// A clone's nets share one pin array, so appending to one net must not
// write into the next net's pins.
func TestCloneNetAppendIsolated(t *testing.T) {
	d := smallDesign()
	d.Nets = append(d.Nets,
		Net{Name: "a", Pins: []Pin{{CellID: 0}, {CellID: 1}}},
		Net{Name: "b", Pins: []Pin{{CellID: 2}}},
		Net{Name: "empty"})
	cl := d.Clone()
	cl.Nets[0].Pins = append(cl.Nets[0].Pins, Pin{CellID: 9})
	if got := cl.Nets[1].Pins[0].CellID; got != 2 {
		t.Fatalf("appending to net a rewrote net b's pin: CellID %d, want 2", got)
	}
	if cl.Nets[2].Pins != nil {
		t.Error("clone of a pinless net has a non-nil pin slice")
	}
}

func TestResetToGlobal(t *testing.T) {
	d := smallDesign()
	c := d.AddCell("c", 4, 10, VSS)
	c.GX, c.GY = 7, 20
	c.X, c.Y = 50, 60
	c.Flipped = true
	f := d.AddCell("f", 4, 10, VSS)
	f.Fixed = true
	f.GX, f.X = 1, 2
	d.ResetToGlobal()
	if c.X != 7 || c.Y != 20 || c.Flipped {
		t.Error("movable cell not reset")
	}
	if f.X != 2 {
		t.Error("fixed cell must not be reset")
	}
}

func TestDensity(t *testing.T) {
	d := smallDesign() // core 100x80 = 8000
	d.AddCell("a", 40, 10, VSS)
	d.AddCell("b", 40, 10, VSS)
	if got := d.Density(); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("Density = %g, want 0.1", got)
	}
}
