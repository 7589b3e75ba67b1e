package design

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"mclg/internal/mclgerr"
)

func validDesign() *Design {
	d := NewDesign(Config{Name: "v", NumRows: 4, NumSites: 50, RowHeight: 10, SiteW: 1})
	c := d.AddCell("a", 4, 10, VSS)
	c.GX, c.GY, c.X, c.Y = 3, 0, 3, 0
	return d
}

func TestValidateAcceptsWellFormed(t *testing.T) {
	if err := validDesign().Validate(); err != nil {
		t.Fatalf("valid design rejected: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(d *Design)
	}{
		{"nan-gx", func(d *Design) { d.Cells[0].GX = math.NaN() }},
		{"inf-gy", func(d *Design) { d.Cells[0].GY = math.Inf(1) }},
		{"nan-x", func(d *Design) { d.Cells[0].X = math.NaN() }},
		{"zero-width", func(d *Design) { d.Cells[0].W = 0 }},
		{"negative-width", func(d *Design) { d.Cells[0].W = -3 }},
		{"nan-width", func(d *Design) { d.Cells[0].W = math.NaN() }},
		{"zero-height", func(d *Design) { d.Cells[0].H = 0 }},
		{"height-span-mismatch", func(d *Design) { d.Cells[0].H = 15 }},
		{"zero-span", func(d *Design) { d.Cells[0].RowSpan = 0 }},
		{"span-taller-than-core", func(d *Design) { d.Cells[0].RowSpan = 9; d.Cells[0].H = 90 }},
		{"wider-than-core", func(d *Design) { d.Cells[0].W = 1000 }},
		{"overlapping-rows", func(d *Design) { d.Rows[2].Y = d.Rows[1].Y }},
		{"row-zero-sites", func(d *Design) { d.Rows[1].NumSites = 0 }},
		{"row-bad-sitew", func(d *Design) { d.Rows[1].SiteW = -1 }},
		{"row-bad-height", func(d *Design) { d.Rows[3].Height = 0 }},
		{"design-bad-rowheight", func(d *Design) { d.RowHeight = math.Inf(1) }},
		{"design-bad-sitew", func(d *Design) { d.SiteW = 0 }},
		{"no-rows", func(d *Design) { d.Rows = nil }},
		{"pin-out-of-range", func(d *Design) {
			d.Nets = append(d.Nets, Net{Name: "n", Pins: []Pin{{CellID: 99}}})
		}},
		{"pin-nan-offset", func(d *Design) {
			d.Nets = append(d.Nets, Net{Name: "n", Pins: []Pin{{CellID: 0, DX: math.NaN()}}})
		}},
		{"net-negative-weight", func(d *Design) {
			d.Nets = append(d.Nets, Net{Name: "n", Weight: -2})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := validDesign()
			tc.corrupt(d)
			err := d.Validate()
			if err == nil {
				t.Fatal("corrupted design accepted")
			}
			if !errors.Is(err, mclgerr.ErrInvalidInput) {
				t.Fatalf("error %v does not match ErrInvalidInput", err)
			}
		})
	}
}

func TestValidateNilDesign(t *testing.T) {
	var d *Design
	if err := d.Validate(); !errors.Is(err, mclgerr.ErrInvalidInput) {
		t.Fatalf("nil design: got %v", err)
	}
}

func TestValidateIgnoresFixedOddGeometry(t *testing.T) {
	d := validDesign()
	// A fixed macro with a height that is not a row multiple is fine: it
	// only blocks sites.
	d.Cells = append(d.Cells, &Cell{ID: 1, Name: "macro", W: 7, H: 17, Fixed: true})
	if err := d.Validate(); err != nil {
		t.Fatalf("fixed macro rejected: %v", err)
	}
}

// TestResetChecksConfig resets a design that holds rows, cells and nets:
// a malformed configuration is refused with ErrInvalidInput and leaves it
// as it was, and a good one makes it the design NewDesign builds while its
// rows, cells and nets keep their storage, so re-adding as many cells as
// it held allocates nothing and reuses its Cells.
func TestResetChecksConfig(t *testing.T) {
	d := NewDesign(Config{Name: "old", NumRows: 4, NumSites: 50, RowHeight: 10, SiteW: 1})
	var held []*Cell
	for i := 0; i < 5; i++ {
		held = append(held, d.AddCell("c", 2, 20, VDD))
	}
	d.Nets = append(d.Nets, Net{Name: "n", Weight: 2, Pins: []Pin{{CellID: 1}}})
	before := fmt.Sprintf("%+v %v", *d, d.Cells)
	bad := []Config{
		{NumRows: 0, NumSites: 10, RowHeight: 10, SiteW: 1},
		{NumRows: 2, NumSites: 0, RowHeight: 10, SiteW: 1},
		{NumRows: 2, NumSites: 10, RowHeight: 0, SiteW: 1},
		{NumRows: 2, NumSites: 10, RowHeight: 10, SiteW: -1},
		{NumRows: 2, NumSites: 10, RowHeight: math.NaN(), SiteW: 1},
		{NumRows: 2, NumSites: 10, RowHeight: 10, SiteW: 1, OriginX: math.Inf(-1)},
	}
	for i, cfg := range bad {
		if err := d.Reset(cfg); !errors.Is(err, mclgerr.ErrInvalidInput) {
			t.Errorf("config %d: got %v, want ErrInvalidInput", i, err)
		}
		if after := fmt.Sprintf("%+v %v", *d, d.Cells); after != before {
			t.Fatalf("config %d changed the design:\n%s\nwant\n%s", i, after, before)
		}
	}
	cfg := Config{Name: "new", NumRows: 3, NumSites: 20, RowHeight: 8, SiteW: 2, BottomRail: VDD, OriginX: -4, OriginY: 6}
	rows, cells, nets := &d.Rows[0], cap(d.Cells), cap(d.Nets)
	if err := d.Reset(cfg); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	want := NewDesign(cfg)
	if d.Name != want.Name || d.Core != want.Core || d.RowHeight != want.RowHeight || d.SiteW != want.SiteW ||
		fmt.Sprint(d.Rows) != fmt.Sprint(want.Rows) || len(d.Cells) != 0 || len(d.Nets) != 0 {
		t.Fatalf("reset design %+v, want %+v", *d, *want)
	}
	if &d.Rows[0] != rows || cap(d.Cells) != cells || cap(d.Nets) != nets {
		t.Error("reset dropped the design's row, cell or net storage")
	}
	if allocs := testing.AllocsPerRun(1, func() {
		_ = d.Reset(cfg)
		for range held {
			d.AddCell("c", 2, 8, VSS)
		}
	}); allocs != 0 {
		t.Errorf("resetting and re-adding %d cells took %g allocations, want 0", len(held), allocs)
	}
	for i, c := range d.Cells {
		if c != held[i] || c.ID != i || c.RowSpan != 1 || c.BottomRail != VSS {
			t.Errorf("cell %d = %+v, want a fresh one-row cell in the held Cell", i, *c)
		}
	}
}

func TestAddCellChecked(t *testing.T) {
	d := NewDesign(Config{NumRows: 4, NumSites: 50, RowHeight: 10, SiteW: 1})
	bad := []struct {
		name string
		w, h float64
	}{
		{"zero-w", 0, 10},
		{"neg-w", -1, 10},
		{"nan-w", math.NaN(), 10},
		{"zero-h", 4, 0},
		{"neg-h", 4, -10},
		{"inf-h", 4, math.Inf(1)},
		{"off-multiple", 4, 15},
	}
	for _, tc := range bad {
		if _, err := d.AddCellChecked(tc.name, tc.w, tc.h, VSS); !errors.Is(err, mclgerr.ErrInvalidInput) {
			t.Errorf("%s: got %v, want ErrInvalidInput", tc.name, err)
		}
	}
	if len(d.Cells) != 0 {
		t.Fatalf("rejected cells were appended: %d", len(d.Cells))
	}
	c, err := d.AddCellChecked("ok", 4, 20, VDD)
	if err != nil || c.RowSpan != 2 {
		t.Fatalf("good cell rejected: %v (span %d)", err, c.RowSpan)
	}
}
