package design

import (
	"math"
	"slices"

	"mclg/internal/geom"
	"mclg/internal/mclgerr"
)

// Reset makes d the empty design that cfg describes, as NewDesign builds
// it, in d's own storage: its row array, its net list and its cell pointer
// slots, with the Cells they point at, keep their capacity for the rows,
// nets and cells added next (see GrowCells). On a malformed configuration it
// returns a typed error instead of panicking and leaves d unchanged, so
// user-input-reachable paths (Bookshelf loading) must use it. No other
// design may still read d's cells or netlist: the next ones overwrite them.
func (d *Design) Reset(cfg Config) error {
	switch {
	case !isFinite(cfg.RowHeight) || cfg.RowHeight <= 0:
		return mclgerr.Invalidf("design %q: row height %g must be positive and finite", cfg.Name, cfg.RowHeight)
	case !isFinite(cfg.SiteW) || cfg.SiteW <= 0:
		return mclgerr.Invalidf("design %q: site width %g must be positive and finite", cfg.Name, cfg.SiteW)
	case cfg.NumRows <= 0:
		return mclgerr.Invalidf("design %q: NumRows %d must be positive", cfg.Name, cfg.NumRows)
	case cfg.NumSites <= 0:
		return mclgerr.Invalidf("design %q: NumSites %d must be positive", cfg.Name, cfg.NumSites)
	case !isFinite(cfg.OriginX) || !isFinite(cfg.OriginY):
		return mclgerr.Invalidf("design %q: origin (%g, %g) must be finite", cfg.Name, cfg.OriginX, cfg.OriginY)
	}
	d.Name, d.RowHeight, d.SiteW = cfg.Name, cfg.RowHeight, cfg.SiteW
	d.Core = geom.NewRect(cfg.OriginX, cfg.OriginY,
		float64(cfg.NumSites)*cfg.SiteW, float64(cfg.NumRows)*cfg.RowHeight)
	d.Rows = slices.Grow(d.Rows[:0], cfg.NumRows)
	rail := cfg.BottomRail
	for i := 0; i < cfg.NumRows; i++ {
		d.Rows = append(d.Rows, Row{
			Index:    i,
			Y:        cfg.OriginY + float64(i)*cfg.RowHeight,
			Height:   cfg.RowHeight,
			OriginX:  cfg.OriginX,
			SiteW:    cfg.SiteW,
			NumSites: cfg.NumSites,
			Rail:     rail,
		})
		rail = rail.Opposite()
	}
	d.Cells, d.Nets = d.Cells[:0], d.Nets[:0]
	return nil
}

// AddCellChecked is AddCell returning a typed error instead of panicking
// when the cell geometry is malformed: non-finite or non-positive
// dimensions, or a height that is not a whole multiple of the row height.
func (d *Design) AddCellChecked(name string, w, h float64, bottomRail RailType) (*Cell, error) {
	if !isFinite(w) || w <= 0 {
		return nil, mclgerr.Invalidf("cell %q: width %g must be positive and finite", name, w)
	}
	if !isFinite(h) || h <= 0 {
		return nil, mclgerr.Invalidf("cell %q: height %g must be positive and finite", name, h)
	}
	span := int(math.Round(h / d.RowHeight))
	if span < 1 || math.Abs(float64(span)*d.RowHeight-h) > 1e-9*d.RowHeight {
		return nil, mclgerr.Invalidf("cell %q: height %g is not a multiple of row height %g", name, h, d.RowHeight)
	}
	return d.addCell(name, w, h, span, bottomRail), nil
}

// AddTerminalChecked adds a fixed cell (terminal/macro) with validated
// geometry. Terminals only block sites, so unlike AddCellChecked their
// height need not be a whole multiple of the row height — real Bookshelf
// benchmarks contain macros of arbitrary height.
func (d *Design) AddTerminalChecked(name string, w, h float64) (*Cell, error) {
	if !isFinite(w) || w <= 0 {
		return nil, mclgerr.Invalidf("terminal %q: width %g must be positive and finite", name, w)
	}
	if !isFinite(h) || h <= 0 {
		return nil, mclgerr.Invalidf("terminal %q: height %g must be positive and finite", name, h)
	}
	span := int(math.Round(h / d.RowHeight))
	if span < 1 {
		span = 1
	}
	c := d.addCell(name, w, h, span, VSS)
	c.Fixed = true
	return c, nil
}

// Validate checks that the design is structurally sound before any solver
// touches it: finite positive geometry, rows that tile the core without
// overlapping, cells with finite coordinates and feasible dimensions, and
// pins that reference existing cells. It returns an ErrInvalidInput-matching
// error naming the first offending entity, or nil.
//
// Validate deliberately does not check placement legality (overlaps,
// off-site positions) — that is CheckLegal's job on the *output*; Validate
// gates the *input*.
func (d *Design) Validate() error {
	if d == nil {
		return mclgerr.Invalidf("nil design")
	}
	if !isFinite(d.RowHeight) || d.RowHeight <= 0 {
		return mclgerr.Invalidf("design %q: row height %g must be positive and finite", d.Name, d.RowHeight)
	}
	if !isFinite(d.SiteW) || d.SiteW <= 0 {
		return mclgerr.Invalidf("design %q: site width %g must be positive and finite", d.Name, d.SiteW)
	}
	if len(d.Rows) == 0 {
		return mclgerr.Invalidf("design %q: no rows", d.Name)
	}
	if !isFinite(d.Core.Lo.X) || !isFinite(d.Core.Lo.Y) || !isFinite(d.Core.Hi.X) || !isFinite(d.Core.Hi.Y) {
		return mclgerr.Invalidf("design %q: non-finite core %v", d.Name, d.Core)
	}
	for i, r := range d.Rows {
		if !isFinite(r.Y) || !isFinite(r.OriginX) {
			return mclgerr.Invalidf("design %q: row %d has non-finite geometry", d.Name, i)
		}
		if r.Height <= 0 || !isFinite(r.Height) {
			return mclgerr.Invalidf("design %q: row %d height %g must be positive", d.Name, i, r.Height)
		}
		if r.SiteW <= 0 || !isFinite(r.SiteW) {
			return mclgerr.Invalidf("design %q: row %d site width %g must be positive", d.Name, i, r.SiteW)
		}
		if r.NumSites <= 0 {
			return mclgerr.Invalidf("design %q: row %d has %d sites", d.Name, i, r.NumSites)
		}
		// Rows must stack contiguously without overlapping: the whole model
		// (RowAt, RowY, the occupancy grid) indexes rows arithmetically.
		wantY := d.Core.Lo.Y + float64(i)*d.RowHeight
		if math.Abs(r.Y-wantY) > 1e-6*d.RowHeight {
			return mclgerr.Invalidf("design %q: row %d at y=%g overlaps or gaps (want y=%g)", d.Name, i, r.Y, wantY)
		}
	}
	coreW := d.Core.Hi.X - d.Core.Lo.X
	for i, c := range d.Cells {
		if c == nil {
			return mclgerr.Invalidf("design %q: nil cell entry", d.Name)
		}
		// Every index (CellVars, the occupancy grid, net pins) addresses
		// cells by ID; a duplicated or shifted entry corrupts them all.
		if c.ID != i {
			return mclgerr.Invalidf("design %q: cell at index %d has ID %d (duplicated or reordered entry)",
				d.Name, i, c.ID)
		}
		if !isFinite(c.W) || c.W <= 0 {
			return mclgerr.Invalidf("cell %d (%q): width %g must be positive and finite", c.ID, c.Name, c.W)
		}
		if !isFinite(c.H) || c.H <= 0 {
			return mclgerr.Invalidf("cell %d (%q): height %g must be positive and finite", c.ID, c.Name, c.H)
		}
		if !isFinite(c.GX) || !isFinite(c.GY) || !isFinite(c.X) || !isFinite(c.Y) {
			return mclgerr.Invalidf("cell %d (%q): non-finite position (gx=%g gy=%g x=%g y=%g)",
				c.ID, c.Name, c.GX, c.GY, c.X, c.Y)
		}
		if c.Fixed {
			continue // fixed geometry is taken as-is; it only blocks sites
		}
		if c.RowSpan < 1 {
			return mclgerr.Invalidf("cell %d (%q): row span %d must be at least 1", c.ID, c.Name, c.RowSpan)
		}
		if math.Abs(float64(c.RowSpan)*d.RowHeight-c.H) > 1e-6*d.RowHeight {
			return mclgerr.Invalidf("cell %d (%q): height %g is not %d rows of height %g",
				c.ID, c.Name, c.H, c.RowSpan, d.RowHeight)
		}
		if c.RowSpan > len(d.Rows) {
			return mclgerr.Invalidf("cell %d (%q): spans %d rows but the core has %d",
				c.ID, c.Name, c.RowSpan, len(d.Rows))
		}
		if c.W > coreW+1e-9 {
			return mclgerr.Invalidf("cell %d (%q): width %g exceeds core width %g", c.ID, c.Name, c.W, coreW)
		}
	}
	for ni := range d.Nets {
		n := &d.Nets[ni]
		if !isFinite(n.Weight) || n.Weight < 0 {
			return mclgerr.Invalidf("net %d (%q): weight %g must be finite and non-negative", ni, n.Name, n.Weight)
		}
		for pi, p := range n.Pins {
			if p.CellID >= len(d.Cells) {
				return mclgerr.Invalidf("net %d (%q) pin %d: references cell %d of %d",
					ni, n.Name, pi, p.CellID, len(d.Cells))
			}
			if !isFinite(p.DX) || !isFinite(p.DY) {
				return mclgerr.Invalidf("net %d (%q) pin %d: non-finite offset (%g, %g)", ni, n.Name, pi, p.DX, p.DY)
			}
		}
	}
	return nil
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
