package design

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"math"
	"slices"

	"mclg/internal/geom"
)

// Row is a placement row. All rows in a design share the same height and
// site width; rows are stacked contiguously from the bottom of the core.
type Row struct {
	Index    int
	Y        float64  // bottom edge
	Height   float64  // row height
	OriginX  float64  // x of the first site
	SiteW    float64  // placement site width
	NumSites int      // number of sites in the row
	Rail     RailType // rail type along the row's bottom boundary
}

// XMax returns the x coordinate just past the last site.
func (r *Row) XMax() float64 { return r.OriginX + float64(r.NumSites)*r.SiteW }

// Span returns the row's horizontal extent.
func (r *Row) Span() geom.Interval { return geom.Interval{Lo: r.OriginX, Hi: r.XMax()} }

// Design is a complete placement instance.
type Design struct {
	Name  string
	Core  geom.Rect
	Rows  []Row
	Cells []*Cell
	Nets  []Net

	RowHeight float64
	SiteW     float64
}

// Config parameterizes NewDesign.
type Config struct {
	Name      string
	NumRows   int
	NumSites  int
	RowHeight float64
	SiteW     float64
	// BottomRail is the rail type at the bottom boundary of row 0.
	// Rails alternate from there: VSS, VDD, VSS, ... by default.
	BottomRail RailType
	OriginX    float64
	OriginY    float64
}

// NewDesign builds an empty design with the given row/site structure. It
// panics on malformed configs and is intended for programmatic construction;
// paths fed by user input (file loaders, CLI flags) must use
// NewDesignChecked, which returns a typed error instead.
func NewDesign(cfg Config) *Design {
	d, err := NewDesignChecked(cfg)
	if err != nil {
		panic(fmt.Sprintf("design: invalid config %+v: %v", cfg, err))
	}
	return d
}

// newDesign builds the design from an already-validated config.
func newDesign(cfg Config) *Design {
	d := &Design{
		Name:      cfg.Name,
		RowHeight: cfg.RowHeight,
		SiteW:     cfg.SiteW,
		Core: geom.NewRect(cfg.OriginX, cfg.OriginY,
			float64(cfg.NumSites)*cfg.SiteW, float64(cfg.NumRows)*cfg.RowHeight),
	}
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
	return d
}

// AddCell appends a cell, assigning its ID and row span, and returns it.
// The position fields are left to the caller. It panics on malformed
// geometry; user-input-reachable paths must use AddCellChecked instead.
func (d *Design) AddCell(name string, w, h float64, bottomRail RailType) *Cell {
	c, err := d.AddCellChecked(name, w, h, bottomRail)
	if err != nil {
		panic(fmt.Sprintf("design: %v", err))
	}
	return c
}

// addCell appends a cell with an already-validated span.
func (d *Design) addCell(name string, w, h float64, span int, bottomRail RailType) *Cell {
	c := &Cell{
		ID:         len(d.Cells),
		Name:       name,
		W:          w,
		H:          h,
		RowSpan:    span,
		BottomRail: bottomRail,
	}
	d.Cells = append(d.Cells, c)
	return c
}

// NumMovable returns the number of non-fixed cells.
func (d *Design) NumMovable() int {
	n := 0
	for _, c := range d.Cells {
		if !c.Fixed {
			n++
		}
	}
	return n
}

// Density returns total movable+fixed cell area over core area.
func (d *Design) Density() float64 {
	area := 0.0
	for _, c := range d.Cells {
		area += c.Area()
	}
	ca := d.Core.Area()
	if ca == 0 {
		return 0
	}
	return area / ca
}

// RowAt returns the index of the row whose vertical span contains y, or -1.
func (d *Design) RowAt(y float64) int {
	i := int(math.Floor((y - d.Core.Lo.Y) / d.RowHeight))
	if i < 0 || i >= len(d.Rows) {
		return -1
	}
	return i
}

// RowY returns the bottom y coordinate of row index i.
func (d *Design) RowY(i int) float64 { return d.Core.Lo.Y + float64(i)*d.RowHeight }

// SnapX returns x snapped to the nearest site boundary, clamped to the row.
func (d *Design) SnapX(x float64) float64 {
	s := math.Round((x-d.Core.Lo.X)/d.SiteW)*d.SiteW + d.Core.Lo.X
	return geom.Interval{Lo: d.Core.Lo.X, Hi: d.Core.Hi.X}.Clamp(s)
}

// SiteIndex returns the index of the site boundary nearest x (rounded), which
// may be out of range; callers clamp as needed.
func (d *Design) SiteIndex(x float64) int {
	return int(math.Round((x - d.Core.Lo.X) / d.SiteW))
}

// SiteSpan returns the number of sites cell c covers on the occupancy grid.
func (d *Design) SiteSpan(c *Cell) int { return siteSpan(c.W, d.SiteW) }

// siteSpan is a width's site count: rounded up, except that a width within
// 1e-9 sites above a whole count covers that count.
func siteSpan(w, site float64) int { return int(math.Ceil(w/site - 1e-9)) }

// Move sets c's position to (x, y) and applies the §3 flip: an odd-row-span
// cell is flipped exactly when the rail of the row at its bottom edge differs
// from its designed bottom rail. Even-span cells, which a flip cannot help,
// keep their flag, as does a cell whose y lies off the rows.
func (d *Design) Move(c *Cell, x, y float64) {
	c.X, c.Y = x, y
	if row := d.RowAt(y + d.RowHeight/2); !c.EvenSpan() && row >= 0 {
		c.Flipped = d.Rows[row].Rail != c.BottomRail
	}
}

// RailCompatible reports whether cell c may be placed with its bottom edge
// on row rowIdx. Odd-row-span cells fit any row (flipping fixes a rail
// mismatch); even-row-span cells need the row's bottom rail to match the
// cell's designed bottom rail. The cell must also fit vertically.
func (d *Design) RailCompatible(c *Cell, rowIdx int) bool {
	if rowIdx < 0 || rowIdx+c.RowSpan > len(d.Rows) {
		return false
	}
	if !c.EvenSpan() {
		return true
	}
	return d.Rows[rowIdx].Rail == c.BottomRail
}

// NearestCorrectRow returns the index of the row nearest to y (in geometric
// distance, per the paper's "nearest row which matches the power rail from
// its global y-position") at which cell c may legally start, or -1 if no
// row qualifies. Exact distance ties prefer the lower row.
func (d *Design) NearestCorrectRow(c *Cell, y float64) int {
	base := int(math.Round((y - d.Core.Lo.Y) / d.RowHeight))
	maxStart := len(d.Rows) - c.RowSpan
	if maxStart < 0 {
		return -1
	}
	if base < 0 {
		base = 0
	}
	if base > maxStart {
		base = maxStart
	}
	// Search outward from the nearest geometric row; candidates at the same
	// index delta are compared by |y − rowY|.
	for delta := 0; delta <= len(d.Rows); delta++ {
		best := -1
		bestDist := math.Inf(1)
		for _, r := range [2]int{base - delta, base + delta} {
			if r < 0 || r > maxStart || !d.RailCompatible(c, r) {
				continue
			}
			if dist := math.Abs(y - d.RowY(r)); dist < bestDist {
				best, bestDist = r, dist
			}
			if delta == 0 {
				break // base-delta == base+delta
			}
		}
		if best >= 0 {
			// A row one index further out could still be geometrically
			// closer than the winner on the far side; check it before
			// committing.
			for _, r := range [2]int{base - delta - 1, base + delta + 1} {
				if r < 0 || r > maxStart || !d.RailCompatible(c, r) {
					continue
				}
				if dist := math.Abs(y - d.RowY(r)); dist < bestDist {
					best, bestDist = r, dist
				}
			}
			return best
		}
	}
	return -1
}

// Clone returns a deep copy of the design (cells and nets included) so a
// legalizer can be run without mutating the input.
func (d *Design) Clone() *Design {
	out := d.CloneCells()
	out.OwnNetsIn(new(NetStore))
	return out
}

// CloneCells is Clone except that the copy shares d's netlist: for callers
// that change only cells, or that call OwnNetsIn before their first netlist
// change.
func (d *Design) CloneCells() *Design {
	out := &Design{}
	d.CopyCellsTo(out)
	return out
}

// CopyCellsTo makes dst a copy of d that shares d's netlist, as CloneCells
// does, but writes into dst's existing storage: its row array, its cell
// pointer slice, and the Cell each non-nil pointer slot holds, up to the
// slice's capacity. Cells with no slot to reuse are allocated in one array.
// Every non-nil slot of dst.Cells up to capacity must point at a distinct
// Cell that no other design reads; a design keeps that property as long as
// whatever shrinks its cell list clears the slots it vacates.
func (d *Design) CopyCellsTo(dst *Design) {
	dst.Name, dst.Core = d.Name, d.Core
	dst.RowHeight, dst.SiteW = d.RowHeight, d.SiteW
	dst.Rows = append(dst.Rows[:0], d.Rows...)
	dst.Nets = d.Nets
	n := len(d.Cells)
	cells := slices.Grow(dst.Cells[:0], n)[:n]
	missing := 0
	for _, c := range cells {
		if c == nil {
			missing++
		}
	}
	var fresh []Cell
	if missing > 0 {
		fresh = make([]Cell, missing)
	}
	for i, c := range d.Cells {
		if cells[i] == nil {
			cells[i], fresh = &fresh[0], fresh[1:]
		}
		*cells[i] = *c
	}
	dst.Cells = cells
}

// NetStore is reusable storage for a private netlist copy (OwnNetsIn).
type NetStore struct {
	nets []Net
	pins []Pin
}

// OwnNetsIn replaces d's netlist with a deep copy written into s, growing
// s as needed. All pins share one backing array; each net's pin slice is
// capped at its own length, so an append reallocates instead of writing
// into the next net's pins. s must not hold a netlist that d or any other
// design still reads: the copy overwrites it.
func (d *Design) OwnNetsIn(s *NetStore) {
	np := 0
	for _, n := range d.Nets {
		np += len(n.Pins)
	}
	nets := slices.Grow(s.nets[:0], len(d.Nets))[:len(d.Nets)]
	pins := slices.Grow(s.pins[:0], np)
	for i, n := range d.Nets {
		nets[i] = Net{Name: n.Name, Weight: n.Weight}
		if len(n.Pins) > 0 {
			at := len(pins)
			pins = append(pins, n.Pins...)
			nets[i].Pins = pins[at:len(pins):len(pins)]
		}
	}
	s.nets, s.pins = nets, pins
	d.Nets = nets
}

// CopyPlacement copies each cell's position and flip from src into the cell
// of dst with the same index; dst must hold at least src's cells.
func CopyPlacement(dst, src *Design) {
	for i, c := range src.Cells {
		dc := dst.Cells[i]
		dc.X, dc.Y, dc.Flipped = c.X, c.Y, c.Flipped
	}
}

// PositionHash digests the placement into a hex FNV-1a 64 string. Negative
// zero is normalized (x + 0 == +0 for x == −0) so the hash compares
// placements by value, not by the sign of exact zeros — the one bit pattern
// the segmented tridiagonal solve is allowed to differ in. The digest is
// hex-encoded by hand, not by fmt, whose printers come from a per-processor
// pool: a goroutine that resumed on another processor would allocate a new
// printer, so an ECO apply's allocation count would depend on scheduling.
func PositionHash(d *Design) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v float64) {
		bits := math.Float64bits(v + 0)
		for i := 0; i < 8; i++ {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, c := range d.Cells {
		put(c.X)
		put(c.Y)
		if c.Flipped {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	var out [16]byte
	hex.Encode(out[:], binary.BigEndian.AppendUint64(buf[:0], h.Sum64()))
	return string(out[:])
}

// ResetToGlobal restores every movable cell to its global-placement position.
func (d *Design) ResetToGlobal() {
	for _, c := range d.Cells {
		if !c.Fixed {
			c.X, c.Y = c.GX, c.GY
			c.Flipped = false
		}
	}
}
