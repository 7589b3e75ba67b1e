// Package design models a mixed-cell-height standard-cell placement: the
// chip core, placement rows with alternating VDD/VSS power rails, standard
// cells of one or more row heights, and the netlist connecting them. It also
// provides the site-occupancy grid and the full legality checker that every
// legalizer in this repository is validated against.
package design

import (
	"fmt"

	"mclg/internal/geom"
)

// RailType identifies a power rail.
type RailType int8

const (
	// VSS is the ground rail.
	VSS RailType = iota
	// VDD is the power rail.
	VDD
)

// Opposite returns the other rail type.
func (r RailType) Opposite() RailType {
	if r == VSS {
		return VDD
	}
	return VSS
}

func (r RailType) String() string {
	if r == VSS {
		return "VSS"
	}
	return "VDD"
}

// Cell is a standard cell instance. GX/GY hold the global-placement
// position that legalization tries to honor; X/Y hold the current (possibly
// legalized) position. Both refer to the bottom-left corner.
type Cell struct {
	ID   int
	Name string

	W, H float64 // width and height in database units

	RowSpan int // number of rows the cell occupies (H / row height)

	// BottomRail is the rail type the cell's bottom boundary is designed
	// for. For odd-row-span cells a mismatch is repaired by vertical
	// flipping; for even-row-span cells the bottom boundary must land on a
	// matching rail (Figure 1 of the paper).
	BottomRail RailType

	GX, GY float64 // global placement position
	X, Y   float64 // current position

	Fixed   bool // fixed cells (macros, IO) may not move
	Flipped bool // vertically flipped to match the bottom rail
}

// Bounds returns the cell's current rectangle.
func (c *Cell) Bounds() geom.Rect { return geom.NewRect(c.X, c.Y, c.W, c.H) }

// GlobalBounds returns the cell's global-placement rectangle.
func (c *Cell) GlobalBounds() geom.Rect { return geom.NewRect(c.GX, c.GY, c.W, c.H) }

// Area returns W*H.
func (c *Cell) Area() float64 { return c.W * c.H }

// DisplacementSq returns the squared displacement, the quantity the paper's
// objective (1) sums over all cells.
func (c *Cell) DisplacementSq() float64 {
	return geom.Point{X: c.X, Y: c.Y}.DistSq(geom.Point{X: c.GX, Y: c.GY})
}

// EvenSpan reports whether the cell occupies an even number of rows, which
// triggers the power-rail alignment constraint.
func (c *Cell) EvenSpan() bool { return c.RowSpan%2 == 0 }

func (c *Cell) String() string {
	return fmt.Sprintf("%s#%d[%gx%g span %d @ (%g,%g)]", c.Name, c.ID, c.W, c.H, c.RowSpan, c.X, c.Y)
}

// Pin is a netlist pin: an offset from the owning cell's bottom-left corner,
// or an absolute position when CellID < 0 (a fixed pin such as an IO pad).
type Pin struct {
	CellID int // index into Design.Cells, or -1 for a fixed pin
	DX, DY float64
}

// Net is a collection of electrically connected pins. Weight scales the
// net's contribution to weighted wirelength metrics; 0 is treated as 1.
type Net struct {
	Name   string
	Weight float64
	Pins   []Pin
}
