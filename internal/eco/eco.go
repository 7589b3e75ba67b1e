// Package eco implements streaming engineering-change-order (ECO)
// legalization: a session holds a committed legal placement plus a live
// occupancy grid, accepts small batches of deltas (move / insert / delete /
// resize of a handful of cells), and re-legalizes only the dirty row bands
// those deltas touch instead of re-solving the whole chip.
//
// The session is event-sourced. Every accepted batch is appended to an
// append-only delta journal (in memory, and write-ahead to a durable file
// log when configured), and the committed state is always a pure function
// of (base design, delta log): replaying the log from the base reproduces
// the committed placement bit-identically, at any worker count and across a
// process restart. That holds because every stage is deterministic — the
// dirty-band selection, the run merge, the resilient cascade each run is
// solved with, and the chow local-repair fallback — and because warm-state
// reuse (per-run, via a pool of core.WarmState) only changes iteration counts, never
// placements. The replay property is what audit.ReplayCertificate certifies.
//
// A batch is atomic: it either commits a placement verified against the
// committed one by the session's diff-driven commit check (which accepts
// exactly what design.CheckLegal accepts), or it is rejected with a typed
// mclgerr error and the session state (placement, occupancy, journal) is
// untouched.
package eco

import (
	"math"

	"mclg/internal/core"
	"mclg/internal/design"
	"mclg/internal/mclgerr"
)

// Op identifies one delta kind.
type Op string

const (
	// OpMove retargets an existing movable cell to a new position.
	OpMove Op = "move"
	// OpInsert adds a new movable cell with a target position.
	OpInsert Op = "insert"
	// OpDelete removes an existing movable cell.
	OpDelete Op = "delete"
	// OpResize changes an existing movable cell's dimensions.
	OpResize Op = "resize"
)

// Delta is one edit. Cell addresses the full-design cell ID for move,
// delete, and resize; insert ignores it and appends with the next ID
// (deletes renumber the survivors densely, so IDs in later deltas address
// the post-delete numbering — the same numbering a replay sees).
type Delta struct {
	Op   Op     `json:"op"`
	Cell int    `json:"cell,omitempty"` // move/delete/resize target
	Name string `json:"name,omitempty"` // insert: instance name (optional)

	// X/Y is the target bottom-left for move and insert. Targets may be
	// off-grid — legalization snaps them — but must be finite and keep the
	// cell rectangle inside the core.
	X float64 `json:"x,omitempty"`
	Y float64 `json:"y,omitempty"`

	// W/H are the dimensions for insert and resize. H must be a whole
	// multiple of the row height and fit the core vertically.
	W float64 `json:"w,omitempty"`
	H float64 `json:"h,omitempty"`

	// Rail is the designed bottom rail for insert: "VSS" (default) or "VDD".
	Rail string `json:"rail,omitempty"`
}

// Batch is one accepted delta batch, as journaled. Seq is 1-based; state 0
// is the legalized base design.
type Batch struct {
	Seq    int     `json:"seq"`
	Deltas []Delta `json:"deltas"`
}

// Options configures a session.
type Options struct {
	// Core is the solver configuration for the dirty-run cascades and for
	// the initial cold legalization of a base design that is not already
	// legal. Zero fields take the paper defaults.
	Core core.Options

	// WindowRows / ContextRows parameterize the dirty-band partition
	// (window.Partition). The ECO default window is deliberately small —
	// DefaultWindowRows owned rows — so a handful of deltas dirties a small
	// fraction of the chip; ContextRows defaults to
	// window.DefaultContextRows. MarginRows widens the dirty-row set around
	// every delta's old and new rectangles (default 1), so neighbors that
	// must shift to make room are inside the re-solved region.
	WindowRows  int
	ContextRows int
	MarginRows  int

	// WarmCap bounds the per-run warm-state pool (an LRU of core.WarmState) — one
	// state per dirty-run row range, reused when the run's structure
	// signature still matches. 0 means 16; negative disables warm starts.
	WarmCap int

	// LogPath, when non-empty, makes the session durable: accepted batches
	// are appended write-ahead to a checksummed file log at this path, and
	// Create resumes an existing compatible log by replaying it. LogMeta is
	// an opaque caller payload stored in the log header (a daemon stores the
	// session-create request there so a restart can rebuild the base design).
	LogPath string
	LogMeta []byte
}

// DefaultWindowRows is the ECO dirty-window height.
const DefaultWindowRows = 4

// DefaultMarginRows is the dirty-row margin around each delta.
const DefaultMarginRows = 1

// DefaultWarmCap bounds the per-run warm pool.
const DefaultWarmCap = 16

func (o Options) withDefaults() Options {
	if o.WindowRows == 0 {
		o.WindowRows = DefaultWindowRows
	}
	if o.ContextRows == 0 {
		o.ContextRows = 2
	}
	if o.MarginRows == 0 {
		o.MarginRows = DefaultMarginRows
	}
	if o.WarmCap == 0 {
		o.WarmCap = DefaultWarmCap
	}
	return o
}

// parseRail maps the delta rail field to a RailType.
func parseRail(s string) (design.RailType, error) {
	switch s {
	case "", "VSS", "vss":
		return design.VSS, nil
	case "VDD", "vdd":
		return design.VDD, nil
	}
	return design.VSS, mclgerr.Invalidf("eco: unknown rail %q (want VSS or VDD)", s)
}

func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// inCore reports whether the rectangle (x, y, w, h) lies inside the core,
// with a small tolerance for floating-point targets on the boundary.
func inCore(d *design.Design, x, y, w, h float64) bool {
	const eps = 1e-9
	return x >= d.Core.Lo.X-eps && x+w <= d.Core.Hi.X+eps &&
		y >= d.Core.Lo.Y-eps && y+h <= d.Core.Hi.Y+eps
}

// movableTarget validates that delta i addresses an existing movable cell
// and returns it.
func movableTarget(d *design.Design, i int, dl Delta) (*design.Cell, error) {
	if dl.Cell < 0 || dl.Cell >= len(d.Cells) {
		return nil, mclgerr.Invalidf("eco: delta %d (%s): cell %d out of range [0,%d)",
			i, dl.Op, dl.Cell, len(d.Cells))
	}
	c := d.Cells[dl.Cell]
	if c.Fixed {
		return nil, mclgerr.Invalidf("eco: delta %d (%s): cell %d (%q) is fixed",
			i, dl.Op, dl.Cell, c.Name)
	}
	return c, nil
}

// mutator applies validated deltas to a working design, accumulating dirty
// rows and touched cell IDs. Deltas are validated and applied sequentially
// against the evolving design, so each delta sees the IDs and geometry left
// by its predecessors — the exact view a replay sees.
type mutator struct {
	d       *design.Design
	margin  int
	dirty   map[int]bool // dirty design rows
	touched map[int]bool // current-IDs of cells a delta created or altered

	// orig maps each current ID to the cell's ID in the design the mutator
	// started from (−1 for an inserted cell); deleted lists the original
	// IDs of deleted cells.
	orig    []int
	deleted []int

	// sharedNets marks that d still shares its netlist with the committed
	// design (design.CloneCells); a delete takes a private copy first.
	sharedNets bool
}

// newMutator starts a batch on d, a design.CloneCells copy of the committed
// design (so its netlist is still shared).
func newMutator(d *design.Design, margin int) *mutator {
	orig := make([]int, len(d.Cells))
	for i := range orig {
		orig[i] = i
	}
	return &mutator{d: d, margin: margin, dirty: map[int]bool{}, touched: map[int]bool{},
		orig: orig, sharedNets: true}
}

// markRect dirties every row the rectangle overlaps, plus the margin.
func (m *mutator) markRect(y, h float64) {
	d := m.d
	r0 := int(math.Floor((y-d.Core.Lo.Y)/d.RowHeight)) - m.margin
	r1 := int(math.Ceil((y+h-d.Core.Lo.Y)/d.RowHeight-1e-9)) + m.margin
	if r0 < 0 {
		r0 = 0
	}
	if r1 > len(d.Rows) {
		r1 = len(d.Rows)
	}
	for r := r0; r < r1; r++ {
		m.dirty[r] = true
	}
}

// apply validates and applies one delta. On error the working design may
// have earlier deltas applied but the caller discards it wholesale — batch
// application is all-or-nothing at the session level.
func (m *mutator) apply(i int, dl Delta) error {
	d := m.d
	switch dl.Op {
	case OpMove:
		c, err := movableTarget(d, i, dl)
		if err != nil {
			return err
		}
		if !finite(dl.X, dl.Y) {
			return mclgerr.Invalidf("eco: delta %d (move): non-finite target (%g, %g)", i, dl.X, dl.Y)
		}
		if !inCore(d, dl.X, dl.Y, c.W, c.H) {
			return mclgerr.Invalidf("eco: delta %d (move): cell %d target (%g, %g) puts %gx%g outside the core",
				i, dl.Cell, dl.X, dl.Y, c.W, c.H)
		}
		m.markRect(c.Y, c.H) // vacated position
		m.markRect(dl.Y, c.H)
		c.GX, c.GY = dl.X, dl.Y
		c.X, c.Y = dl.X, dl.Y
		m.touched[c.ID] = true

	case OpInsert:
		if !finite(dl.X, dl.Y, dl.W, dl.H) {
			return mclgerr.Invalidf("eco: delta %d (insert): non-finite geometry", i)
		}
		rail, err := parseRail(dl.Rail)
		if err != nil {
			return err
		}
		if !inCore(d, dl.X, dl.Y, dl.W, dl.H) {
			return mclgerr.Invalidf("eco: delta %d (insert): target (%g, %g) puts %gx%g outside the core",
				i, dl.X, dl.Y, dl.W, dl.H)
		}
		name := dl.Name
		if name == "" {
			name = "eco"
		}
		c, err := d.AddCellChecked(name, dl.W, dl.H, rail)
		if err != nil {
			return mclgerr.Invalidf("eco: delta %d (insert): %v", i, err)
		}
		if c.RowSpan > len(d.Rows) {
			// Roll back the append so the working design stays structurally
			// valid even though the whole batch is being rejected.
			d.Cells = d.Cells[:len(d.Cells)-1]
			return mclgerr.Invalidf("eco: delta %d (insert): height %g spans %d rows but the core has %d",
				i, dl.H, c.RowSpan, len(d.Rows))
		}
		c.GX, c.GY = dl.X, dl.Y
		c.X, c.Y = dl.X, dl.Y
		m.markRect(dl.Y, dl.H)
		m.touched[c.ID] = true
		m.orig = append(m.orig, -1)

	case OpDelete:
		c, err := movableTarget(d, i, dl)
		if err != nil {
			return err
		}
		m.markRect(c.Y, c.H)
		m.removeCell(c.ID)

	case OpResize:
		c, err := movableTarget(d, i, dl)
		if err != nil {
			return err
		}
		if !finite(dl.W, dl.H) || dl.W <= 0 || dl.H <= 0 {
			return mclgerr.Invalidf("eco: delta %d (resize): dimensions %gx%g must be positive and finite",
				i, dl.W, dl.H)
		}
		span := int(math.Round(dl.H / d.RowHeight))
		if span < 1 || math.Abs(float64(span)*d.RowHeight-dl.H) > 1e-9*d.RowHeight {
			return mclgerr.Invalidf("eco: delta %d (resize): height %g is not a multiple of row height %g",
				i, dl.H, d.RowHeight)
		}
		if span > len(d.Rows) {
			return mclgerr.Invalidf("eco: delta %d (resize): height %g spans %d rows but the core has %d",
				i, dl.H, span, len(d.Rows))
		}
		if dl.W > d.Core.Hi.X-d.Core.Lo.X+1e-9 {
			return mclgerr.Invalidf("eco: delta %d (resize): width %g exceeds core width %g",
				i, dl.W, d.Core.Hi.X-d.Core.Lo.X)
		}
		m.markRect(c.Y, c.H) // old footprint
		c.W, c.H, c.RowSpan = dl.W, dl.H, span
		m.markRect(c.Y, c.H) // new footprint
		m.touched[c.ID] = true

	default:
		return mclgerr.Invalidf("eco: delta %d: unknown op %q", i, dl.Op)
	}
	return nil
}

// removeCell deletes cell id, renumbers the survivors densely (Validate
// requires cell.ID == slice index), and rewrites the netlist (a private copy
// of it, if it was shared): the deleted cell's pins are dropped and higher
// CellIDs shift down. Touched IDs shift
// with them. Fixed pins (CellID < 0) are untouched.
func (m *mutator) removeCell(id int) {
	d := m.d
	if m.sharedNets {
		d.OwnNets()
		m.sharedNets = false
	}
	if o := m.orig[id]; o >= 0 {
		m.deleted = append(m.deleted, o)
	}
	m.orig = append(m.orig[:id], m.orig[id+1:]...)
	d.Cells = append(d.Cells[:id], d.Cells[id+1:]...)
	for i := id; i < len(d.Cells); i++ {
		d.Cells[i].ID = i
	}
	for ni := range d.Nets {
		n := &d.Nets[ni]
		pins := n.Pins[:0]
		for _, p := range n.Pins {
			if p.CellID == id {
				continue
			}
			if p.CellID > id {
				p.CellID--
			}
			pins = append(pins, p)
		}
		n.Pins = pins
	}
	touched := make(map[int]bool, len(m.touched))
	for t := range m.touched {
		switch {
		case t == id:
		case t > id:
			touched[t-1] = true
		default:
			touched[t] = true
		}
	}
	m.touched = touched
}
