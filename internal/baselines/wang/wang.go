// Package wang reimplements the ASP-DAC'17 legalization strategy of Wang,
// Wu, Chen, Chang, Kuo, Zhu and Fan ("An effective legalization algorithm
// for mixed-cell-height standard cells") from its published description: an
// Abacus-derived flow that preserves the global-placement cell ordering and
// extends Abacus's row optimization to multi-row cells.
//
// Cells are processed in a single sweep in global-x order, exactly like
// Abacus:
//
//   - single-row cells are inserted into the row segment (between
//     obstacles) that minimizes the incremental PlaceRow cost, which
//     optimally re-shifts the segment's cells while preserving ordering;
//   - multi-row cells are inserted near their target into a feasible
//     window across all spanned rows and become obstacles, splitting the
//     segments they land on and redistributing the cells already there.
//
// Because each decision is made one cell at a time with only a row-local
// view, early commitments in dense regions cascade — the weakness the
// paper's simultaneous MMSIM optimization removes.
package wang

import (
	"context"
	"fmt"
	"math"
	"sort"

	"mclg/internal/abacus"
	"mclg/internal/design"
	"mclg/internal/mclgerr"
)

// rowSearchRange bounds how many rows above/below the nearest row are
// evaluated per cell.
const rowSearchRange = 6

// segment is a maximal obstacle-free interval of a row holding ordered
// single-height cells.
type segment struct {
	lo, hi float64
	cells  []*design.Cell
	used   float64
}

func (s *segment) entries() []abacus.Entry {
	out := make([]abacus.Entry, len(s.cells))
	for i, c := range s.cells {
		out[i] = abacus.Entry{Target: c.GX, Width: c.W, Weight: 1}
	}
	return out
}

func (s *segment) slack() float64 { return (s.hi - s.lo) - s.used }

type state struct {
	d    *design.Design
	segs [][]*segment
}

// park leaves a cell at its global x on the nearest correct row; the
// caller's Tetris pass repairs any resulting overlap.
func (st *state) park(c *design.Cell) {
	row := st.d.NearestCorrectRow(c, c.GY)
	if row < 0 {
		row = 0
	}
	st.d.Move(c, c.GX, st.d.RowY(row))
}

// Legalize runs the baseline, mutating cell positions. Positions are left
// real-valued within segments; callers snap via the tetris allocator.
func Legalize(d *design.Design) error {
	return LegalizeContext(context.Background(), d)
}

// cancelCheckEvery is how many per-cell sweep steps pass between context
// polls.
const cancelCheckEvery = 256

// LegalizeContext is Legalize with cooperative cancellation in the per-cell
// Abacus sweep.
func LegalizeContext(ctx context.Context, d *design.Design) error {
	st := &state{d: d}

	// Row segments start as full rows minus fixed obstacles.
	occ := design.NewOccupancy(d)
	occ.BlockFixed(d)
	st.segs = buildSegments(d, occ)

	cells := make([]*design.Cell, 0, len(d.Cells))
	for _, c := range d.Cells {
		if !c.Fixed {
			cells = append(cells, c)
		}
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].GX != cells[j].GX {
			return cells[i].GX < cells[j].GX
		}
		return cells[i].ID < cells[j].ID
	})

	// Single Abacus-style sweep over all cells.
	var queue []*design.Cell // singles displaced by obstacle splits
	for i, c := range cells {
		if i%cancelCheckEvery == 0 {
			if err := mclgerr.FromContext(ctx); err != nil {
				return err
			}
		}
		if c.RowSpan == 1 {
			if err := st.insertSingle(c); err != nil {
				return err
			}
		} else {
			displaced, err := st.insertMulti(c)
			if err != nil {
				return err
			}
			queue = append(queue, displaced...)
			for len(queue) > 0 {
				sc := queue[0]
				queue = queue[1:]
				if err := st.insertSingle(sc); err != nil {
					return err
				}
			}
		}
	}

	// Final PlaceRow per segment writes the single-height x positions.
	for row := range st.segs {
		for _, sg := range st.segs[row] {
			if len(sg.cells) == 0 {
				continue
			}
			x := abacus.PlaceRow(sg.entries(), sg.lo, sg.hi)
			for i, c := range sg.cells {
				c.X = x[i]
			}
		}
	}
	return nil
}

// insertSingle places a single-height cell into the best segment by
// incremental PlaceRow cost.
func (st *state) insertSingle(c *design.Cell) error {
	d := st.d
	nearest := d.RowAt(clampF(c.GY, d.Core.Lo.Y, d.Core.Hi.Y-d.RowHeight) + d.RowHeight/2)
	bestSeg, bestCost := (*segment)(nil), math.Inf(1)
	var bestRow int
	scan := func(row int, dyBound bool) {
		if row < 0 || row >= len(d.Rows) {
			return
		}
		dy := d.RowY(row) - c.GY
		if dyBound && dy*dy >= bestCost {
			return
		}
		for _, sg := range st.segs[row] {
			if sg.used+c.W > sg.hi-sg.lo {
				continue
			}
			dx := 0.0
			if c.GX < sg.lo {
				dx = sg.lo - c.GX
			} else if c.GX+c.W > sg.hi {
				dx = c.GX + c.W - sg.hi
			}
			if dy*dy+dx*dx >= bestCost {
				continue
			}
			cost := insertionCost(sg, c) + dy*dy
			if cost < bestCost {
				bestCost, bestSeg, bestRow = cost, sg, row
			}
		}
	}
	for delta := 0; delta <= rowSearchRange; delta++ {
		scan(nearest-delta, true)
		if delta > 0 {
			scan(nearest+delta, true)
		}
	}
	if bestSeg == nil {
		for row := 0; row < len(d.Rows); row++ {
			scan(row, false)
		}
	}
	if bestSeg == nil {
		// Total fragmentation: park the cell at its target row and let the
		// caller's Tetris allocation repair it (the published algorithm
		// falls back to local legalization in the same situation).
		st.park(c)
		return nil
	}
	insert(bestSeg, c)
	d.Move(c, c.X, d.RowY(bestRow))
	return nil
}

// insertMulti places a multi-row cell as an obstacle: it picks the
// rail-compatible window nearest its target whose spanned segments all have
// enough slack, commits the cell there, splits the segments, and returns
// any single-height cells that no longer fit and must be re-inserted.
func (st *state) insertMulti(c *design.Cell) ([]*design.Cell, error) {
	d := st.d
	maxStart := len(d.Rows) - c.RowSpan
	if maxStart < 0 {
		return nil, fmt.Errorf("wang: cell %d taller than the core", c.ID)
	}
	nearest := d.RowAt(clampF(c.GY, d.Core.Lo.Y, d.Core.Hi.Y-float64(c.RowSpan)*d.RowHeight) + d.RowHeight/2)
	if nearest > maxStart {
		nearest = maxStart
	}
	bestCost := math.Inf(1)
	bestRow, bestX := -1, 0.0
	try := func(row int) {
		if row < 0 || row > maxStart || !d.RailCompatible(c, row) {
			return
		}
		dy := d.RowY(row) - c.GY
		if dy*dy >= bestCost {
			return
		}
		if x, ok := st.windowInRow(c, row); ok {
			dx := x - c.GX
			if cost := dx*dx + dy*dy; cost < bestCost {
				bestCost, bestRow, bestX = cost, row, x
			}
		}
	}
	for delta := 0; delta <= len(d.Rows); delta++ {
		try(nearest - delta)
		if delta > 0 {
			try(nearest + delta)
		}
		if bestRow >= 0 && float64(delta)*d.RowHeight > math.Sqrt(bestCost) {
			break
		}
	}
	if bestRow < 0 {
		st.park(c)
		return nil, nil
	}
	d.Move(c, bestX, d.RowY(bestRow))
	var displaced []*design.Cell
	for r := bestRow; r < bestRow+c.RowSpan; r++ {
		displaced = append(displaced, st.splitSegments(r, bestX, bestX+c.W)...)
	}
	return displaced, nil
}

// windowInRow finds the x nearest c.GX such that in every spanned row the
// interval [x, x+w) lies inside a segment with at least w of slack.
func (st *state) windowInRow(c *design.Cell, row int) (float64, bool) {
	bestX, bestD := 0.0, math.Inf(1)
	// Candidate positions: clamp of GX into each segment of the start row,
	// checked against the other spanned rows.
	for _, sg := range st.segs[row] {
		if sg.slack() < c.W {
			continue
		}
		x := clampF(c.GX, sg.lo, sg.hi-c.W)
		if x < sg.lo {
			continue // segment shorter than the cell
		}
		ok := true
		for r := row + 1; r < row+c.RowSpan; r++ {
			if !st.windowFits(r, x, x+c.W) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		if dd := math.Abs(x - c.GX); dd < bestD {
			bestD, bestX = dd, x
		}
	}
	return bestX, !math.IsInf(bestD, 1)
}

// windowFits reports whether [lo, hi) lies inside one segment of the row
// with enough slack for the window width.
func (st *state) windowFits(row int, lo, hi float64) bool {
	for _, sg := range st.segs[row] {
		if lo >= sg.lo && hi <= sg.hi {
			return sg.slack() >= hi-lo
		}
	}
	return false
}

// splitSegments carves [lo, hi) out of the segment containing it in the
// given row, redistributing the segment's cells to the two remainders by
// their targets subject to capacity. Cells that fit neither side are
// returned for re-insertion.
func (st *state) splitSegments(row int, lo, hi float64) []*design.Cell {
	segs := st.segs[row]
	for i, sg := range segs {
		if lo < sg.lo || hi > sg.hi {
			continue
		}
		left := &segment{lo: sg.lo, hi: lo}
		right := &segment{lo: hi, hi: sg.hi}
		var overflow []*design.Cell
		// Cells are kept in GX order; fill left while both the natural
		// side says left and capacity allows, then right, overflowing the
		// rest.
		for _, c := range sg.cells {
			natLeft := c.GX+c.W/2 < (lo+hi)/2
			switch {
			case natLeft && left.used+c.W <= left.hi-left.lo:
				insert(left, c)
			case right.used+c.W <= right.hi-right.lo:
				insert(right, c)
			case left.used+c.W <= left.hi-left.lo:
				insert(left, c)
			default:
				overflow = append(overflow, c)
			}
		}
		// Replace sg with the two remainders (dropping empties of zero
		// length keeps the scan cheap).
		repl := make([]*segment, 0, len(segs)+1)
		repl = append(repl, segs[:i]...)
		if left.hi > left.lo {
			repl = append(repl, left)
		}
		if right.hi > right.lo {
			repl = append(repl, right)
		}
		repl = append(repl, segs[i+1:]...)
		st.segs[row] = repl
		return overflow
	}
	return nil
}

// insertionCost computes the optimal segment cost after inserting c in
// GX-order, minus the cost before — the Abacus trial-placement delta.
func insertionCost(sg *segment, c *design.Cell) float64 {
	before := 0.0
	if len(sg.cells) > 0 {
		before = abacus.RowCost(sg.entries(), sg.lo, sg.hi)
	}
	trial := trialEntries(sg, c)
	after := abacus.RowCost(trial, sg.lo, sg.hi)
	return after - before
}

func trialEntries(sg *segment, c *design.Cell) []abacus.Entry {
	out := make([]abacus.Entry, 0, len(sg.cells)+1)
	placed := false
	for _, sc := range sg.cells {
		if !placed && (c.GX < sc.GX || (c.GX == sc.GX && c.ID < sc.ID)) {
			out = append(out, abacus.Entry{Target: c.GX, Width: c.W, Weight: 1})
			placed = true
		}
		out = append(out, abacus.Entry{Target: sc.GX, Width: sc.W, Weight: 1})
	}
	if !placed {
		out = append(out, abacus.Entry{Target: c.GX, Width: c.W, Weight: 1})
	}
	return out
}

func insert(sg *segment, c *design.Cell) {
	pos := len(sg.cells)
	for i, sc := range sg.cells {
		if c.GX < sc.GX || (c.GX == sc.GX && c.ID < sc.ID) {
			pos = i
			break
		}
	}
	sg.cells = append(sg.cells, nil)
	copy(sg.cells[pos+1:], sg.cells[pos:])
	sg.cells[pos] = c
	sg.used += c.W
}

// buildSegments scans each row's occupancy for maximal free intervals.
func buildSegments(d *design.Design, occ *design.Occupancy) [][]*segment {
	segs := make([][]*segment, len(d.Rows))
	for row := range d.Rows {
		r := &d.Rows[row]
		start := -1
		for s := 0; s <= r.NumSites; s++ {
			free := s < r.NumSites && occ.OwnerAt(row, s) < 0
			if free && start < 0 {
				start = s
			}
			if !free && start >= 0 {
				segs[row] = append(segs[row], &segment{
					lo: r.OriginX + float64(start)*r.SiteW,
					hi: r.OriginX + float64(s)*r.SiteW,
				})
				start = -1
			}
		}
	}
	return segs
}

func clampF(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
