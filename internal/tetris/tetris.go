// Package tetris implements the paper's Tetris-like allocation stage: after
// the MMSIM produces real-valued x positions on assigned rows, every cell is
// snapped to the nearest placement site; cells that then overlap another
// cell or cross the right chip boundary are marked illegal and re-placed at
// the nearest free site run, searching rail-compatible rows outward from
// the cell's current position.
//
// Table 1 of the paper shows the illegal-cell ratio after MMSIM averages
// 0.03%, which is why this local repair preserves near-optimality.
package tetris

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"mclg/internal/design"
	"mclg/internal/mclgerr"
)

// Result reports what the allocation did.
type Result struct {
	Illegal      int // cells illegal after MMSIM: overlapping or out of boundary
	Unplaced     int // cells for which no free position was found (should be 0)
	MaxSnapDist  float64
	Rebuilt      bool // the global rebuild fallback ran (quality hit)
	RepairFailed int  // cells the per-cell repair could not place
	Repaired     int  // cells re-placed by the nearest-free repair stage
}

// Allocate legalizes the design in place. Cells must already be assigned to
// valid rows (y on a row boundary). Fixed cells are inserted into the
// occupancy grid first and never moved.
//
// The pass ordering mirrors the paper: snap every cell to its nearest site,
// scan cells row-major/left-to-right accepting collision-free cells, then
// repair the remaining (illegal) cells one by one at their nearest free
// position.
func Allocate(d *design.Design) (*Result, error) {
	return AllocateContext(context.Background(), d)
}

// cancelCheckEvery is how many per-cell repair steps pass between context
// polls in the allocation loops.
const cancelCheckEvery = 256

// AllocateContext is Allocate with cooperative cancellation: the per-cell
// placement and repair loops poll ctx periodically and abort with an
// mclgerr.ErrCanceled-matching error when the context is done. It runs on
// the calling goroutine.
func AllocateContext(ctx context.Context, d *design.Design) (*Result, error) {
	sc := getScratch()
	defer sc.release()
	res := &Result{}
	occ := blockedOccupancy(&sc.occ, d)

	sc.movable = movableCells(sc.movable[:0], d)
	movable := sc.movable
	for _, c := range movable {
		row := d.RowAt(c.Y + d.RowHeight/2)
		if row < 0 || row+c.RowSpan > len(d.Rows) ||
			math.Abs(c.Y-d.RowY(row)) > 1e-6*d.RowHeight {
			return nil, mclgerr.Invalidf("tetris: cell %d not on a valid row (y=%g)", c.ID, c.Y)
		}
	}

	// Count the cells the MMSIM left illegal (Table 1's "#I. Cell"):
	// overlapping another cell or beyond the right boundary.
	sc.fillRows(d)
	res.Illegal = countIllegal(d, sc)

	// Shove pass: enforce the right boundary and within-row ordering by
	// pushing cells left, right-to-left per row, before snapping. This
	// resolves the out-of-right-boundary cells the relaxed MMSIM produces
	// (and small subcell-mismatch overlaps) while preserving the solver's
	// cell ordering — the "Tetris" in Tetris-like allocation.
	shoveLeft(d, sc.rows)

	// Snapshot the solver's (shoved) positions: the rebuild fallbacks
	// restart from here rather than from post-repair positions.
	sc.saved = savePositions(sc.saved[:0], d)

	cands := sc.cands[:0]
	for _, c := range movable {
		x := snapClamp(d, c, c.X)
		if dist := math.Abs(x-c.X) / d.SiteW; dist > res.MaxSnapDist {
			res.MaxSnapDist = dist
		}
		cands = append(cands, cand{c, x, d.RowAt(c.Y + d.RowHeight/2)})
	}
	sc.cands = cands
	// Deterministic scan order: by snapped x, then row, then ID — the
	// left-to-right check the paper describes.
	slices.SortFunc(cands, func(a, b cand) int {
		if c := cmp.Compare(a.x, b.x); c != 0 {
			return c
		}
		if c := cmp.Compare(a.row, b.row); c != 0 {
			return c
		}
		return cmp.Compare(a.c.ID, b.c.ID)
	})

	illegal := sc.illegal[:0]
	for i, cd := range cands {
		if i%cancelCheckEvery == 0 {
			if err := mclgerr.FromContext(ctx); err != nil {
				return nil, err
			}
		}
		y := d.RowY(cd.row)
		if occ.Fits(cd.c, cd.x, y) {
			if err := occ.Place(cd.c, cd.x, y); err != nil {
				return nil, err
			}
			cd.c.X, cd.c.Y = cd.x, y
		} else {
			illegal = append(illegal, cd)
		}
	}
	sc.illegal = illegal
	res.Repaired = len(illegal)

	// Repair hardest-first: tall and wide cells need long contiguous free
	// runs, so they get first pick; small cells slot into the fragments.
	slices.SortFunc(illegal, func(a, b cand) int {
		if c := cmp.Compare(b.c.RowSpan, a.c.RowSpan); c != 0 {
			return c
		}
		if c := cmp.Compare(b.c.W, a.c.W); c != 0 {
			return c
		}
		return cmp.Compare(a.c.ID, b.c.ID)
	})
	var failed []*design.Cell
	for i, cd := range illegal {
		if i%cancelCheckEvery == 0 {
			if err := mclgerr.FromContext(ctx); err != nil {
				return nil, err
			}
		}
		design.PlaceNearest(d, occ, cd.c, cd.x, d.RowY(cd.row), true, &failed)
	}

	res.RepairFailed = len(failed)
	if len(failed) > 0 {
		res.Rebuilt = true
		if err := mclgerr.FromContext(ctx); err != nil {
			return nil, err
		}
		// Heavy fragmentation: rebuild the whole placement from scratch,
		// starting from the solver's own positions (earlier repair moves
		// may have shuffled cells across rows and destroyed per-row
		// feasibility). First greedily, largest cells first, each at the
		// free position nearest to where the solver put it; if even that
		// fragments, fall back to frontier compaction, which packs rows
		// monotonically and succeeds whenever per-row capacity allows.
		restorePositions(d, sc.saved)
		if rebuildNearest(ctx, d, sc) > 0 {
			if err := mclgerr.FromContext(ctx); err != nil {
				return nil, err
			}
			restorePositions(d, sc.saved)
			res.Unplaced = rebuildFrontier(ctx, d, false, sc)
			if res.Unplaced > 0 {
				if err := mclgerr.FromContext(ctx); err != nil {
					return nil, err
				}
				restorePositions(d, sc.saved)
				res.Unplaced = rebuildFrontier(ctx, d, true, sc)
			}
		}
		if err := mclgerr.FromContext(ctx); err != nil {
			return nil, err
		}
	}
	if res.Unplaced > 0 {
		// Every fallback rung failed for at least one cell. The design still
		// holds those cells at whatever position the last rebuild left them
		// — possibly overlapping — so a nil error here would let callers
		// commit a garbage placement. Surface it as a typed error instead.
		return res, &mclgerr.StageError{
			Stage:  "tetris",
			Err:    mclgerr.ErrUnplacedCells,
			Detail: fmt.Sprintf("%d cells have no candidate site after all fallbacks", res.Unplaced),
		}
	}
	return res, nil
}

// AllocateContextP is AllocateContext; workers is ignored. Remove with the
// next benchmark change (ROADMAP item 9).
func AllocateContextP(ctx context.Context, d *design.Design, workers int) (*Result, error) {
	return AllocateContext(ctx, d)
}

// cand is one movable cell queued for the left-to-right legality scan.
type cand struct {
	c   *design.Cell
	x   float64 // snapped x
	row int
}

// scratch is the storage one allocation pass builds, recycled through pool:
// the occupancy grid, the movable list, the saved positions, the scan
// candidates, and the per-row cell lists and flags of the illegal-cell count
// and the shove pass.
type scratch struct {
	occ            design.Occupancy
	movable        []*design.Cell
	saved          []savedPos
	cands, illegal []cand
	rows           [][]*design.Cell
	bad            []bool
}

// slot holds the most recently released scratch in front of pool, so a pass
// whose goroutine moved to another processor still finds it (a sync.Pool
// serves each processor its own last Put). It keeps at most one scratch
// alive across collections.
var (
	slot atomic.Pointer[scratch]
	pool = sync.Pool{New: func() any { return &scratch{} }}
)

func getScratch() *scratch {
	if sc := slot.Swap(nil); sc != nil {
		return sc
	}
	return pool.Get().(*scratch)
}

// release returns sc to the slot, or to the pool when the slot is taken,
// after dropping its pointers into the design, so a recycled scratch never
// keeps a design alive.
func (sc *scratch) release() {
	clear(sc.movable)
	clear(sc.cands)
	clear(sc.illegal)
	for _, r := range sc.rows {
		clear(r)
	}
	if !slot.CompareAndSwap(nil, sc) {
		pool.Put(sc)
	}
}

// fillRows sets sc.rows to each row's movable cells in ID order, a multi-row
// cell listed in every row it crosses.
func (sc *scratch) fillRows(d *design.Design) {
	sc.rows = slices.Grow(sc.rows[:0], len(d.Rows))[:len(d.Rows)]
	for r := range sc.rows {
		sc.rows[r] = sc.rows[r][:0]
	}
	for _, c := range sc.movable {
		r0 := d.RowAt(c.Y + d.RowHeight/2)
		for k := 0; k < c.RowSpan; k++ {
			sc.rows[r0+k] = append(sc.rows[r0+k], c)
		}
	}
}

type savedPos struct {
	x, y    float64
	flipped bool
}

func savePositions(dst []savedPos, d *design.Design) []savedPos {
	for _, c := range d.Cells {
		dst = append(dst, savedPos{c.X, c.Y, c.Flipped})
	}
	return dst
}

func restorePositions(d *design.Design, saved []savedPos) {
	for i, c := range d.Cells {
		if c.Fixed {
			continue
		}
		c.X, c.Y, c.Flipped = saved[i].x, saved[i].y, saved[i].flipped
	}
}

// movableCells appends d's movable cells to dst in ID order.
func movableCells(dst []*design.Cell, d *design.Design) []*design.Cell {
	for _, c := range d.Cells {
		if !c.Fixed {
			dst = append(dst, c)
		}
	}
	return dst
}

// blockedOccupancy resets occ to an empty grid for d with every site a fixed
// cell touches blocked, whether or not the cell is site-aligned. (The
// synthetic suite has no fixed cells, but Bookshelf designs may.)
func blockedOccupancy(occ *design.Occupancy, d *design.Design) *design.Occupancy {
	occ.Reset(d)
	occ.BlockFixed(d)
	return occ
}

// rebuildNearest re-places every movable cell from scratch, biggest first,
// each at the nearest free position. Returns the number of unplaced cells.
// A canceled ctx stops the sweep early, counting the rest as unplaced; the
// caller translates that into an ErrCanceled return.
func rebuildNearest(ctx context.Context, d *design.Design, sc *scratch) int {
	occ := blockedOccupancy(&sc.occ, d)
	sc.movable = movableCells(sc.movable[:0], d)
	movable := sc.movable
	slices.SortFunc(movable, func(a, b *design.Cell) int {
		if c := cmp.Compare(b.RowSpan, a.RowSpan); c != 0 {
			return c
		}
		if c := cmp.Compare(b.W, a.W); c != 0 {
			return c
		}
		if c := cmp.Compare(a.X, b.X); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
	var failed []*design.Cell
	for i, c := range movable {
		if i%cancelCheckEvery == 0 && mclgerr.FromContext(ctx) != nil {
			return len(failed) + len(movable) - i
		}
		design.PlaceNearest(d, occ, c, c.X, c.Y, false, &failed)
	}
	return len(failed)
}

// rebuildFrontier is the classic Tetris sweep: cells in x order, each placed
// at max(row frontier, its target x) on the feasible rail-compatible row
// minimizing displacement cost. Rows fill monotonically left to right, so no
// space fragments. With compact == true the target is ignored entirely
// (pure compaction), which succeeds for any instance whose rows have enough
// aggregate capacity. Returns the number of unplaced cells. A canceled ctx
// stops the sweep early, counting the rest as unplaced.
func rebuildFrontier(ctx context.Context, d *design.Design, compact bool, sc *scratch) int {
	occ := blockedOccupancy(&sc.occ, d)
	sc.movable = movableCells(sc.movable[:0], d)
	movable := sc.movable
	slices.SortFunc(movable, func(a, b *design.Cell) int {
		if c := cmp.Compare(a.X, b.X); c != 0 {
			return c
		}
		if c := cmp.Compare(b.RowSpan, a.RowSpan); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
	frontier := make([]int, len(d.Rows)) // next free site index per row
	unplaced := 0
	for i, c := range movable {
		if i%cancelCheckEvery == 0 && mclgerr.FromContext(ctx) != nil {
			unplaced += len(movable) - i
			break
		}
		widthSites := d.SiteSpan(c)
		maxStart := len(d.Rows) - c.RowSpan
		bestRow, bestSite := -1, 0
		bestCost := math.Inf(1)
		for row := 0; row <= maxStart; row++ {
			if !d.RailCompatible(c, row) {
				continue
			}
			s := 0
			for r := row; r < row+c.RowSpan; r++ {
				if frontier[r] > s {
					s = frontier[r]
				}
			}
			if !compact {
				if t := d.SiteIndex(c.X); t > s {
					s = t
				}
			}
			// Skip past fixed blockages.
			for s+widthSites <= d.Rows[row].NumSites &&
				!occ.FreeRun(row, row+c.RowSpan, s, s+widthSites) {
				s++
			}
			if s+widthSites > d.Rows[row].NumSites {
				continue
			}
			x := d.Rows[row].OriginX + float64(s)*d.SiteW
			y := d.RowY(row)
			dx, dy := x-c.X, y-c.Y
			cost := dx*dx + dy*dy
			if compact {
				// Pure compaction must not steal capacity from other rows
				// for a shorter x move, or exactly-fillable instances
				// break: staying in the cell's own row dominates every
				// x cost.
				cost = dy*dy*1e9 + dx*dx
			}
			if cost < bestCost {
				bestCost, bestRow, bestSite = cost, row, s
			}
		}
		if bestRow < 0 {
			unplaced++
			continue
		}
		x := d.Rows[bestRow].OriginX + float64(bestSite)*d.SiteW
		y := d.RowY(bestRow)
		if err := occ.Place(c, x, y); err != nil {
			unplaced++
			continue
		}
		for r := bestRow; r < bestRow+c.RowSpan; r++ {
			frontier[r] = bestSite + widthSites
		}
		d.Move(c, x, y)
	}
	return unplaced
}

// countIllegal counts movable cells that, once aligned to their nearest
// placement site, overlap another cell or cross the right chip boundary —
// the quantity Table 1 reports after the MMSIM stage ("aligns each cell to
// the nearest placement site, then checks the cells one by one for their
// legality"). Sub-half-site overlaps that snapping absorbs do not count, and
// a multi-row cell flagged by several rows counts once.
func countIllegal(d *design.Design, sc *scratch) int {
	const eps = 1e-9
	snap := func(c *design.Cell) float64 {
		return math.Round((c.X-d.Core.Lo.X)/d.SiteW)*d.SiteW + d.Core.Lo.X
	}
	bad := slices.Grow(sc.bad[:0], len(d.Cells))[:len(d.Cells)]
	clear(bad)
	sc.bad = bad
	for _, c := range sc.movable {
		if x := snap(c); x+c.W > d.Core.Hi.X+eps || x < d.Core.Lo.X-eps {
			bad[c.ID] = true
		}
	}
	for _, cells := range sc.rows {
		slices.SortFunc(cells, func(a, b *design.Cell) int {
			if c := cmp.Compare(snap(a), snap(b)); c != 0 {
				return c
			}
			return cmp.Compare(a.ID, b.ID)
		})
		for i := 1; i < len(cells); i++ {
			if snap(cells[i]) < snap(cells[i-1])+cells[i-1].W-eps {
				// Attribute the violation to the right cell of the pair,
				// matching the left-to-right check the paper describes.
				bad[cells[i].ID] = true
			}
		}
	}
	count := 0
	for _, b := range bad {
		if b {
			count++
		}
	}
	return count
}

// shoveLeft pushes cells left, right-to-left within each row, so no cell
// crosses the right boundary and cells in a row do not overlap (up to the
// movement multi-row cells induce in their other rows; a few fixed-point
// passes make those consistent). Cells only move left, ordering is
// preserved, and cells already separated are untouched. rows lists each
// row's movable cells, every row a multi-row cell crosses included; shoveLeft
// reorders them.
func shoveLeft(d *design.Design, rows [][]*design.Cell) {
	rightToLeft := func(a, b *design.Cell) int {
		if c := cmp.Compare(b.X, a.X); c != 0 {
			return c
		}
		return cmp.Compare(b.ID, a.ID)
	}
	for _, row := range rows {
		slices.SortFunc(row, rightToLeft)
	}
	const eps = 1e-9
	for pass := 0; pass < 6; pass++ {
		changed := false
		for _, row := range rows {
			limit := d.Core.Hi.X
			for _, c := range row {
				if c.X+c.W > limit+eps {
					c.X = limit - c.W
					changed = true
				}
				if c.X < d.Core.Lo.X {
					// Row genuinely overfull; leave at the left edge and let
					// the repair stage handle the remainder.
					c.X = d.Core.Lo.X
				}
				limit = c.X
			}
			// Multi-row cells may have moved; restore the right-to-left
			// invariant lazily by re-sorting when needed on the next pass.
			slices.SortFunc(row, rightToLeft)
		}
		if !changed {
			break
		}
	}
}

// snapClamp snaps x to the site grid and clamps so the cell stays inside
// the row.
func snapClamp(d *design.Design, c *design.Cell, x float64) float64 {
	s := d.SnapX(x)
	maxX := d.Core.Hi.X - c.W
	if s > maxX {
		s = d.SnapX(maxX)
		// SnapX rounds; make sure we end up inside.
		if s > maxX {
			s -= d.SiteW
		}
	}
	if s < d.Core.Lo.X {
		s = d.Core.Lo.X
	}
	return s
}
