package window

import (
	"context"
	"fmt"
	"math"
	"runtime/pprof"
	"slices"
	"strconv"

	"mclg/internal/baselines/chow"
	"mclg/internal/core"
	"mclg/internal/design"
	"mclg/internal/mclgerr"
	"mclg/internal/tetris"
)

// CellPos is one cell's solved position, keyed by the full-design cell ID.
type CellPos struct {
	ID      int     `json:"id"`
	X       float64 `json:"x"`
	Y       float64 `json:"y"`
	Flipped bool    `json:"f,omitempty"`
}

// Result is one window's committed outcome: the positions of its owned
// cells, plus whether the window had to degrade to the snapshot/greedy
// fallback instead of a verified window-level solve.
type Result struct {
	Window   int
	Cells    []CellPos
	Degraded bool
}

// BuildSub materializes band b of plan p as an independent sub-design in
// fresh storage (see SubBuf.build), for a local solve or for shipping to a
// cluster worker. The returned idx maps sub cell index to full-design cell ID
// for owned (movable) cells and is -1 for frozen context cells. The
// sub-design carries no nets; window solves are displacement-driven.
func BuildSub(d *design.Design, p *Plan, b *Band) (*design.Design, []int) {
	return new(SubBuf).build(d, p, b)
}

// SubBuf is reusable storage for the sub-designs Plan.BuildRun builds: the
// sub-design with its cells, cell pointers and rows, the index map, the
// merged band with its owned list, and an owner mask as long as the full
// design's cell list. A sub-design built into a SubBuf is valid until the
// next build into the same buffer.
type SubBuf struct {
	sub   design.Design
	cells []design.Cell
	idx   []int
	band  Band
	owned []bool

	// nameOf and nameIndex key the cached sub-design name.
	nameOf    string
	nameIndex int
}

// build materializes band b as an independent sub-design: the sub rows
// [SubLo, SubHi) at their absolute coordinates, the owned cells movable
// (re-IDed 0..n-1, global positions preserved), and every other cell whose
// snapshot rectangle intersects the band frozen as fixed context. The
// returned idx maps sub cell index to full-design ID for owned cells.
//
// Frozen context always comes from the plan's snapshot (GX, assigned-row Y)
// — never from another window's result — so the sub-design, and therefore
// the window's solution, is identical for every attempt, worker count, and
// resume history.
func (buf *SubBuf) build(d *design.Design, p *Plan, b *Band) (*design.Design, []int) {
	sub := &buf.sub
	if sub.Name == "" || buf.nameOf != d.Name || buf.nameIndex != b.Index {
		// Not fmt.Sprintf, whose per-processor printer pool would make an
		// ECO apply's allocation count depend on scheduling.
		sub.Name = d.Name + ".w" + strconv.Itoa(b.Index)
		buf.nameOf, buf.nameIndex = d.Name, b.Index
	}
	sub.Core = d.Core
	sub.RowHeight = d.RowHeight
	sub.SiteW = d.SiteW
	sub.Nets = nil
	sub.Core.Lo.Y = d.RowY(b.SubLo)
	sub.Core.Hi.Y = d.RowY(b.SubHi)
	sub.Rows = append(sub.Rows[:0], d.Rows[b.SubLo:b.SubHi]...)
	for i := range sub.Rows {
		sub.Rows[i].Index = i
	}

	yLo, yHi := sub.Core.Lo.Y, sub.Core.Hi.Y
	isOwned := slices.Grow(buf.owned[:0], len(d.Cells))[:len(d.Cells)]
	clear(isOwned)
	buf.owned = isOwned
	for _, id := range b.Owned {
		isOwned[id] = true
	}
	// snapshot is a foreign cell's frozen position: fixed cells as placed,
	// foreign movable cells at (GX, assigned-row Y). It is context when it
	// vertically overlaps the band.
	snapshot := func(c *design.Cell) (x, y float64, ok bool) {
		x, y = c.X, c.Y
		if !c.Fixed {
			x, y = c.GX, d.RowY(p.AssignedRow[c.ID])
		}
		return x, y, y < yHi && y+c.H > yLo
	}
	// Count first, so every sub cell lives in one backing array.
	n := 0
	for _, c := range d.Cells {
		if _, _, ok := snapshot(c); ok || isOwned[c.ID] {
			n++
		}
	}
	cells := slices.Grow(buf.cells[:0], n)
	buf.cells = cells
	sub.Cells = slices.Grow(sub.Cells[:0], n)
	idx := slices.Grow(buf.idx[:0], n)
	for _, c := range d.Cells {
		x, y, context := snapshot(c)
		owned := isOwned[c.ID]
		if !owned && !context {
			continue
		}
		cells = append(cells, *c)
		cc := &cells[len(cells)-1]
		cc.ID = len(sub.Cells)
		if owned {
			cc.X, cc.Y = cc.GX, cc.GY
			cc.Flipped = false
			idx = append(idx, c.ID)
		} else {
			cc.X, cc.Y = x, y
			cc.GX, cc.GY = x, y
			cc.Fixed = true
			idx = append(idx, -1)
		}
		sub.Cells = append(sub.Cells, cc)
	}
	buf.idx = idx
	return sub, idx
}

// poisonSub corrupts a sub-design with a NaN global position — the chaos
// harness's numerical fault. It touches only the attempt's private
// sub-design, so a retry rebuilds a clean one.
func poisonSub(sub *design.Design) {
	for _, c := range sub.Cells {
		if !c.Fixed {
			c.GX = math.NaN()
			c.X = c.GX
			return
		}
	}
}

// SolveSub runs one clean solve of window w's sub-design (built by BuildSub,
// here or on a remote worker after decoding it from the wire) through the
// resilient cascade and returns the owned-cell positions. The cascade
// verifies window-level legality before committing, so a returned Result is
// checker-verified within the window.
func SolveSub(ctx context.Context, sub *design.Design, idx []int, w int, opts core.Options) (*Result, error) {
	if _, err := core.NewResilient(opts).LegalizeContext(ctx, sub); err != nil {
		return nil, err
	}
	return &Result{Window: w, Cells: AppendOwned(nil, sub, idx)}, nil
}

// AppendOwned appends to out the positions of a solved sub-design's owned
// cells, those whose idx entry (the full design's cell ID) is not negative.
func AppendOwned(out []CellPos, sub *design.Design, idx []int) []CellPos {
	for i, fullID := range idx {
		if fullID < 0 {
			continue
		}
		c := sub.Cells[i]
		out = append(out, CellPos{ID: fullID, X: c.X, Y: c.Y, Flipped: c.Flipped})
	}
	return out
}

// ApplyCells writes each position in cells, flip included, onto the cell of
// d it names.
func ApplyCells(d *design.Design, cells []CellPos) {
	for _, cp := range cells {
		c := d.Cells[cp.ID]
		c.X, c.Y, c.Flipped = cp.X, cp.Y, cp.Flipped
	}
}

// degradeSub is the terminal per-window fallback: the greedy cell-by-cell
// legalizer on a fresh sub-design, and if even that fails, the plan's
// snapshot positions. Either way the window yields a deterministic Degraded
// result instead of failing the job; the stitch pass repairs what it can and
// the final whole-design legality check still gates the commit.
func degradeSub(ctx context.Context, d *design.Design, p *Plan, b *Band) *Result {
	sub, idx := BuildSub(d, p, b)
	if err := sub.Validate(); err == nil {
		sub.ResetToGlobal()
		if err := chow.LegalizeContext(ctx, sub); err == nil && design.IsLegal(sub) {
			return &Result{Window: b.Index, Degraded: true, Cells: AppendOwned(nil, sub, idx)}
		}
	}
	res := &Result{Window: b.Index, Degraded: true}
	for _, id := range b.Owned {
		c := d.Cells[id]
		res.Cells = append(res.Cells, CellPos{ID: id, X: c.GX, Y: d.RowY(p.AssignedRow[id])})
	}
	return res
}

// stitch applies every window's owned-cell positions to a working clone,
// runs the deterministic Tetris allocator as the boundary-reconciliation
// pass (repairing any cross-band overlap in the context margins), verifies
// whole-design legality, and only then commits the positions to d.
func stitch(ctx context.Context, d *design.Design, results []*Result) (err error) {
	// The mclg_stage label separates stitch time from the per-window solves
	// (labeled mmsim-fused/mmsim-residual by the lcp package) in CPU
	// profiles.
	pprof.Do(ctx, pprof.Labels("mclg_stage", "window-stitch"), func(ctx context.Context) {
		err = stitchLabeled(ctx, d, results)
	})
	return err
}

func stitchLabeled(ctx context.Context, d *design.Design, results []*Result) error {
	work := d.Clone()
	for _, res := range results {
		if res == nil {
			return mclgerr.Invalidf("window: missing result during stitch")
		}
		ApplyCells(work, res.Cells)
	}
	tres, err := tetris.AllocateContext(ctx, work)
	if err != nil {
		return mclgerr.Stage("stitch", err)
	}
	if tres.Unplaced > 0 {
		return &mclgerr.StageError{
			Stage:  "stitch",
			Err:    mclgerr.ErrUnplacedCells,
			Detail: fmt.Sprintf("%d cells left unplaced after boundary reconciliation", tres.Unplaced),
		}
	}
	if !design.IsLegal(work) {
		return &mclgerr.StageError{
			Stage:  "stitch",
			Err:    mclgerr.ErrUnplacedCells,
			Detail: "stitched placement failed the legality checker: " + design.CheckLegal(work).String(),
		}
	}
	design.CopyPlacement(d, work)
	return nil
}
