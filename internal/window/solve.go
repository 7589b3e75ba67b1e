package window

import (
	"context"
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
// fresh storage (see SubBuf.Build), for a local solve or for shipping to a
// cluster worker. The returned idx maps sub cell index to full-design cell ID
// for owned (movable) cells and is -1 for frozen context cells. The
// sub-design carries no nets; window solves are displacement-driven.
func BuildSub(d *design.Design, p *Plan, b *Band) (*design.Design, []int) {
	return new(SubBuf).Build(d, p, b)
}

// SubBuf is reusable storage for the sub-designs Build builds: the
// sub-design with its cells, cell pointers and rows, the index map, and an
// owner mask as long as the full design's cell list. A sub-design built
// into a SubBuf is valid until the next build into the same buffer.
type SubBuf struct {
	sub   design.Design
	cells []design.Cell
	idx   []int
	owned []bool

	// nameOf and nameIndex key the cached sub-design name.
	nameOf    string
	nameIndex int
}

// Build materializes band b — one of p.Bands, or a run that Plan.DirtyRuns
// merged from several — as an independent sub-design in buf: the sub rows
// [SubLo, SubHi) at their absolute coordinates, the owned cells movable
// (re-IDed 0..n-1, global positions preserved), and every other cell whose
// snapshot rectangle intersects the band frozen as fixed context. The
// returned idx maps sub cell index to full-design ID for owned cells and is
// -1 for context. Both live in buf's storage.
//
// Frozen context always comes from the plan's snapshot (GX, assigned-row Y)
// — never from another window's result — so the sub-design, and therefore
// the window's solution, is identical for every attempt, worker count, and
// resume history.
func (buf *SubBuf) Build(d *design.Design, p *Plan, b *Band) (*design.Design, []int) {
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
	if design.CommitLegal(sub, "degrade", func(w *design.Design) error {
		if err := w.Validate(); err != nil {
			return err
		}
		return chow.LegalizeContext(ctx, w)
	}) == nil {
		return &Result{Window: b.Index, Degraded: true, Cells: AppendOwned(nil, sub, idx)}
	}
	res := &Result{Window: b.Index, Degraded: true}
	for _, id := range b.Owned {
		c := d.Cells[id]
		res.Cells = append(res.Cells, CellPos{ID: id, X: c.GX, Y: d.RowY(p.AssignedRow[id])})
	}
	return res
}

// stitch applies every window's owned-cell positions to a working copy of
// d, runs the deterministic Tetris allocator as the boundary-reconciliation
// pass (repairing any cross-band overlap in the context margins), and
// commits the positions to d only when the whole design passes the legality
// checker (design.CommitLegal).
func stitch(ctx context.Context, d *design.Design, results []*Result) (err error) {
	// The mclg_stage label separates stitch time from the per-window solves
	// (labeled mmsim-fused/mmsim-residual by the lcp package) in CPU
	// profiles.
	pprof.Do(ctx, pprof.Labels("mclg_stage", "window-stitch"), func(ctx context.Context) {
		err = design.CommitLegal(d, "stitch", func(w *design.Design) error {
			for _, res := range results {
				if res == nil {
					return mclgerr.Invalidf("window: missing result during stitch")
				}
				ApplyCells(w, res.Cells)
			}
			if _, err := tetris.AllocateContext(ctx, w); err != nil {
				return mclgerr.Stage("stitch", err)
			}
			return nil
		})
	})
	return err
}
