package window

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"mclg/internal/design"
	"mclg/internal/exact"
	"mclg/internal/mclgerr"
)

// WindowGap is one refined window's measured optimality outcome.
type WindowGap struct {
	Window int     `json:"window"`
	Cells  int     `json:"cells"`
	Gap    float64 `json:"gap"` // normalized (cost − bound)/cost, 0 = proven optimal
	// Proven reports the branch-and-bound exhausted the window's search
	// space within its node budget, so the gap is exact, not truncated.
	Proven   bool `json:"proven"`
	Improved bool `json:"improved"` // the refinement strictly beat the committed placement
	// MaxDispBefore/After are the window's worst cell displacement in sites
	// (Manhattan), before and after refinement.
	MaxDispBefore float64 `json:"max_disp_before"`
	MaxDispAfter  float64 `json:"max_disp_after"`
}

// ExactStats reports the exact refinement post-pass.
type ExactStats struct {
	Selected int         `json:"selected"`          // windows re-solved exactly
	Improved int         `json:"improved"`          // windows whose placement strictly improved
	Proven   int         `json:"proven"`            // windows proven optimal (Gap == 0 and exhausted)
	Skipped  int         `json:"skipped,omitempty"` // selected windows the solver could not finish
	MaxGap   float64     `json:"max_gap"`
	Gaps     []WindowGap `json:"gaps,omitempty"`
}

// buildSubCommitted materializes band b for post-stitch refinement: unlike
// BuildSub, which freezes foreign cells at the plan snapshot, every cell is
// taken at its committed position — the stitched placement is what the
// refinement must coexist with. Cells in movable stay movable (current
// position as the incumbent seed, GX/GY as the targets); everything else
// overlapping the band is frozen.
func buildSubCommitted(d *design.Design, b *Band, movable map[int]bool) (*design.Design, []int) {
	sub := &design.Design{
		Name:      fmt.Sprintf("%s.x%d", d.Name, b.Index),
		Core:      d.Core,
		RowHeight: d.RowHeight,
		SiteW:     d.SiteW,
	}
	sub.Core.Lo.Y = d.RowY(b.SubLo)
	sub.Core.Hi.Y = d.RowY(b.SubHi)
	sub.Rows = make([]design.Row, 0, b.SubHi-b.SubLo)
	for r := b.SubLo; r < b.SubHi; r++ {
		row := d.Rows[r]
		row.Index = r - b.SubLo
		sub.Rows = append(sub.Rows, row)
	}

	yLo, yHi := sub.Core.Lo.Y, sub.Core.Hi.Y
	var idx []int
	for _, c := range d.Cells {
		if movable[c.ID] {
			cc := *c
			cc.ID = len(sub.Cells)
			cc.Fixed = false
			sub.Cells = append(sub.Cells, &cc)
			idx = append(idx, c.ID)
			continue
		}
		if c.Y >= yHi || c.Y+c.H <= yLo {
			continue
		}
		cc := *c
		cc.ID = len(sub.Cells)
		cc.GX, cc.GY = cc.X, cc.Y
		cc.Fixed = true
		sub.Cells = append(sub.Cells, &cc)
		idx = append(idx, -1)
	}
	return sub, idx
}

// maxDispSites returns the worst Manhattan displacement, in sites, over the
// given cells of d.
func maxDispSites(d *design.Design, ids []int) float64 {
	worst := 0.0
	for _, id := range ids {
		c := d.Cells[id]
		if disp := (math.Abs(c.X-c.GX) + math.Abs(c.Y-c.GY)) / d.SiteW; disp > worst {
			worst = disp
		}
	}
	return worst
}

// refineExact is the post-stitch exact pass: rank windows by their worst
// committed displacement, re-solve the worst K with the branch-and-bound
// legalizer, and commit a window's solution only when it strictly improves
// the window cost and the whole design still passes the legality checker.
//
// The pass is serial in a deterministic window order, the solver is bounded
// by a node budget rather than wall-clock time, and nothing here depends on
// the worker count — the refined placement is bit-identical for any number
// of workers, preserving the repository's determinism invariant.
func refineExact(ctx context.Context, d *design.Design, plan *Plan, opts Options) (*ExactStats, error) {
	st := &ExactStats{}
	type ranked struct {
		band *Band
		disp float64
	}
	var cands []ranked
	for i := range plan.Bands {
		b := &plan.Bands[i]
		if len(b.Owned) == 0 {
			continue
		}
		cands = append(cands, ranked{b, maxDispSites(d, b.Owned)})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].disp != cands[j].disp {
			return cands[i].disp > cands[j].disp
		}
		return cands[i].band.Index < cands[j].band.Index
	})
	if len(cands) > opts.ExactWindows {
		cands = cands[:opts.ExactWindows]
	}

	for _, cand := range cands {
		if err := mclgerr.FromContext(ctx); err != nil {
			return nil, err
		}
		b := cand.band
		// Windows can own more cells than the solver scales to: re-solve the
		// worst-displaced exactMaxCells cells jointly and freeze the rest —
		// the displacement spikes are exactly the cells worth moving.
		sel := append([]int(nil), b.Owned...)
		sort.Slice(sel, func(i, j int) bool {
			a, b := d.Cells[sel[i]], d.Cells[sel[j]]
			if da, db := a.DisplacementSq(), b.DisplacementSq(); da != db {
				return da > db
			}
			return a.ID < b.ID
		})
		if len(sel) > exactMaxCells {
			sel = sel[:exactMaxCells]
		}
		movable := make(map[int]bool, len(sel))
		before := 0.0
		for _, id := range sel {
			movable[id] = true
			before += d.Cells[id].DisplacementSq()
		}
		sub, idx := buildSubCommitted(d, b, movable)
		sol, err := exact.Solve(ctx, sub, exact.Options{
			MaxCells:   exactMaxCells,
			NodeBudget: opts.ExactNodeBudget,
		})
		if err != nil {
			if errors.Is(err, mclgerr.ErrCanceled) {
				return nil, err
			}
			st.Selected++
			st.Skipped++
			continue
		}
		st.Selected++

		wg := WindowGap{
			Window:        b.Index,
			Cells:         len(sel),
			Gap:           sol.Gap,
			Proven:        sol.Proven,
			MaxDispBefore: cand.disp,
			MaxDispAfter:  cand.disp,
		}
		// A candidate improvement is re-checked on the whole design before
		// it commits: the solver verified the window, not the chip.
		if sol.Cost < before-1e-9 && design.CommitLegal(d, "exact", func(w *design.Design) error {
			for i, fullID := range idx {
				if fullID >= 0 {
					c := w.Cells[fullID]
					c.X, c.Y, c.Flipped = sol.X[i], sol.Y[i], sol.Flipped[i]
				}
			}
			return nil
		}) == nil {
			wg.Improved = true
			wg.MaxDispAfter = maxDispSites(d, b.Owned)
			st.Improved++
		}
		if wg.Proven && wg.Gap == 0 {
			st.Proven++
		}
		if wg.Gap > st.MaxGap {
			st.MaxGap = wg.Gap
		}
		st.Gaps = append(st.Gaps, wg)
	}
	return st, nil
}
