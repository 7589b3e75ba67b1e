package core

import (
	"fmt"
	"sort"

	"mclg/internal/design"
	"mclg/internal/mclgerr"
)

// BalanceRows repairs row over-subscription after AssignRows: when the
// total cell width assigned to a row exceeds its capacity, the
// boundary-constrained QP of BuildProblemBounded is infeasible, so cells
// are moved to nearby rows with slack until every row fits. Cells are
// chosen cheapest-first (smallest width), destinations nearest-first and
// rail-compatible; multi-row cells require slack in every spanned row.
//
// The relaxed (paper) flow does not need this — the right boundary is
// relaxed precisely so that nearest-row assignment is always feasible.
func BalanceRows(d *design.Design) error {
	load := make([]float64, len(d.Rows))
	capacity := make([]float64, len(d.Rows))
	for r := range d.Rows {
		capacity[r] = d.Rows[r].Span().Len()
	}
	rowOf := func(c *design.Cell) int { return d.RowAt(c.Y + d.RowHeight/2) }
	byRow := make([][]*design.Cell, len(d.Rows))
	for _, c := range d.Cells {
		if c.Fixed {
			// Fixed cells consume capacity in every row they touch.
			r0 := d.RowAt(c.Y + 1e-9)
			r1 := d.RowAt(c.Y + c.H - 1e-9)
			for r := max(0, r0); r <= min(len(d.Rows)-1, r1); r++ {
				load[r] += c.W
			}
			continue
		}
		r := rowOf(c)
		if r < 0 {
			return fmt.Errorf("core: cell %d not on a row", c.ID)
		}
		for k := 0; k < c.RowSpan; k++ {
			load[r+k] += c.W
			byRow[r+k] = append(byRow[r+k], c)
		}
	}

	slackAt := func(r int) float64 { return capacity[r] - load[r] }
	canHost := func(c *design.Cell, r int) bool {
		if !d.RailCompatible(c, r) {
			return false
		}
		for k := 0; k < c.RowSpan; k++ {
			if slackAt(r+k) < c.W {
				return false
			}
		}
		return true
	}
	move := func(c *design.Cell, from, to int) {
		for k := 0; k < c.RowSpan; k++ {
			load[from+k] -= c.W
			load[to+k] += c.W
			byRow[from+k] = removeCell(byRow[from+k], c)
			byRow[to+k] = append(byRow[to+k], c)
		}
		d.Move(c, c.X, d.RowY(to))
	}

	maxMoves := 4 * len(d.Cells)
	for moves := 0; ; moves++ {
		over := -1
		for r := range d.Rows {
			if load[r] > capacity[r]+1e-9 {
				over = r
				break
			}
		}
		if over < 0 {
			return nil
		}
		if moves >= maxMoves {
			return fmt.Errorf("core: BalanceRows did not converge (row %d overloaded by %.1f): %w",
				over, load[over]-capacity[over], mclgerr.ErrInfeasibleRow)
		}
		// Candidates: cells whose bottom row is `over` or that span it.
		cands := append([]*design.Cell(nil), byRow[over]...)
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].W != cands[j].W {
				return cands[i].W < cands[j].W
			}
			return cands[i].ID < cands[j].ID
		})
		moved := false
		for delta := 1; delta < len(d.Rows) && !moved; delta++ {
			for _, c := range cands {
				from := rowOf(c)
				for _, to := range [2]int{from - delta, from + delta} {
					if to < 0 || to+c.RowSpan > len(d.Rows) || to == from {
						continue
					}
					if canHost(c, to) {
						move(c, from, to)
						moved = true
						break
					}
				}
				if moved {
					break
				}
			}
		}
		if !moved {
			return fmt.Errorf("core: BalanceRows stuck: no destination for any cell of row %d: %w",
				over, mclgerr.ErrInfeasibleRow)
		}
	}
}

func removeCell(s []*design.Cell, c *design.Cell) []*design.Cell {
	for i, x := range s {
		if x == c {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}
