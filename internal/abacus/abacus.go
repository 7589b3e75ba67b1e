// Package abacus implements PlaceRow, the row-placement step of the Abacus
// legalizer of Spindler, Schlichtmann and Johannes (ISPD 2008) for
// single-row-height standard cells: the cluster-collapse dynamic program
// that optimally positions an ordered row of cells minimizing
// Σ e_i (x_i − x'_i)².
//
// The paper under reproduction uses PlaceRow two ways: Section 5.3 swaps it
// in for the MMSIM on single-height designs to validate MMSIM optimality
// (both are optimal for fixed ordering, so displacements must agree), and
// the ASP-DAC'17 baseline builds on Abacus-style insertion.
package abacus

import (
	"math"
	"sort"

	"mclg/internal/design"
)

// Entry is one cell in a row for PlaceRow: target position, width, weight.
type Entry struct {
	Target float64 // desired x (global placement)
	Width  float64
	Weight float64 // e_i; typically 1 or the cell area
}

// PlaceRow optimally places the ordered entries in [xmin, xmax), minimizing
// Σ w_i (x_i − t_i)² subject to x_{i+1} ≥ x_i + width_i, x_0 ≥ xmin and,
// if bounded, x_last + width_last ≤ xmax. Set xmax to +Inf to relax the
// right boundary (the relaxation the MMSIM uses).
//
// Returns the optimal x positions. The input order is preserved — Abacus
// never reorders cells within a row.
func PlaceRow(entries []Entry, xmin, xmax float64) []float64 {
	n := len(entries)
	if n == 0 {
		return nil
	}
	// Cluster stack: each cluster is a maximal run of abutting cells.
	type cluster struct {
		e, q, w float64 // weight sum, weighted target sum, total width
		first   int     // index of first entry in cluster
	}
	clusters := make([]cluster, 0, n)

	clamp := func(x, w float64) float64 {
		if x < xmin {
			x = xmin
		}
		if hi := xmax - w; x > hi {
			x = hi
		}
		return x
	}

	for i, en := range entries {
		// New cluster containing just entry i.
		c := cluster{e: en.Weight, q: en.Weight * en.Target, w: en.Width, first: i}
		// Collapse: merge with predecessor while they overlap.
		for len(clusters) > 0 {
			prev := clusters[len(clusters)-1]
			prevX := clamp(prev.q/prev.e, prev.w)
			curX := clamp(c.q/c.e, c.w)
			if prevX+prev.w <= curX {
				break
			}
			// Merge c into prev: the optimal position of the merged cluster
			// is the weighted mean of shifted targets.
			prev.q += c.q - c.e*prev.w
			prev.e += c.e
			prev.w += c.w
			clusters = clusters[:len(clusters)-1]
			c = prev
		}
		clusters = append(clusters, c)
	}

	x := make([]float64, n)
	for k, c := range clusters {
		end := n
		if k+1 < len(clusters) {
			end = clusters[k+1].first
		}
		pos := clamp(c.q/c.e, c.w)
		for i := c.first; i < end; i++ {
			x[i] = pos
			pos += entries[i].Width
		}
	}
	return x
}

// RowCost returns the optimal Σ w_i (x_i − t_i)² for the entries, reusing
// PlaceRow.
func RowCost(entries []Entry, xmin, xmax float64) float64 {
	x := PlaceRow(entries, xmin, xmax)
	s := 0.0
	for i, en := range entries {
		d := x[i] - en.Target
		s += en.Weight * d * d
	}
	return s
}

// ErrMultiRow reports a multi-row cell passed to the single-height Abacus.
type ErrMultiRow struct{ CellID int }

func (e ErrMultiRow) Error() string {
	return "abacus: cell has multi-row height; classic Abacus only handles single-row cells"
}

// ErrNoRoom reports that no row could accommodate a cell.
type ErrNoRoom struct{ CellID int }

func (e ErrNoRoom) Error() string {
	return "abacus: no row can accommodate cell"
}

// PlaceRowsAssigned runs PlaceRow independently on every row of a design
// whose cells are already assigned to rows (c.Y on row boundaries), exactly
// the "replace the MMSIM solver with PlaceRow" experiment of Section 5.3.
// Ordering within each row follows global x (ties by ID), the same order
// the MMSIM problem construction uses.
func PlaceRowsAssigned(d *design.Design, relaxRight bool) error {
	type rowCells struct{ cells []*design.Cell }
	rows := make([]rowCells, len(d.Rows))
	for _, c := range d.Cells {
		if c.Fixed {
			continue
		}
		if c.RowSpan != 1 {
			return ErrMultiRow{CellID: c.ID}
		}
		r := d.RowAt(c.Y + d.RowHeight/2)
		if r < 0 {
			return ErrNoRoom{CellID: c.ID}
		}
		rows[r].cells = append(rows[r].cells, c)
	}
	for r := range rows {
		cells := rows[r].cells
		if len(cells) == 0 {
			continue
		}
		sort.Slice(cells, func(i, j int) bool {
			if cells[i].GX != cells[j].GX {
				return cells[i].GX < cells[j].GX
			}
			return cells[i].ID < cells[j].ID
		})
		entries := make([]Entry, len(cells))
		for i, c := range cells {
			entries[i] = Entry{Target: c.GX, Width: c.W, Weight: 1}
		}
		xmax := d.Rows[r].XMax()
		if relaxRight {
			xmax = math.Inf(1)
		}
		x := PlaceRow(entries, d.Rows[r].OriginX, xmax)
		for i, c := range cells {
			c.X = x[i]
		}
	}
	return nil
}
