// Package chow reimplements the DAC'16 legalization strategy of Chow, Pui
// and Young ("Legalization algorithm for multiple-row height standard cell
// design") from its published description: each cell is first tried at the
// nearest site-aligned, power-rail-matched position to its global placement;
// if that position is occupied, a local region around it is searched and the
// cell is placed at the nearest free run. Cells are processed one at a time,
// so the method has a local view — the property the paper under
// reproduction contrasts with its simultaneous MMSIM optimization.
//
// Two variants are provided, matching the two comparison columns of
// Table 2:
//
//   - Legalize (DAC'16): the one-pass greedy.
//   - LegalizeImproved (DAC'16-Imp): the same pass followed by iterative
//     local refinement, modeling the authors' improved post-conference
//     binary.
package chow

import (
	"context"
	"fmt"
	"sort"

	"mclg/internal/design"
	"mclg/internal/mclgerr"
	"mclg/internal/tetris"
)

// Options tunes the baseline.
type Options struct {
	// RefinePasses is the number of refinement sweeps for
	// LegalizeImproved; 0 means 3.
	RefinePasses int
}

// Legalize runs the one-pass greedy legalizer (the "DAC'16" column).
// Cells are processed in global x order; each is placed at the free
// position nearest to its global-placement location.
func Legalize(d *design.Design) error {
	return LegalizeContext(context.Background(), d)
}

// LegalizeContext is Legalize with cooperative cancellation.
func LegalizeContext(ctx context.Context, d *design.Design) error {
	_, err := run(ctx, d, Options{RefinePasses: -1})
	return err
}

// LegalizeImproved runs the greedy pass plus local refinement (the
// "DAC'16-Imp" column).
func LegalizeImproved(d *design.Design, opts Options) error {
	return LegalizeImprovedContext(context.Background(), d, opts)
}

// LegalizeImprovedContext is LegalizeImproved with cooperative cancellation.
func LegalizeImprovedContext(ctx context.Context, d *design.Design, opts Options) error {
	if opts.RefinePasses == 0 {
		opts.RefinePasses = 3
	}
	_, err := run(ctx, d, opts)
	return err
}

// cancelCheckEvery is how many per-cell placement steps pass between
// context polls.
const cancelCheckEvery = 256

func run(ctx context.Context, d *design.Design, opts Options) (*design.Occupancy, error) {
	occ := design.NewOccupancy(d)
	occ.BlockFixed(d)
	cells := movable(d)
	// Process multi-row cells before singles at equal x: they are the hard
	// ones to place, and the published algorithm prioritizes them locally.
	sort.Slice(cells, func(i, j int) bool {
		a, b := cells[i], cells[j]
		if a.GX != b.GX {
			return a.GX < b.GX
		}
		if a.RowSpan != b.RowSpan {
			return a.RowSpan > b.RowSpan
		}
		return a.ID < b.ID
	})
	var failed []*design.Cell
	for i, c := range cells {
		if i%cancelCheckEvery == 0 {
			if err := mclgerr.FromContext(ctx); err != nil {
				return nil, err
			}
		}
		row := d.NearestCorrectRow(c, c.GY)
		if row < 0 {
			return nil, fmt.Errorf("chow: cell %d has no compatible row: %w",
				c.ID, mclgerr.ErrInfeasibleRow)
		}
		// Where fragmentation leaves no free run, PlaceNearest's bounded
		// eviction stands in for the published algorithm's local-region
		// legalization step.
		design.PlaceNearest(d, occ, c, c.GX, c.GY, 3, &failed)
	}
	if len(failed) > 0 {
		// Terminal fallback for heavy fragmentation: park the stuck cells
		// at their nearest correct rows and let the Tetris allocator repair
		// the placement globally (it preserves the already-legal cells).
		for _, c := range failed {
			if row := d.NearestCorrectRow(c, c.GY); row >= 0 {
				c.X, c.Y = c.GX, d.RowY(row)
			}
		}
		if _, err := tetris.AllocateContext(ctx, d); err != nil {
			return nil, fmt.Errorf("chow: fallback allocation: %w", err)
		}
		// The occupancy grid is stale after the global repair; rebuild it
		// for the refinement passes.
		occ = design.NewOccupancy(d)
		occ.BlockFixed(d)
		if err := occ.PlaceMovable(d); err != nil {
			return nil, fmt.Errorf("chow: rebuilding occupancy: %w", err)
		}
	}

	for pass := 0; pass < opts.RefinePasses; pass++ {
		if err := mclgerr.FromContext(ctx); err != nil {
			return nil, err
		}
		moved, err := refinePass(d, occ)
		if err != nil {
			return nil, err
		}
		if moved == 0 {
			break
		}
	}
	return occ, nil
}

// refinePass re-seats every cell at the free position nearest its global
// location, keeping the move only when it strictly reduces squared
// displacement. Returns the number of cells moved.
func refinePass(d *design.Design, occ *design.Occupancy) (int, error) {
	moved := 0
	cells := movable(d)
	// Worst-displaced first: they have the most to gain from the space
	// freed by earlier moves.
	sort.Slice(cells, func(i, j int) bool {
		di := cells[i].DisplacementSq()
		dj := cells[j].DisplacementSq()
		if di != dj {
			return di > dj
		}
		return cells[i].ID < cells[j].ID
	})
	for _, c := range cells {
		occ.Remove(c, c.X, c.Y)
		x, y, ok := design.NearestFree(d, occ, c, c.GX, c.GY)
		cur := c.DisplacementSq()
		nw := (x-c.GX)*(x-c.GX) + (y-c.GY)*(y-c.GY)
		if ok && nw < cur-1e-12 {
			if err := occ.Place(c, x, y); err == nil {
				d.Move(c, x, y)
				moved++
				continue
			}
		}
		// Put it back. The spot was just freed, so failure here means the
		// occupancy grid no longer matches the cell positions — corrupt
		// state we surface as a typed error rather than a panic.
		if err := occ.Place(c, c.X, c.Y); err != nil {
			return moved, fmt.Errorf("chow: lost position of cell %d: %v: %w",
				c.ID, err, mclgerr.ErrUnplacedCells)
		}
	}
	return moved, nil
}

func movable(d *design.Design) []*design.Cell {
	out := make([]*design.Cell, 0, len(d.Cells))
	for _, c := range d.Cells {
		if !c.Fixed {
			out = append(out, c)
		}
	}
	return out
}
