// Package refine implements a post-legalization detailed-placement pass in
// the spirit of the follow-on work the paper cites (MrDP, Lin et al.
// ICCAD 2016): starting from a legal mixed-cell-height placement, cells are
// locally re-seated and swapped to reduce either total displacement or
// wirelength, while every move preserves full legality (rows, sites, power
// rails, no overlap).
//
// Two local operators run in alternating passes until a fixed point:
//
//   - slide: remove one cell and re-place it at the free position nearest
//     its objective target (its global position, or the optimal region
//     median of its connected nets for the HPWL objective);
//   - swap: exchange two cells of identical footprint when that lowers the
//     objective.
package refine

import (
	"context"
	"fmt"
	"math"
	"sort"

	"mclg/internal/design"
	"mclg/internal/mclgerr"
	"mclg/internal/metrics"
)

// Objective selects what the refiner minimizes.
type Objective int

const (
	// Displacement minimizes Σ(|Δx| + |Δy|) from the global placement.
	Displacement Objective = iota
	// HPWL minimizes total half-perimeter wirelength.
	HPWL
)

// Options configures Refine.
type Options struct {
	Objective Objective
	// MaxPasses bounds the slide/swap rounds; 0 means 5.
	MaxPasses int
}

// swapWindow is the max distance, in site widths, between swap candidates.
const swapWindow = 30

// Result summarizes a refinement run.
type Result struct {
	Slides, Swaps  int
	Passes         int
	Initial, Final float64 // objective values
}

// Refine improves the placement in place. The input must be legal; the
// output is guaranteed legal.
func Refine(d *design.Design, opts Options) (*Result, error) {
	return RefineContext(context.Background(), d, opts)
}

// RefineContext is Refine with cooperative cancellation between passes.
func RefineContext(ctx context.Context, d *design.Design, opts Options) (*Result, error) {
	if !design.IsLegal(d) {
		return nil, fmt.Errorf("refine: input placement is illegal: %v: %w",
			design.CheckLegal(d), mclgerr.ErrInvalidInput)
	}
	if opts.MaxPasses == 0 {
		opts.MaxPasses = 5
	}

	occ := design.NewOccupancy(d)
	occ.BlockFixed(d)
	if err := occ.PlaceMovable(d); err != nil {
		return nil, fmt.Errorf("refine: building occupancy: %w", err)
	}

	r := &refiner{d: d, occ: occ, opts: opts}
	if opts.Objective == HPWL {
		r.buildNetIndex()
	}
	res := &Result{Initial: r.objective()}
	for pass := 0; pass < opts.MaxPasses; pass++ {
		if err := mclgerr.FromContext(ctx); err != nil {
			return nil, err
		}
		res.Passes = pass + 1
		moved, err := r.slidePass()
		if err != nil {
			return nil, err
		}
		swapped, err := r.swapPass()
		if err != nil {
			return nil, err
		}
		res.Slides += moved
		res.Swaps += swapped
		if moved+swapped == 0 {
			break
		}
	}
	res.Final = r.objective()
	return res, nil
}

type refiner struct {
	d        *design.Design
	occ      *design.Occupancy
	opts     Options
	cellNets [][]int // per cell: indices of nets touching it (HPWL objective)
}

func (r *refiner) buildNetIndex() {
	r.cellNets = make([][]int, len(r.d.Cells))
	for ni := range r.d.Nets {
		for _, p := range r.d.Nets[ni].Pins {
			if p.CellID >= 0 {
				r.cellNets[p.CellID] = append(r.cellNets[p.CellID], ni)
			}
		}
	}
}

func (r *refiner) objective() float64 {
	if r.opts.Objective == HPWL {
		return metrics.HPWL(r.d)
	}
	return metrics.MeasureDisplacement(r.d).TotalSites
}

// cellCost evaluates the objective contribution of one cell at a position.
func (r *refiner) cellCost(c *design.Cell, x, y float64) float64 {
	if r.opts.Objective == HPWL {
		return r.netsHPWL(c, x, y)
	}
	return math.Abs(x-c.GX) + math.Abs(y-c.GY)
}

// netsHPWL computes the HPWL of all nets touching c with c virtually at
// (x, y).
func (r *refiner) netsHPWL(c *design.Cell, x, y float64) float64 {
	total := 0.0
	for _, ni := range r.cellNets[c.ID] {
		n := &r.d.Nets[ni]
		if len(n.Pins) < 2 {
			continue
		}
		minX, maxX := math.Inf(1), math.Inf(-1)
		minY, maxY := math.Inf(1), math.Inf(-1)
		for _, p := range n.Pins {
			var px, py float64
			switch {
			case p.CellID < 0:
				px, py = p.DX, p.DY
			case p.CellID == c.ID:
				px, py = x+p.DX, y+pinDY(c, p)
			default:
				oc := r.d.Cells[p.CellID]
				px, py = oc.X+p.DX, oc.Y+pinDY(oc, p)
			}
			minX, maxX = math.Min(minX, px), math.Max(maxX, px)
			minY, maxY = math.Min(minY, py), math.Max(maxY, py)
		}
		total += (maxX - minX) + (maxY - minY)
	}
	return total
}

func pinDY(c *design.Cell, p design.Pin) float64 {
	if c.Flipped {
		return c.H - p.DY
	}
	return p.DY
}

// target returns the position this cell would ideally occupy.
func (r *refiner) target(c *design.Cell) (float64, float64) {
	if r.opts.Objective != HPWL || len(r.cellNets[c.ID]) == 0 {
		return c.GX, c.GY
	}
	// Optimal region: median of the other pins of connected nets.
	var xs, ys []float64
	for _, ni := range r.cellNets[c.ID] {
		for _, p := range r.d.Nets[ni].Pins {
			if p.CellID == c.ID {
				continue
			}
			if p.CellID < 0 {
				xs = append(xs, p.DX)
				ys = append(ys, p.DY)
			} else {
				oc := r.d.Cells[p.CellID]
				xs = append(xs, oc.X+p.DX)
				ys = append(ys, oc.Y+pinDY(oc, p))
			}
		}
	}
	if len(xs) == 0 {
		return c.GX, c.GY
	}
	sort.Float64s(xs)
	sort.Float64s(ys)
	return xs[len(xs)/2] - c.W/2, ys[len(ys)/2] - c.H/2
}

// slidePass re-seats each movable cell at the free position nearest its
// target, keeping the move only when the objective strictly improves.
func (r *refiner) slidePass() (int, error) {
	cells := movableByGain(r.d)
	moved := 0
	for _, c := range cells {
		tx, ty := r.target(c)
		cur := r.cellCost(c, c.X, c.Y)
		r.occ.Remove(c, c.X, c.Y)
		x, y, ok := design.NearestFree(r.d, r.occ, c, tx, ty)
		if ok && r.cellCost(c, x, y) < cur-1e-9 {
			if err := r.occ.Place(c, x, y); err == nil {
				r.d.Move(c, x, y)
				moved++
				continue
			}
		}
		// The spot was just freed; failure means the occupancy grid no
		// longer matches the cell positions.
		if err := r.occ.Place(c, c.X, c.Y); err != nil {
			return moved, fmt.Errorf("refine: lost position of cell %d: %v: %w",
				c.ID, err, mclgerr.ErrUnplacedCells)
		}
	}
	return moved, nil
}

// swapPass exchanges same-footprint cell pairs when beneficial.
func (r *refiner) swapPass() (int, error) {
	d := r.d
	// Bucket cells by (width, span, evenSpan ? bottomRail : -).
	type key struct {
		w    float64
		span int
		rail design.RailType
	}
	buckets := map[key][]*design.Cell{}
	for _, c := range d.Cells {
		if c.Fixed {
			continue
		}
		k := key{w: c.W, span: c.RowSpan}
		if c.EvenSpan() {
			k.rail = c.BottomRail
		}
		buckets[k] = append(buckets[k], c)
	}
	swapped := 0
	for _, cells := range buckets {
		sort.Slice(cells, func(i, j int) bool {
			if cells[i].X != cells[j].X {
				return cells[i].X < cells[j].X
			}
			return cells[i].ID < cells[j].ID
		})
		for i := 0; i < len(cells); i++ {
			for j := i + 1; j < len(cells); j++ {
				a, b := cells[i], cells[j]
				if b.X-a.X > swapWindow*d.SiteW {
					break
				}
				before := r.cellCost(a, a.X, a.Y) + r.cellCost(b, b.X, b.Y)
				after := r.cellCost(a, b.X, b.Y) + r.cellCost(b, a.X, a.Y)
				if after < before-1e-9 {
					ax, ay := a.X, a.Y
					d.Move(a, b.X, b.Y)
					d.Move(b, ax, ay)
					// Footprints are identical; re-register both cells.
					if err := r.refreshOccupancy(a, b); err != nil {
						return swapped, err
					}
					swapped++
				}
			}
		}
	}
	return swapped, nil
}

// refreshOccupancy re-registers two swapped cells. Their footprints are
// identical, so clearing both then placing both is always consistent; a
// failure means the occupancy grid is corrupt and is surfaced as a typed
// error.
func (r *refiner) refreshOccupancy(a, b *design.Cell) error {
	// Clear any sites either owns (positions already swapped in the cells).
	r.occ.Remove(a, b.X, b.Y)
	r.occ.Remove(b, a.X, a.Y)
	r.occ.Remove(a, a.X, a.Y)
	r.occ.Remove(b, b.X, b.Y)
	if err := r.occ.Place(a, a.X, a.Y); err != nil {
		return fmt.Errorf("refine: swap broke occupancy: %v: %w", err, mclgerr.ErrUnplacedCells)
	}
	if err := r.occ.Place(b, b.X, b.Y); err != nil {
		return fmt.Errorf("refine: swap broke occupancy: %v: %w", err, mclgerr.ErrUnplacedCells)
	}
	return nil
}

// movableByGain orders cells by descending displacement so the worst
// offenders move first.
func movableByGain(d *design.Design) []*design.Cell {
	out := make([]*design.Cell, 0, len(d.Cells))
	for _, c := range d.Cells {
		if !c.Fixed {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		di, dj := out[i].DisplacementSq(), out[j].DisplacementSq()
		if di != dj {
			return di > dj
		}
		return out[i].ID < out[j].ID
	})
	return out
}
