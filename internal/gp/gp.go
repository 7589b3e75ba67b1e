// Package gp implements a small analytic global placer in the SimPL
// tradition: quadratic wirelength minimization (clique net model, solved
// with conjugate gradients) alternating with lookahead legalization that
// provides spreading anchors of growing weight. It exists as the substrate
// that *produces* the inputs the paper's legalizer consumes — a realistic,
// overlapping, locally-ordered global placement driven by an actual
// netlist — complementing the statistical generator in internal/gen.
//
// The placer is deliberately minimal (no density smoothing, no
// timing/congestion), but it exhibits the properties the legalization
// paper's premise relies on: cells end up near their final regions with
// meaningful relative ordering and moderate overlap.
package gp

import (
	"fmt"
	"math"

	"mclg/internal/design"
	"mclg/internal/sparse"
	"mclg/internal/tetris"
)

// Options configures the placer.
type Options struct {
	// Iterations is the number of solve/spread rounds; 0 means 16.
	Iterations int
}

const (
	// anchorBase is the pseudo-net weight of the first spreading round
	// relative to the average net weight.
	anchorBase = 0.02
	// anchorGrowth multiplies the anchor weight every round.
	anchorGrowth = 2
	// cgTol is the relative CG residual.
	cgTol = 1e-7
)

func (o Options) withDefaults() Options {
	if o.Iterations == 0 {
		o.Iterations = 16
	}
	return o
}

// Result reports the run.
type Result struct {
	Iterations int
	CGIters    int     // total CG iterations across all solves and both axes
	Overflow   float64 // final bin-density overflow fraction (0 = fully spread)
}

// Place computes a global placement for the design's movable cells from its
// netlist, writing GX/GY (and X/Y). Fixed cells and fixed pins act as
// anchors. Returns an error if the design has no nets to drive the
// placement.
func Place(d *design.Design, opts Options) (*Result, error) {
	o := opts.withDefaults()
	idx, movable := buildIndex(d)
	n := len(movable)
	if n == 0 {
		return &Result{}, nil
	}
	sys, err := buildSystem(d, idx, movable)
	if err != nil {
		return nil, err
	}

	res := &Result{}
	// Initial positions: cell centers (or the core center for unplaced
	// designs where everything sits at the origin).
	x := make([]float64, n)
	y := make([]float64, n)
	for i, c := range movable {
		x[i] = c.GX + c.W/2
		y[i] = c.GY + c.H/2
	}

	anchorW := anchorBase * sys.avgWeight
	anchorX := make([]float64, n)
	anchorY := make([]float64, n)
	haveAnchor := false

	for it := 0; it < o.Iterations; it++ {
		res.Iterations = it + 1
		aw := 0.0
		if haveAnchor {
			aw = anchorW
		}
		cg1, err := sys.solve(x, sys.bx, anchorX, aw, cgTol)
		if err != nil {
			return nil, fmt.Errorf("gp: x solve: %w", err)
		}
		cg2, err := sys.solve(y, sys.by, anchorY, aw, cgTol)
		if err != nil {
			return nil, fmt.Errorf("gp: y solve: %w", err)
		}
		res.CGIters += cg1 + cg2
		writeBack(d, movable, x, y)

		if it == o.Iterations-1 {
			break
		}
		// Lookahead legalization → spreading anchors.
		if err := lookahead(d, movable, anchorX, anchorY); err != nil {
			return nil, fmt.Errorf("gp: lookahead: %w", err)
		}
		haveAnchor = true
		anchorW *= anchorGrowth
	}

	// Final blend: pull each cell partway toward its lookahead anchor so
	// the output overlaps moderately instead of heavily — the regime
	// legalization expects from a converged placer.
	if haveAnchor {
		for i := range x {
			x[i] = 0.5*x[i] + 0.5*anchorX[i]
			y[i] = 0.5*y[i] + 0.5*anchorY[i]
		}
		writeBack(d, movable, x, y)
	}
	res.Overflow = Overflow(d)
	return res, nil
}

// buildIndex maps cell IDs to contiguous movable indices.
func buildIndex(d *design.Design) (map[int]int, []*design.Cell) {
	idx := make(map[int]int)
	var movable []*design.Cell
	for _, c := range d.Cells {
		if !c.Fixed {
			idx[c.ID] = len(movable)
			movable = append(movable, c)
		}
	}
	return idx, movable
}

// system holds the quadratic model: L x = b (per axis) plus diagonal
// regularization; anchors are added per solve.
type system struct {
	n         int
	lap       *sparse.CSR
	diagReg   []float64 // regularization + fixed-anchor diagonal
	bx, by    []float64
	avgWeight float64
	scratch   []float64
}

func buildSystem(d *design.Design, idx map[int]int, movable []*design.Cell) (*system, error) {
	n := len(movable)
	s := &system{
		n:       n,
		diagReg: make([]float64, n),
		bx:      make([]float64, n),
		by:      make([]float64, n),
		scratch: make([]float64, n),
	}
	b := sparse.NewBuilder(n, n)
	totalW, terms := 0.0, 0
	addPair := func(i, j int, w, oxi, oyi, oxj, oyj float64) {
		// w((xi + oxi) − (xj + oxj))²: Laplacian entries plus rhs shifts.
		b.Add(i, i, w)
		b.Add(j, j, w)
		b.Add(i, j, -w)
		b.Add(j, i, -w)
		s.bx[i] += w * (oxj - oxi)
		s.bx[j] += w * (oxi - oxj)
		s.by[i] += w * (oyj - oyi)
		s.by[j] += w * (oyi - oyj)
		totalW += w
		terms++
	}
	addAnchor := func(i int, w, px, py, oxi, oyi float64) {
		s.diagReg[i] += w
		s.bx[i] += w * (px - oxi)
		s.by[i] += w * (py - oyi)
		totalW += w
		terms++
	}

	type pinRef struct {
		mi     int // movable index or -1
		px, py float64
		ox, oy float64 // offset from cell center (movable pins)
	}
	connected := 0
	for ni := range d.Nets {
		net := &d.Nets[ni]
		if len(net.Pins) < 2 {
			continue
		}
		k := len(net.Pins)
		w := 1.0 / float64(k-1)
		refs := make([]pinRef, 0, k)
		for _, p := range net.Pins {
			if p.CellID < 0 {
				refs = append(refs, pinRef{mi: -1, px: p.DX, py: p.DY})
				continue
			}
			c := d.Cells[p.CellID]
			if c.Fixed {
				refs = append(refs, pinRef{mi: -1, px: c.X + p.DX, py: c.Y + p.DY})
				continue
			}
			mi := idx[p.CellID]
			refs = append(refs, pinRef{mi: mi, ox: p.DX - c.W/2, oy: p.DY - c.H/2})
		}
		for a := 0; a < len(refs); a++ {
			for bb := a + 1; bb < len(refs); bb++ {
				ra, rb := refs[a], refs[bb]
				switch {
				case ra.mi >= 0 && rb.mi >= 0:
					if ra.mi != rb.mi {
						addPair(ra.mi, rb.mi, w, ra.ox, ra.oy, rb.ox, rb.oy)
						connected++
					}
				case ra.mi >= 0:
					addAnchor(ra.mi, w, rb.px, rb.py, ra.ox, ra.oy)
					connected++
				case rb.mi >= 0:
					addAnchor(rb.mi, w, ra.px, ra.py, rb.ox, rb.oy)
					connected++
				}
			}
		}
	}
	if connected == 0 {
		return nil, fmt.Errorf("gp: netlist connects no movable cells")
	}
	s.avgWeight = totalW / float64(terms)
	// Weak regularization toward the core center removes the translation
	// null space and parks netless cells sensibly.
	cx, cy := d.Core.Center().X, d.Core.Center().Y
	reg := 1e-4 * s.avgWeight
	for i := 0; i < n; i++ {
		s.diagReg[i] += reg
		s.bx[i] += reg * cx
		s.by[i] += reg * cy
	}
	s.lap = b.Build()
	return s, nil
}

// solve runs preconditioned CG on (L + diagReg + aw·I) v = b + aw·anchor.
func (s *system) solve(v, b, anchor []float64, aw, tol float64) (int, error) {
	rhs := make([]float64, s.n)
	for i := range rhs {
		rhs[i] = b[i] + aw*anchor[i]
	}
	diag := make([]float64, s.n)
	for i := range diag {
		diag[i] = s.lap.At(i, i) + s.diagReg[i] + aw
	}
	apply := func(dst, src []float64) {
		s.lap.MulVec(dst, src)
		for i := range dst {
			dst[i] += (s.diagReg[i] + aw) * src[i]
		}
	}
	return sparse.CG(apply, rhs, v, sparse.CGOptions{
		Tol: tol, MaxIter: 50 * (s.n + 10),
		Precond: func(dst, src []float64) {
			for i := range dst {
				dst[i] = src[i] / diag[i]
			}
		},
	})
}

// writeBack converts centers to corner positions, clamped into the core.
func writeBack(d *design.Design, movable []*design.Cell, x, y []float64) {
	for i, c := range movable {
		c.GX = clamp(x[i]-c.W/2, d.Core.Lo.X, d.Core.Hi.X-c.W)
		c.GY = clamp(y[i]-c.H/2, d.Core.Lo.Y, d.Core.Hi.Y-c.H)
		c.X, c.Y = c.GX, c.GY
	}
}

// lookahead computes roughly-legal anchor positions by snapping a clone of
// the current placement with the Tetris allocator.
func lookahead(d *design.Design, movable []*design.Cell, anchorX, anchorY []float64) error {
	clone := d.Clone()
	// Row-align every movable clone cell first (Allocate requires it).
	for _, c := range clone.Cells {
		if c.Fixed {
			continue
		}
		row := clone.NearestCorrectRow(c, c.GY)
		if row < 0 {
			return fmt.Errorf("cell %d has no row", c.ID)
		}
		c.Y = clone.RowY(row)
		c.X = c.GX
	}
	if _, err := tetris.Allocate(clone); err != nil {
		return err
	}
	for i, c := range movable {
		lc := clone.Cells[c.ID]
		anchorX[i] = lc.X + c.W/2
		anchorY[i] = lc.Y + c.H/2
	}
	return nil
}

// Overflow measures density overflow: the fraction of total cell area that
// exceeds per-bin capacity on a coarse grid (0 = perfectly spread).
func Overflow(d *design.Design) float64 {
	const binRows = 2
	binW := 16 * d.SiteW
	nx := int(math.Ceil(d.Core.W() / binW))
	ny := int(math.Ceil(d.Core.H() / (binRows * d.RowHeight)))
	if nx == 0 || ny == 0 {
		return 0
	}
	area := make([]float64, nx*ny)
	total := 0.0
	for _, c := range d.Cells {
		total += c.Area()
		// Spread the cell's area over the bins it covers.
		x0, x1 := c.GX, c.GX+c.W
		y0, y1 := c.GY, c.GY+c.H
		for bx := int(x0 / binW); bx <= int(x1/binW) && bx < nx; bx++ {
			if bx < 0 {
				continue
			}
			for by := int(y0 / (binRows * d.RowHeight)); by <= int(y1/(binRows*d.RowHeight)) && by < ny; by++ {
				if by < 0 {
					continue
				}
				ox := overlap1(x0, x1, float64(bx)*binW, float64(bx+1)*binW)
				oy := overlap1(y0, y1, float64(by)*binRows*d.RowHeight, float64(by+1)*binRows*d.RowHeight)
				area[bx*ny+by] += ox * oy
			}
		}
	}
	if total == 0 {
		return 0
	}
	binCap := binW * binRows * d.RowHeight
	over := 0.0
	for _, a := range area {
		if a > binCap {
			over += a - binCap
		}
	}
	return over / total
}

func overlap1(a0, a1, b0, b1 float64) float64 {
	lo, hi := math.Max(a0, b0), math.Min(a1, b1)
	if hi <= lo {
		return 0
	}
	return hi - lo
}

func clamp(x, lo, hi float64) float64 {
	if hi < lo {
		hi = lo
	}
	return math.Min(math.Max(x, lo), hi)
}
