// Package exact implements a branch-and-bound legalizer for small windows
// (tens of cells) that certifies how far a committed placement sits from
// optimal, in the spirit of ILP-with-constraint-graph exact legalization.
//
// The search branches on per-cell row assignments (every rail-compatible row
// of the window) and, at the leaves, on near-tie horizontal orderings of the
// row constraint chains. Each complete assignment is relaxed to the
// continuous convex QP
//
//	min Σ (x_i − gx_i)²   s.t.  x_j − x_i ≥ w_i along each row chain,
//	                            lo_i ≤ x_i ≤ hi_i − w_i,
//
// solved with the dense active-set method from internal/qp — the same
// relaxation family as the paper's relaxed LCP, restricted to the window.
// The QP value plus the assignment's vertical cost is the class lower
// bound; snapping the QP optimum to the site grid (and verifying it with
// the full legality checker) yields incumbents. The minimum over all class
// bounds — explored or pruned — is a true lower bound on any placement in
// the order-preserving class the paper's Theorem 2 certifies, so
//
//	Gap = (incumbent − lower bound) / incumbent
//
// is a measured, not assumed, optimality gap: 0 when the incumbent provably
// attains the bound, strictly positive when site snapping or pruning leaves
// distance unaccounted for.
//
// The search is bounded by a deterministic node budget, never wall-clock
// time, so a given (design, options) pair always explores the same tree and
// returns the same solution — the repository's bit-determinism contract.
package exact

import (
	"context"
	"math"
	"sort"

	"mclg/internal/dense"
	"mclg/internal/design"
	"mclg/internal/mclgerr"
	"mclg/internal/qp"
)

// Options configures one exact solve.
type Options struct {
	// MaxCells refuses designs with more movable cells (default 40): the
	// dense node relaxations are O(n³) and the tree is exponential, so the
	// solver is for windows, not whole designs.
	MaxCells int
	// NodeBudget bounds the number of branch-and-bound nodes expanded
	// (default 20000). The budget is deterministic: unlike a wall-clock
	// deadline, exhausting it yields the same partial tree — and therefore
	// the same incumbent and bound — on every run.
	NodeBudget int
}

const (
	// maxOrderVariants bounds how many ordering variants, the target order
	// itself included, are explored per complete row assignment.
	maxOrderVariants = 8
	// tieTolSites is the target-distance threshold, in site widths, under
	// which two same-row neighbors' order is branched both ways.
	tieTolSites = 1
)

func (o Options) withDefaults() Options {
	if o.MaxCells == 0 {
		o.MaxCells = 40
	}
	if o.NodeBudget == 0 {
		o.NodeBudget = 20000
	}
	return o
}

// Solution is the outcome of one exact solve. Positions are indexed by the
// design's cell IDs; fixed cells keep their input positions.
type Solution struct {
	X       []float64
	Y       []float64
	Flipped []bool

	// Cost is the incumbent objective Σ (Δx² + Δy²) over movable cells, in
	// squared database units, measured against the global positions.
	Cost float64
	// LowerBound is the best proven lower bound on the objective over the
	// explored class space (all row assignments × explored orderings).
	LowerBound float64
	// Gap is the normalized measured optimality gap
	// (Cost − LowerBound) / max(Cost, ε), clamped to [0, 1]. Zero means the
	// incumbent provably attains the bound.
	Gap float64
	// Proven reports that the search exhausted the tree within the node
	// budget, so LowerBound covers every class, not just the visited ones.
	Proven bool
	// Improved reports that the incumbent strictly beats the seeded
	// placement (the input X/Y positions), when those were legal.
	Improved bool

	Nodes  int // branch-and-bound nodes expanded
	Leaves int // complete assignments relaxed with the QP
}

// ErrTooLarge is returned for designs beyond Options.MaxCells.
var ErrTooLarge = mclgerr.Invalidf("exact: window exceeds the movable-cell limit")

// gapEps absorbs floating-point noise when classifying a gap as zero.
const gapEps = 1e-9

// item is one entry of a row chain: a movable cell (mov >= 0, its index in
// the solver's movable slice) or a frozen obstacle (mov < 0) with fixed
// horizontal extent [x, x+w).
type item struct {
	mov  int
	x, w float64 // obstacles only
	key  float64 // ordering key: target for movable, x for obstacles
	id   int     // tie-break
}

type solver struct {
	d    *design.Design
	opts Options

	movable []*design.Cell
	cand    [][]int     // candidate start rows per movable cell, best first
	vcost   [][]float64 // vertical cost aligned with cand
	minVert []float64
	sufMin  []float64 // suffix sums of minVert in branch order

	rowCap  []float64 // free horizontal capacity per row (minus obstacles)
	rowUsed []float64

	assign []int // current row per movable cell (-1 unassigned)

	incumbent    []float64 // per movable: x (DBU); nil until a leaf verifies
	incumbentRow []int
	incCost      float64

	bound  float64 // min over leaf relaxations and pruned-node bounds
	nodes  int
	leaves int

	ctxErr error
	ctx    context.Context
}

// Solve runs the branch-and-bound search on d. The input X/Y positions of
// movable cells, when legal, seed the incumbent (and its cost prunes the
// tree); the input design is not mutated.
func Solve(ctx context.Context, d *design.Design, opts Options) (*Solution, error) {
	opts = opts.withDefaults()
	s := &solver{d: d, opts: opts, ctx: ctx, incCost: math.Inf(1), bound: math.Inf(1)}
	for _, c := range d.Cells {
		if !c.Fixed {
			s.movable = append(s.movable, c)
		}
	}
	if len(s.movable) > opts.MaxCells {
		return nil, ErrTooLarge
	}
	if len(s.movable) == 0 {
		return emptySolution(d), nil
	}

	// Hardest cells first: wide/tall cells have the fewest feasible slots,
	// so assigning them early maximizes pruning.
	sort.Slice(s.movable, func(i, j int) bool {
		a, b := s.movable[i], s.movable[j]
		if aw, bw := a.W*float64(a.RowSpan), b.W*float64(b.RowSpan); aw != bw {
			return aw > bw
		}
		return a.ID < b.ID
	})

	if err := s.prepare(); err != nil {
		return nil, err
	}
	s.seedIncumbent()
	seedCost := s.incCost

	s.dfs(0, 0)
	if s.ctxErr != nil {
		return nil, s.ctxErr
	}
	if s.incumbent == nil {
		return nil, &mclgerr.StageError{
			Stage:  "exact",
			Err:    mclgerr.ErrUnplacedCells,
			Detail: "no legal placement found within the node budget",
		}
	}

	sol := s.buildSolution()
	sol.Proven = s.nodes < s.opts.NodeBudget
	sol.Improved = !math.IsInf(seedCost, 1) && sol.Cost < seedCost-gapEps
	return sol, nil
}

func emptySolution(d *design.Design) *Solution {
	sol := &Solution{
		X:       make([]float64, len(d.Cells)),
		Y:       make([]float64, len(d.Cells)),
		Flipped: make([]bool, len(d.Cells)),
		Proven:  true,
	}
	for i, c := range d.Cells {
		sol.X[i], sol.Y[i], sol.Flipped[i] = c.X, c.Y, c.Flipped
	}
	return sol
}

// prepare computes candidate rows, vertical costs, and row capacities.
func (s *solver) prepare() error {
	d := s.d
	n := len(s.movable)
	s.cand = make([][]int, n)
	s.vcost = make([][]float64, n)
	s.minVert = make([]float64, n)
	s.assign = make([]int, n)
	for i := range s.assign {
		s.assign[i] = -1
	}

	for i, c := range s.movable {
		type rc struct {
			row int
			v   float64
		}
		var rcs []rc
		for r := 0; r+c.RowSpan <= len(d.Rows); r++ {
			if !d.RailCompatible(c, r) {
				continue
			}
			dy := d.RowY(r) - c.GY
			rcs = append(rcs, rc{r, dy * dy})
		}
		if len(rcs) == 0 {
			return &mclgerr.StageError{
				Stage: "exact",
				Err:   mclgerr.ErrInfeasibleRow,
				Cells: []int{c.ID},
			}
		}
		sort.Slice(rcs, func(a, b int) bool {
			if rcs[a].v != rcs[b].v {
				return rcs[a].v < rcs[b].v
			}
			return rcs[a].row < rcs[b].row
		})
		s.minVert[i] = rcs[0].v
		for _, e := range rcs {
			s.cand[i] = append(s.cand[i], e.row)
			s.vcost[i] = append(s.vcost[i], e.v)
		}
	}

	s.sufMin = make([]float64, n+1)
	for i := n - 1; i >= 0; i-- {
		s.sufMin[i] = s.sufMin[i+1] + s.minVert[i]
	}

	// Row capacity: total row width minus the extent of frozen obstacles
	// overlapping the row. An assignment whose per-row width demand exceeds
	// capacity cannot be packed and is pruned without a QP.
	s.rowCap = make([]float64, len(d.Rows))
	s.rowUsed = make([]float64, len(d.Rows))
	for r := range d.Rows {
		s.rowCap[r] = d.Rows[r].XMax() - d.Rows[r].OriginX
	}
	for _, c := range d.Cells {
		if !c.Fixed {
			continue
		}
		r0 := d.RowAt(c.Y + 1e-9)
		if r0 < 0 {
			r0 = 0
		}
		for r := r0; r < len(d.Rows); r++ {
			if d.RowY(r) >= c.Y+c.H-1e-9 {
				break
			}
			lo := math.Max(c.X, d.Rows[r].OriginX)
			hi := math.Min(c.X+c.W, d.Rows[r].XMax())
			if hi > lo {
				s.rowCap[r] -= hi - lo
			}
		}
	}
	return nil
}

// seedIncumbent adopts the input placement as the starting incumbent when
// the legality checker accepts it.
func (s *solver) seedIncumbent() {
	if !design.IsLegal(s.d) {
		return
	}
	cost := 0.0
	xs := make([]float64, len(s.movable))
	rows := make([]int, len(s.movable))
	for i, c := range s.movable {
		r := s.d.RowAt(c.Y + s.d.RowHeight/2)
		if r < 0 {
			return
		}
		xs[i], rows[i] = c.X, r
		cost += c.DisplacementSq()
	}
	s.incumbent, s.incumbentRow, s.incCost = xs, rows, cost
}

// dfs expands the assignment tree. depth is the next movable cell to
// assign; vert is the vertical cost of the assignments so far.
func (s *solver) dfs(depth int, vert float64) {
	if s.ctxErr != nil {
		return
	}
	if s.nodes >= s.opts.NodeBudget {
		// Unexplored subtrees may hold better placements: anchor the global
		// bound at the weakest valid value covering them.
		s.noteBound(s.sufMin[0])
		return
	}
	s.nodes++
	if s.nodes%64 == 0 {
		if err := mclgerr.FromContext(s.ctx); err != nil {
			s.ctxErr = err
			return
		}
	}
	if depth == len(s.movable) {
		s.evalLeaf(vert)
		return
	}
	c := s.movable[depth]
	for k, r := range s.cand[depth] {
		nv := vert + s.vcost[depth][k]
		if nv+s.sufMin[depth+1] >= s.incCost-gapEps {
			// Candidates are sorted by vertical cost: every later row in
			// this node is pruned by the same bound.
			s.noteBound(nv + s.sufMin[depth+1])
			break
		}
		if !s.fitsRows(c, r) {
			continue // capacity-infeasible: no bound contribution
		}
		s.occupyRows(c, r, c.W)
		s.assign[depth] = r
		s.dfs(depth+1, nv)
		s.assign[depth] = -1
		s.occupyRows(c, r, -c.W)
		if s.ctxErr != nil {
			return
		}
	}
}

func (s *solver) fitsRows(c *design.Cell, r int) bool {
	for k := 0; k < c.RowSpan; k++ {
		if s.rowUsed[r+k]+c.W > s.rowCap[r+k]+1e-9 {
			return false
		}
	}
	return true
}

func (s *solver) occupyRows(c *design.Cell, r int, w float64) {
	for k := 0; k < c.RowSpan; k++ {
		s.rowUsed[r+k] += w
	}
}

// noteBound folds a subtree lower bound into the global bound.
func (s *solver) noteBound(b float64) {
	if b < s.bound {
		s.bound = b
	}
}

// evalLeaf relaxes one complete row assignment: it builds the horizontal
// constraint chains, enumerates near-tie ordering variants, solves each
// variant's QP, and snaps the best relaxations to the site grid as
// incumbent candidates.
func (s *solver) evalLeaf(vert float64) {
	chains := s.buildChains()
	variants := s.orderVariants(chains)
	for _, ch := range variants {
		s.leaves++
		relax, xs, ok := s.solveChainQP(ch)
		if !ok {
			continue
		}
		s.noteBound(vert + relax)
		if vert+relax >= s.incCost-gapEps {
			continue // snapping cannot beat the incumbent
		}
		s.trySnap(ch, xs, vert)
	}
}

// buildChains assembles the per-row horizontal chains for the current
// assignment: movable cells keyed by target x, frozen obstacles by their
// actual extent.
func (s *solver) buildChains() [][]item {
	d := s.d
	chains := make([][]item, len(d.Rows))
	for i, c := range s.movable {
		r := s.assign[i]
		for k := 0; k < c.RowSpan; k++ {
			chains[r+k] = append(chains[r+k], item{mov: i, key: c.GX, id: c.ID})
		}
	}
	for _, c := range d.Cells {
		if !c.Fixed {
			continue
		}
		for r := range d.Rows {
			ry := d.RowY(r)
			if c.Y >= ry+d.RowHeight-1e-9 || c.Y+c.H <= ry+1e-9 {
				continue
			}
			chains[r] = append(chains[r], item{mov: -1, x: c.X, w: c.W, key: c.X, id: -1 - c.ID})
		}
	}
	for r := range chains {
		sort.Slice(chains[r], func(a, b int) bool {
			if chains[r][a].key != chains[r][b].key {
				return chains[r][a].key < chains[r][b].key
			}
			return chains[r][a].id < chains[r][b].id
		})
	}
	return chains
}

// orderVariants enumerates the target ordering plus up to
// maxOrderVariants−1 near-tie adjacent transpositions: for each pair of
// movable chain neighbors whose targets sit within tieTolSites, the swapped
// order is its own branch. Variants are deterministic and deduplicated.
func (s *solver) orderVariants(chains [][]item) [][][]item {
	out := [][][]item{chains}
	tie := tieTolSites * s.d.SiteW
	type swap struct{ row, pos int }
	var swaps []swap
	for r := range chains {
		for i := 0; i+1 < len(chains[r]); i++ {
			a, b := chains[r][i], chains[r][i+1]
			if a.mov >= 0 && b.mov >= 0 && math.Abs(a.key-b.key) <= tie+1e-12 {
				swaps = append(swaps, swap{r, i})
			}
		}
	}
	for _, sw := range swaps {
		if len(out) >= maxOrderVariants {
			break
		}
		v := make([][]item, len(chains))
		for r := range chains {
			v[r] = append([]item(nil), chains[r]...)
		}
		v[sw.row][sw.pos], v[sw.row][sw.pos+1] = v[sw.row][sw.pos+1], v[sw.row][sw.pos]
		out = append(out, v)
	}
	return out
}

// cellBounds returns the horizontal interval [lo, hi] available to movable
// cell i under its current row assignment (hi is the max left-edge x).
func (s *solver) cellBounds(i int) (lo, hi float64) {
	c := s.movable[i]
	r := s.assign[i]
	lo, hi = math.Inf(-1), math.Inf(1)
	for k := 0; k < c.RowSpan; k++ {
		row := &s.d.Rows[r+k]
		lo = math.Max(lo, row.OriginX)
		hi = math.Min(hi, row.XMax()-c.W)
	}
	return lo, hi
}

// solveChainQP solves the continuous relaxation of one ordering with the
// dense active-set method and returns the horizontal objective
// Σ (x_i − gx_i)² and the optimizer. ok is false when the ordering is
// infeasible (overfull chain) or the QP fails.
func (s *solver) solveChainQP(chains [][]item) (obj float64, xs []float64, ok bool) {
	n := len(s.movable)
	type ineq struct {
		a, b int // x_b − x_a ≥ c (a or b == -1 for single-variable rows)
		c    float64
	}
	var rows []ineq
	for i := range s.movable {
		lo, hi := s.cellBounds(i)
		rows = append(rows, ineq{a: -1, b: i, c: lo})  // x_i ≥ lo
		rows = append(rows, ineq{a: i, b: -1, c: -hi}) // −x_i ≥ −hi
	}
	for _, ch := range chains {
		for i := 0; i+1 < len(ch); i++ {
			a, b := ch[i], ch[i+1]
			switch {
			case a.mov >= 0 && b.mov >= 0:
				rows = append(rows, ineq{a: a.mov, b: b.mov, c: s.movable[a.mov].W})
			case a.mov < 0 && b.mov >= 0:
				rows = append(rows, ineq{a: -1, b: b.mov, c: a.x + a.w})
			case a.mov >= 0 && b.mov < 0:
				rows = append(rows, ineq{a: a.mov, b: -1, c: -(b.x - s.movable[a.mov].W)})
			}
		}
	}

	h := dense.New(n, n)
	p := make([]float64, n)
	for i, c := range s.movable {
		h.Set(i, i, 2)
		p[i] = -2 * c.GX
	}
	g := dense.New(len(rows), n)
	hv := make([]float64, len(rows))
	for r, iq := range rows {
		if iq.a >= 0 {
			g.Set(r, iq.a, -1)
		}
		if iq.b >= 0 {
			g.Set(r, iq.b, 1)
		}
		hv[r] = iq.c
	}

	x0, feasible := s.packStart(chains)
	if !feasible {
		return 0, nil, false
	}
	x, err := qp.Solve(&qp.Problem{H: h, P: p, G: g, Hv: hv}, x0)
	if err != nil {
		return 0, nil, false
	}
	for i, c := range s.movable {
		d := x[i] - c.GX
		obj += d * d
	}
	return obj, x, true
}

// packStart builds a feasible starting point by packing every chain left.
// Multi-row cells couple chains, so the pass iterates to a fixed point.
func (s *solver) packStart(chains [][]item) ([]float64, bool) {
	x := make([]float64, len(s.movable))
	his := make([]float64, len(s.movable))
	for i := range s.movable {
		lo, hi := s.cellBounds(i)
		x[i], his[i] = lo, hi
	}
	for pass := 0; pass <= len(s.movable)+1; pass++ {
		changed := false
		for _, ch := range chains {
			limit := math.Inf(-1)
			for _, it := range ch {
				if it.mov < 0 {
					if it.x+it.w > limit {
						limit = it.x + it.w
					}
					continue
				}
				if x[it.mov] < limit-1e-12 {
					x[it.mov] = limit
					changed = true
				}
				limit = x[it.mov] + s.movable[it.mov].W
			}
		}
		if !changed {
			break
		}
		if pass == len(s.movable)+1 {
			return nil, false // should have converged: treat as infeasible
		}
	}
	for i := range x {
		if x[i] > his[i]+1e-9 {
			return nil, false
		}
	}
	return x, true
}

// trySnap rounds a QP optimizer to the site grid, restores chain feasibility
// with a forward/backward pass, verifies the result with the full legality
// checker, and adopts it as the incumbent when it improves the cost.
func (s *solver) trySnap(chains [][]item, xs []float64, vert float64) {
	d := s.d
	snapped := make([]float64, len(xs))
	for i := range xs {
		snapped[i] = math.Round((xs[i]-d.Core.Lo.X)/d.SiteW)*d.SiteW + d.Core.Lo.X
	}
	// Forward: push right to clear left neighbors; backward: pull left to
	// respect right bounds. Widths are rounded up to whole sites so cleared
	// constraints stay cleared on the grid.
	wsites := func(i int) float64 {
		return float64(d.SiteSpan(s.movable[i])) * d.SiteW
	}
	for pass := 0; pass <= len(xs)+1; pass++ {
		changed := false
		for _, ch := range chains {
			limit := math.Inf(-1)
			for _, it := range ch {
				if it.mov < 0 {
					limit = math.Max(limit, math.Ceil((it.x+it.w-d.Core.Lo.X)/d.SiteW-1e-9)*d.SiteW+d.Core.Lo.X)
					continue
				}
				if snapped[it.mov] < limit-1e-9 {
					snapped[it.mov] = limit
					changed = true
				}
				limit = snapped[it.mov] + wsites(it.mov)
			}
		}
		if !changed {
			break
		}
	}
	for pass := 0; pass <= len(xs)+1; pass++ {
		changed := false
		for _, ch := range chains {
			limit := math.Inf(1)
			for i := len(ch) - 1; i >= 0; i-- {
				it := ch[i]
				if it.mov < 0 {
					limit = math.Min(limit, math.Floor((it.x-d.Core.Lo.X)/d.SiteW+1e-9)*d.SiteW+d.Core.Lo.X)
					continue
				}
				cap := limit - wsites(it.mov)
				_, hi := s.cellBounds(it.mov)
				cap = math.Min(cap, math.Floor((hi-d.Core.Lo.X)/d.SiteW+1e-9)*d.SiteW+d.Core.Lo.X)
				if snapped[it.mov] > cap+1e-9 {
					snapped[it.mov] = cap
					changed = true
				}
				limit = snapped[it.mov]
			}
		}
		if !changed {
			break
		}
	}
	// The backward pass may have undone a forward clearance: re-verify.
	for _, ch := range chains {
		limit := math.Inf(-1)
		for _, it := range ch {
			if it.mov < 0 {
				limit = math.Max(limit, it.x+it.w)
				continue
			}
			lo, _ := s.cellBounds(it.mov)
			if snapped[it.mov] < limit-1e-9 || snapped[it.mov] < lo-1e-9 {
				return // grid-infeasible under this ordering
			}
			limit = snapped[it.mov] + wsites(it.mov)
		}
	}

	cost := vert
	for i, c := range s.movable {
		dx := snapped[i] - c.GX
		cost += dx * dx
	}
	if cost >= s.incCost-gapEps {
		return
	}

	// Authoritative check: apply to a clone and run the legality checker.
	clone := d.Clone()
	for i, c := range s.movable {
		clone.Move(clone.Cells[c.ID], snapped[i], d.RowY(s.assign[i]))
	}
	if !design.IsLegal(clone) {
		return
	}
	s.incumbent = append([]float64(nil), snapped...)
	s.incumbentRow = append([]int(nil), s.assign...)
	s.incCost = cost
}

func (s *solver) buildSolution() *Solution {
	d := s.d
	sol := &Solution{
		X:       make([]float64, len(d.Cells)),
		Y:       make([]float64, len(d.Cells)),
		Flipped: make([]bool, len(d.Cells)),
		Cost:    s.incCost,
		Nodes:   s.nodes,
		Leaves:  s.leaves,
	}
	for i, c := range d.Cells {
		sol.X[i], sol.Y[i], sol.Flipped[i] = c.X, c.Y, c.Flipped
	}
	for i, c := range s.movable {
		sol.X[c.ID] = s.incumbent[i]
		sol.Y[c.ID] = d.RowY(s.incumbentRow[i])
		if !c.EvenSpan() {
			sol.Flipped[c.ID] = d.Rows[s.incumbentRow[i]].Rail != c.BottomRail
		} else {
			sol.Flipped[c.ID] = false
		}
	}
	// The incumbent itself bounds the optimum from above, so the reported
	// lower bound never exceeds it.
	sol.LowerBound = math.Min(s.bound, s.incCost)
	if gap := sol.Cost - sol.LowerBound; gap > gapEps && sol.Cost > 0 {
		sol.Gap = gap / sol.Cost
	}
	return sol
}
