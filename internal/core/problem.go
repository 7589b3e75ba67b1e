// Package core implements the paper's mixed-cell-height legalization
// algorithm:
//
//  1. assign every movable cell to its nearest correct row (power-rail
//     matched for even-row-span cells) and fix the per-row left-to-right
//     ordering from global placement,
//  2. split multi-row cells into single-row subcells tied by equality
//     constraints Ex = 0, folded into the objective with penalty λ,
//  3. form the KKT conditions of the relaxed convex QP as the linear
//     complementarity problem LCP(q, A) with
//     A = [[Q+λEᵀE, −Bᵀ], [B, 0]]   (Eq. 15),
//  4. solve it with the modulus-based matrix splitting iteration (MMSIM)
//     using the structured block lower-triangular splitting of Eq. 16, whose
//     per-iteration cost is O(n),
//  5. restore multi-row cells and run the Tetris-like allocation to snap to
//     sites and repair any overlapping or out-of-right-boundary cells.
package core

import (
	"cmp"
	"fmt"
	"slices"

	"mclg/internal/design"
	"mclg/internal/mclgerr"
	"mclg/internal/recycle"
	"mclg/internal/sparse"
)

// Subcell is one single-row-height slice of a cell. A single-row cell has
// exactly one subcell; a k-row cell has k, ordered bottom to top.
type Subcell struct {
	Cell   int // owning cell ID
	Slice  int // 0-based slice index within the cell (0 = bottom)
	Row    int // assigned placement row
	Var    int // variable index in the QP/LCP
	Width  float64
	Target float64 // global x position relative to the core's left edge
}

// Constraint is one non-overlap constraint x_j − x_l ≥ w_l between
// horizontally adjacent subcells in a row. Right == -1 encodes a
// right-boundary constraint −x_l ≥ Gap (BuildProblemBounded).
type Constraint struct {
	Row         int
	Left, Right int // variable indices; Right == -1 for boundary rows
	Gap         float64
}

// Problem is the assembled relaxed legalization QP in LCP-ready form.
type Problem struct {
	D *design.Design

	Subcells []Subcell
	CellVars [][]int // per cell ID: its variable indices (nil for fixed cells)

	Cons []Constraint // ordered row-major, left to right

	NumVars int
	NumCons int

	B  *sparse.CSR // NumCons x NumVars ordering-constraint matrix
	E  *sparse.CSR // equality-constraint matrix tying subcells (may have 0 rows)
	P  []float64   // linear objective term: P[v] = −target_v
	Bv []float64   // constraint right-hand sides (gaps)

	Lambda float64

	// blocks[cellID] is the span of the cell's variable block (0 for fixed
	// cells); variable blocks are contiguous and ordered by cell ID.
	blockOfVar []int // owning cell ID per variable

	// Storage build reuses: CellVars' and perRow's backing arrays, and the
	// per-row slot ends.
	cellVars, rowVars, rowEnd []int
	perRow                    [][]int
}

// ErrNoRow is returned when a cell cannot be assigned to any rail-compatible
// row (e.g. taller than the core). It matches mclgerr.ErrInfeasibleRow via
// errors.Is.
type ErrNoRow struct{ CellID int }

func (e ErrNoRow) Error() string {
	return fmt.Sprintf("core: cell %d has no rail-compatible row", e.CellID)
}

// Unwrap maps the error into the taxonomy.
func (e ErrNoRow) Unwrap() error { return mclgerr.ErrInfeasibleRow }

// AssignRows sets every movable cell's Y to its nearest correct row
// (Section 3 of the paper): the nearest row for odd-row-span cells, with
// vertical flipping recorded when the rail type mismatches, and the nearest
// power-rail-matched row for even-row-span cells. The x coordinate is left
// at the global position. On a cell with no correct row it stops with that
// cell's ErrNoRow; callers treat any error as fatal for the whole stage.
func AssignRows(d *design.Design) error {
	for _, c := range d.Cells {
		if c.Fixed {
			continue
		}
		row := d.NearestCorrectRow(c, c.GY)
		if row < 0 {
			return ErrNoRow{CellID: c.ID}
		}
		c.X = c.GX
		c.Y = d.RowY(row)
		c.Flipped = !c.EvenSpan() && d.Rows[row].Rail != c.BottomRail
	}
	return nil
}

// AssignRowsP is AssignRows; workers is ignored. Remove with the next
// benchmark change (ROADMAP item 9).
func AssignRowsP(d *design.Design, workers int) error { return AssignRows(d) }

// BuildProblem assembles the relaxed QP (13) for a design whose cells have
// already been assigned to rows (c.Y on a row boundary for every movable
// cell). Cells in each row are ordered by their global x position, honoring
// the global-placement ordering; ties break by cell ID for determinism.
//
// Fixed cells are not variables and, matching the paper's benchmarks
// (which strip fence regions and blockages), do not constrain the QP;
// overlaps with fixed cells are repaired by the Tetris allocation stage.
func BuildProblem(d *design.Design, lambda float64) (*Problem, error) {
	return BuildProblemBounded(d, lambda, false)
}

// BuildProblemBounded is BuildProblem with an optional exact right-boundary
// mode (an extension beyond the paper, which relaxes the right boundary and
// repairs violators in the Tetris stage): when boundRight is true, the
// rightmost subcell of every row gets an extra constraint
// −x ≥ −(X_max − w), i.e. x + w ≤ X_max. These single-entry rows keep B of
// full row rank (they only touch the last variable of each row chain), so
// the MMSIM convergence argument is unchanged, and the solution is the true
// optimum of the boundary-constrained problem — no out-of-boundary cells
// remain for the allocation stage to fix.
func BuildProblemBounded(d *design.Design, lambda float64, boundRight bool) (*Problem, error) {
	p := &Problem{}
	if err := p.build(d, lambda, boundRight); err != nil {
		return nil, err
	}
	return p, nil
}

// build is BuildProblemBounded writing into p, reusing every slice p holds
// and overwriting every field.
func (p *Problem) build(d *design.Design, lambda float64, boundRight bool) error {
	p.D, p.Lambda = d, lambda
	p.CellVars = recycle.Grow(p.CellVars, len(d.Cells))
	clear(p.CellVars)

	// Size everything first: the variable count is Σ RowSpan, and rowEnd[r]
	// ends row r's slot in the per-row subcell index array.
	nv := 0
	rowEnd := recycle.Grow(p.rowEnd, len(d.Rows))
	clear(rowEnd)
	for _, c := range d.Cells {
		if c.Fixed {
			continue
		}
		row := d.RowAt(c.Y + d.RowHeight/2)
		if row < 0 || row+c.RowSpan > len(d.Rows) {
			return fmt.Errorf("core: cell %d not assigned to a valid row (y=%g)", c.ID, c.Y)
		}
		nv += c.RowSpan
		for k := 0; k < c.RowSpan; k++ {
			rowEnd[row+k]++
		}
	}
	for r := 1; r < len(rowEnd); r++ {
		rowEnd[r] += rowEnd[r-1]
	}
	p.Subcells = slices.Grow(p.Subcells[:0], nv)
	p.blockOfVar = slices.Grow(p.blockOfVar[:0], nv)
	cellVars := recycle.Grow(p.cellVars, nv)
	rowVars := recycle.Grow(p.rowVars, nv)
	perRow := recycle.Grow(p.perRow, len(d.Rows)) // subcell indices per row
	for r := range perRow {
		start := 0
		if r > 0 {
			start = rowEnd[r-1]
		}
		perRow[r] = rowVars[start:start:rowEnd[r]]
	}
	p.cellVars, p.rowVars, p.rowEnd, p.perRow = cellVars, rowVars, rowEnd, perRow

	// Create subcells and variables, cells in ID order so blocks are
	// contiguous.
	for _, c := range d.Cells {
		if c.Fixed {
			continue
		}
		row := d.RowAt(c.Y + d.RowHeight/2)
		v0 := len(p.Subcells)
		vars := cellVars[v0 : v0+c.RowSpan : v0+c.RowSpan]
		for k := 0; k < c.RowSpan; k++ {
			v := len(p.Subcells)
			vars[k] = v
			p.Subcells = append(p.Subcells, Subcell{
				Cell:   c.ID,
				Slice:  k,
				Row:    row + k,
				Var:    v,
				Width:  c.W,
				Target: c.GX - d.Core.Lo.X,
			})
			p.blockOfVar = append(p.blockOfVar, c.ID)
			perRow[row+k] = append(perRow[row+k], v)
		}
		p.CellVars[c.ID] = vars
	}
	p.NumVars = len(p.Subcells)

	// Order each row by global x and emit adjacency constraints row-major:
	// at most one chain constraint per subcell and one boundary row per row.
	p.Cons = slices.Grow(p.Cons[:0], p.NumVars+len(d.Rows))
	// With boundRight, each row additionally gets a right-boundary row
	// −x ≥ −(X_max − w) on its rightmost subcell (Right == -1 encodes the
	// missing right variable), placed directly after the row's chain so the
	// tridiagonal Schur approximation D captures its coupling with the
	// neighboring chain constraint.
	byTarget := func(a, b int) int {
		sa, sb := &p.Subcells[a], &p.Subcells[b]
		if c := cmp.Compare(sa.Target, sb.Target); c != 0 {
			return c
		}
		return cmp.Compare(sa.Cell, sb.Cell)
	}
	for r := range perRow {
		vars := perRow[r]
		slices.SortFunc(vars, byTarget)
		for i := 0; i+1 < len(vars); i++ {
			l, rv := vars[i], vars[i+1]
			p.Cons = append(p.Cons, Constraint{
				Row:  r,
				Left: l, Right: rv,
				Gap: p.Subcells[l].Width,
			})
		}
		if boundRight && len(vars) > 0 {
			last := vars[len(vars)-1]
			limit := d.Rows[r].XMax() - d.Core.Lo.X - p.Subcells[last].Width
			p.Cons = append(p.Cons, Constraint{
				Row:  r,
				Left: last, Right: -1,
				Gap: -limit,
			})
		}
	}
	p.NumCons = len(p.Cons)

	// Constraint matrix B: row per constraint with −1 at Left, +1 at Right
	// (boundary rows have only the −1 entry). Every row has at most two
	// entries with known columns, so B is filled directly in CSR form
	// (column-sorted per row, no duplicates) instead of through the
	// triplet-sorting Builder.
	p.Bv = recycle.Grow(p.Bv, p.NumCons)
	nnzB := 0
	for _, c := range p.Cons {
		nnzB++
		if c.Right >= 0 {
			nnzB++
		}
	}
	if p.B == nil {
		p.B = &sparse.CSR{}
	}
	b := p.B
	b.Rows, b.Cols = p.NumCons, p.NumVars
	b.RowPtr, b.ColIdx, b.Val = recycle.Grow(b.RowPtr, p.NumCons+1), recycle.Grow(b.ColIdx, nnzB), recycle.Grow(b.Val, nnzB)
	k := 0
	for i, c := range p.Cons {
		b.RowPtr[i] = k
		switch {
		case c.Right < 0:
			b.ColIdx[k], b.Val[k] = c.Left, -1
			k++
		case c.Left < c.Right:
			b.ColIdx[k], b.Val[k] = c.Left, -1
			b.ColIdx[k+1], b.Val[k+1] = c.Right, 1
			k += 2
		default:
			// Variable indices follow cell-ID order, not x order, so the
			// right neighbor's column may be the smaller one.
			b.ColIdx[k], b.Val[k] = c.Right, 1
			b.ColIdx[k+1], b.Val[k+1] = c.Left, -1
			k += 2
		}
		p.Bv[i] = c.Gap
	}
	b.RowPtr[p.NumCons] = k

	// Equality matrix E: chain consecutive subcells of each multi-row cell.
	// A cell's variables are consecutive and increasing, so each row's two
	// entries are already column-sorted — direct CSR fill again.
	numEq := 0
	for _, vars := range p.CellVars {
		if len(vars) > 1 {
			numEq += len(vars) - 1
		}
	}
	if p.E == nil {
		p.E = &sparse.CSR{}
	}
	e := p.E
	e.Rows, e.Cols = numEq, p.NumVars
	e.RowPtr, e.ColIdx, e.Val = recycle.Grow(e.RowPtr, numEq+1), recycle.Grow(e.ColIdx, 2*numEq), recycle.Grow(e.Val, 2*numEq)
	k = 0
	for _, vars := range p.CellVars {
		for j := 0; j+1 < len(vars); j++ {
			e.RowPtr[k/2] = k
			e.ColIdx[k], e.Val[k] = vars[j], -1
			e.ColIdx[k+1], e.Val[k+1] = vars[j+1], 1
			k += 2
		}
	}
	e.RowPtr[numEq] = k

	// Linear objective p = −x'.
	p.P = recycle.Grow(p.P, p.NumVars)
	for i, s := range p.Subcells {
		p.P[i] = -s.Target
	}
	return nil
}

// ApplyH computes dst = H src with H = I + λEᵀE. The E-coupling is block
// tridiagonal per multi-row cell (path-graph Laplacian), applied directly
// without materializing H.
func (p *Problem) ApplyH(dst, src []float64) {
	copy(dst, src)
	p.addLambdaLaplacian(dst, src, p.Lambda)
}

// addLambdaLaplacian computes dst += coef * (EᵀE) src using the per-cell
// path-Laplacian structure.
func (p *Problem) addLambdaLaplacian(dst, src []float64, coef float64) {
	for _, vars := range p.CellVars {
		for k := 0; k+1 < len(vars); k++ {
			lo, hi := vars[k], vars[k+1]
			diff := src[hi] - src[lo]
			dst[lo] -= coef * diff
			dst[hi] += coef * diff
		}
	}
}

// SolveHShifted solves (c1·I + c2·λ'·L) dst = rhs blockwise, where L is the
// per-cell path Laplacian (so c1 = 1, c2·λ' = λ gives H, and
// c1 = 1/β*+1, c2·λ' = λ/β* gives the (1/β*)H + I system of the MMSIM).
// lamCoef is the coefficient multiplying L. dst and rhs may alias.
func (p *Problem) SolveHShifted(c1, lamCoef float64, dst, rhs []float64) {
	for _, vars := range p.CellVars {
		d := len(vars)
		switch {
		case d == 0:
			continue
		case d == 1:
			dst[vars[0]] = rhs[vars[0]] / c1
		case d == 2:
			// Block [[c1+λ', −λ'], [−λ', c1+λ']] with λ' = lamCoef: the
			// closed form the paper derives via Sherman–Morrison.
			a := c1 + lamCoef
			det := a*a - lamCoef*lamCoef
			r0, r1 := rhs[vars[0]], rhs[vars[1]]
			dst[vars[0]] = (a*r0 + lamCoef*r1) / det
			dst[vars[1]] = (lamCoef*r0 + a*r1) / det
		default:
			// A cell's variables are consecutive, so its block is a
			// contiguous run of dst.
			blk := dst[vars[0] : vars[0]+d]
			copy(blk, rhs[vars[0]:vars[0]+d])
			solveBlock(blk, 1, c1, lamCoef, lamCoef)
		}
	}
}

// maxSpan is the tallest cell whose block solve runs in stack scratch;
// taller cells allocate it.
const maxSpan = 16

// blockScratch returns buf[:n], zeroed when buf is fresh, or new storage
// when n exceeds maxSpan.
func blockScratch(buf *[maxSpan]float64, n int) []float64 {
	if n > maxSpan {
		return make([]float64, n)
	}
	return buf[:n]
}

// solveBlock solves one cell's block of an H system in place: r holds the
// right-hand side on entry and the solution on return. The block is
// tridiagonal over the cell's subcell chain, with s·(a + b·deg_k) on the
// diagonal, deg_k being subcell k's degree in the chain (1 at the ends, 2
// inside, 0 in a single-row cell), and −off beside it; so s = 1, a = 1,
// b = off = λ gives H's block. Thomas elimination solves it.
func solveBlock(r []float64, s, a, b, off float64) {
	d := len(r)
	var buf [maxSpan]float64
	diag := blockScratch(&buf, d)
	for k := range diag {
		deg := 0.0
		if k > 0 {
			deg++
		}
		if k+1 < d {
			deg++
		}
		diag[k] = s * (a + b*deg)
	}
	for k := 1; k < d; k++ {
		m := -off / diag[k-1]
		diag[k] -= m * -off
		r[k] -= m * r[k-1]
	}
	r[d-1] /= diag[d-1]
	for k := d - 2; k >= 0; k-- {
		r[k] = (r[k] + off*r[k+1]) / diag[k]
	}
}

// hInvDiag returns (H⁻¹)_vv, the diagonal entry of the inverse of v's cell
// block: 1 for a single-row cell, one unit-vector block solve otherwise.
func (p *Problem) hInvDiag(v int) float64 {
	vars := p.CellVars[p.blockOfVar[v]]
	if len(vars) == 1 {
		return 1
	}
	var buf [maxSpan]float64
	r := blockScratch(&buf, len(vars))
	r[v-vars[0]] = 1
	solveBlock(r, 1, 1, p.Lambda, p.Lambda)
	return r[v-vars[0]]
}

// HDiag returns diag(H) = 1 + λ·deg(v), where deg is the variable's degree
// in its cell's subcell chain (0 for single-height cells).
func (p *Problem) HDiag() []float64 {
	out := make([]float64, p.NumVars)
	for i := range out {
		out[i] = 1
	}
	for _, vars := range p.CellVars {
		for k := 0; k+1 < len(vars); k++ {
			out[vars[k]] += p.Lambda
			out[vars[k+1]] += p.Lambda
		}
	}
	return out
}

// SolveHOmegaDiag solves ((1/β)H + diag(H)) dst = rhs blockwise. The block
// matrix is (1/β + 1)·diag(H) on the diagonal and −λ/β on the subcell
// chain off-diagonals. dst and rhs may alias.
func (p *Problem) SolveHOmegaDiag(beta float64, dst, rhs []float64) {
	c1 := 1/beta + 1
	off := p.Lambda / beta
	for _, vars := range p.CellVars {
		if d := len(vars); d > 0 {
			blk := dst[vars[0] : vars[0]+d]
			copy(blk, rhs[vars[0]:vars[0]+d])
			solveBlock(blk, c1, 1, p.Lambda, off)
		}
	}
}

// ApplyHInvSparse applies H⁻¹ to a sparse vector given as (idx, val) pairs
// and emits the nonzero results. Because H is block diagonal per cell, only
// the blocks containing input indices are touched, so the cost is
// O(Σ span(cell)) over the distinct cells referenced, and each variable is
// emitted at most once. Input vectors here are rows of B with ≤ 2 entries,
// so a block already solved is found by scanning the earlier entries.
func (p *Problem) ApplyHInvSparse(idx []int, val []float64, emit func(int, float64)) {
	var buf [maxSpan]float64
next:
	for n, j := range idx {
		cell := p.blockOfVar[j]
		for _, e := range idx[:n] {
			if p.blockOfVar[e] == cell {
				continue next
			}
		}
		vars := p.CellVars[cell]
		r := blockScratch(&buf, len(vars))
		clear(r)
		// Gather every input entry that falls in this block.
		for m := n; m < len(idx); m++ {
			if p.blockOfVar[idx[m]] == cell {
				r[idx[m]-vars[0]] += val[m]
			}
		}
		solveBlock(r, 1, 1, p.Lambda, p.Lambda)
		for k, v := range r {
			if v != 0 {
				emit(vars[k], v)
			}
		}
	}
}

// SchurTridiag computes D = tridiag(B H⁻¹ Bᵀ), the tridiagonal
// approximation of the Schur complement used by the splitting (Eq. 16).
// For designs with only single- and double-row cells this equals the
// paper's Sherman–Morrison closed form; for taller cells it generalizes via
// exact per-block solves.
func (p *Problem) SchurTridiag() *sparse.Tridiag {
	return sparse.GramTridiagApply(p.B, p.ApplyHInvSparse)
}

// AssembleLCPMatrix builds the full saddle-point matrix
// A = [[H, −Bᵀ], [B, 0]] in CSR form for the MMSIM rhs products. Every
// entry's row and column follow from the problem structure, so the CSR
// arrays are filled directly, as B and E are in BuildProblemBounded, instead
// of through the triplet-sorting Builder. A cell's variables are consecutive
// and increasing, so variable row v is column-sorted when written as the
// previous subcell's −λ, the diagonal, the next subcell's −λ, then −Bᵀ by
// constraint (columns n+i ascending). The diagonal adds its λ terms to 1 in
// the order a triplet assembly sums them, which keeps every value
// bit-identical to one (pinned by TestAssembleLCPMatrixMatchesTriplets).
func (p *Problem) AssembleLCPMatrix() *sparse.CSR { return p.assembleLCP(&sparse.CSR{}) }

// assembleLCP is AssembleLCPMatrix writing into a, reusing its storage. It
// returns a.
func (p *Problem) assembleLCP(a *sparse.CSR) *sparse.CSR {
	n, m := p.NumVars, p.NumCons
	// Row lengths: a variable row holds its diagonal, one −λ per chain link
	// and one −Bᵀ entry per constraint on the variable; constraint row i is
	// B's row i.
	rowPtr := recycle.Grow(a.RowPtr, n+m+1)
	rowPtr[0] = 0
	for v := 0; v < n; v++ {
		rowPtr[v+1] = 1
	}
	for _, vars := range p.CellVars {
		for k := 0; k+1 < len(vars); k++ {
			rowPtr[vars[k]+1]++
			rowPtr[vars[k+1]+1]++
		}
	}
	for _, c := range p.Cons {
		rowPtr[c.Left+1]++
		if c.Right >= 0 {
			rowPtr[c.Right+1]++
		}
	}
	for i := 0; i < m; i++ {
		rowPtr[n+i+1] = p.B.RowPtr[i+1] - p.B.RowPtr[i]
	}
	for r := 0; r < n+m; r++ {
		rowPtr[r+1] += rowPtr[r]
	}
	col := recycle.Grow(a.ColIdx, rowPtr[n+m])
	val := recycle.Grow(a.Val, rowPtr[n+m])

	// H = I + λEᵀE, cell by cell. rowPtr[v] then serves as variable row v's
	// fill cursor, which the −Bᵀ entries advance to the row's end — the next
	// row's start — so shifting the first n+1 pointers right by one restores
	// the starts.
	for _, vars := range p.CellVars {
		for k, v := range vars {
			at := rowPtr[v]
			diag := 1.0
			if k > 0 {
				col[at], val[at] = vars[k-1], -p.Lambda
				at++
				diag += p.Lambda
			}
			diagAt := at
			at++
			if k+1 < len(vars) {
				col[at], val[at] = vars[k+1], -p.Lambda
				at++
				diag += p.Lambda
			}
			col[diagAt], val[diagAt] = v, diag
			rowPtr[v] = at
		}
	}
	// −Bᵀ: B has −1 at Left and +1 at Right.
	for i, c := range p.Cons {
		col[rowPtr[c.Left]], val[rowPtr[c.Left]] = n+i, 1
		rowPtr[c.Left]++
		if c.Right >= 0 {
			col[rowPtr[c.Right]], val[rowPtr[c.Right]] = n+i, -1
			rowPtr[c.Right]++
		}
	}
	copy(rowPtr[1:n+1], rowPtr[:n])
	rowPtr[0] = 0
	// B, whose rows are already column-sorted.
	copy(col[rowPtr[n]:], p.B.ColIdx)
	copy(val[rowPtr[n]:], p.B.Val)
	a.Rows, a.Cols, a.RowPtr, a.ColIdx, a.Val = n+m, n+m, rowPtr, col, val
	return a
}

// LCPVector builds q = [p; −b].
func (p *Problem) LCPVector() []float64 { return p.lcpVector(nil) }

// lcpVector is LCPVector writing into q's storage.
func (p *Problem) lcpVector(q []float64) []float64 {
	q = recycle.Grow(q, p.NumVars+p.NumCons)
	copy(q, p.P)
	for i, bv := range p.Bv {
		q[p.NumVars+i] = -bv
	}
	return q
}
