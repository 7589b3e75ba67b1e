package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"mclg/internal/design"
	"mclg/internal/gen"
	"mclg/internal/sparse"
)

// figure2Design reproduces the placement of Figure 2: five single-row-height
// cells, c2 and c4 aligned to row 0, c1, c3, c5 to row 1, ordered by global
// x within each row.
func figure2Design() (*design.Design, []*design.Cell) {
	d := design.NewDesign(design.Config{NumRows: 2, NumSites: 100, RowHeight: 10, SiteW: 1})
	widths := []float64{8, 6, 7, 5, 9}
	rows := []int{1, 0, 1, 0, 1}
	gx := []float64{5, 10, 30, 40, 60}
	var cells []*design.Cell
	for i := 0; i < 5; i++ {
		c := d.AddCell("c", widths[i], 10, design.VSS)
		c.GX = gx[i]
		c.GY = d.RowY(rows[i])
		c.X, c.Y = c.GX, c.GY
		cells = append(cells, c)
	}
	return d, cells
}

func TestFigure2ConstraintMatrix(t *testing.T) {
	d, cells := figure2Design()
	p, err := BuildProblem(d, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumVars != 5 {
		t.Fatalf("NumVars = %d, want 5", p.NumVars)
	}
	if p.NumCons != 3 {
		t.Fatalf("NumCons = %d, want 3", p.NumCons)
	}
	// Constraints are emitted row-major: row 0 first (c2 -> c4), then row 1
	// (c1 -> c3, c3 -> c5). This is the B of Figure 2 up to the paper's
	// row ordering.
	bDense := p.B.Dense()
	want := [][]float64{
		{0, -1, 0, 1, 0}, // x4 - x2 >= w2
		{-1, 0, 1, 0, 0}, // x3 - x1 >= w1
		{0, 0, -1, 0, 1}, // x5 - x3 >= w3
	}
	for i := range want {
		for j := range want[i] {
			if bDense[i][j] != want[i][j] {
				t.Errorf("B[%d][%d] = %g, want %g", i, j, bDense[i][j], want[i][j])
			}
		}
	}
	wantB := []float64{cells[1].W, cells[0].W, cells[2].W}
	for i := range wantB {
		if p.Bv[i] != wantB[i] {
			t.Errorf("b[%d] = %g, want %g", i, p.Bv[i], wantB[i])
		}
	}
	// p = -x'.
	for i, c := range cells {
		if p.P[i] != -c.GX {
			t.Errorf("p[%d] = %g, want %g", i, p.P[i], -c.GX)
		}
	}
	if p.E.Rows != 0 {
		t.Errorf("E should have no rows for single-height cells, got %d", p.E.Rows)
	}
}

// figure3Design reproduces Figure 3: c1 (double-height, rows 0-1), c2
// (single, row 0, between c1 and c3), c3 (double-height, rows 0-1).
func figure3Design() (*design.Design, []*design.Cell) {
	d := design.NewDesign(design.Config{NumRows: 2, NumSites: 100, RowHeight: 10, SiteW: 1})
	c1 := d.AddCell("c1", 8, 20, design.VSS)
	c2 := d.AddCell("c2", 6, 10, design.VSS)
	c3 := d.AddCell("c3", 7, 20, design.VSS)
	for i, c := range []*design.Cell{c1, c2, c3} {
		c.GX = float64(10 + 20*i)
		c.GY = 0
		c.X, c.Y = c.GX, c.GY
	}
	return d, []*design.Cell{c1, c2, c3}
}

func TestFigure3Matrices(t *testing.T) {
	d, cells := figure3Design()
	p, err := BuildProblem(d, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// Variables: c1 -> 0 (bottom), 1 (top); c2 -> 2; c3 -> 3 (bottom), 4 (top).
	if p.NumVars != 5 {
		t.Fatalf("NumVars = %d, want 5", p.NumVars)
	}
	if got := len(p.CellVars[0]); got != 2 {
		t.Fatalf("c1 has %d vars, want 2", got)
	}
	if got := len(p.CellVars[1]); got != 1 {
		t.Fatalf("c2 has %d vars, want 1", got)
	}
	// Constraints: row 0: c1->c2, c2->c3; row 1: c1->c3. Three rows, full
	// row rank (the paper's point: splitting fixes the rank deficiency of
	// the unsplit formulation).
	if p.NumCons != 3 {
		t.Fatalf("NumCons = %d, want 3", p.NumCons)
	}
	bDense := p.B.Dense()
	wantB := [][]float64{
		{-1, 0, 1, 0, 0}, // x_c2 - x_c1(bottom) >= w1
		{0, 0, -1, 1, 0}, // x_c3(bottom) - x_c2 >= w2
		{0, -1, 0, 0, 1}, // x_c3(top) - x_c1(top) >= w1
	}
	for i := range wantB {
		for j := range wantB[i] {
			if bDense[i][j] != wantB[i][j] {
				t.Errorf("B[%d][%d] = %g, want %g", i, j, bDense[i][j], wantB[i][j])
			}
		}
	}
	if p.Bv[0] != cells[0].W || p.Bv[1] != cells[1].W || p.Bv[2] != cells[0].W {
		t.Errorf("b = %v, want [%g %g %g]", p.Bv, cells[0].W, cells[1].W, cells[0].W)
	}
	// E ties the two subcells of c1 and of c3.
	if p.E.Rows != 2 {
		t.Fatalf("E has %d rows, want 2", p.E.Rows)
	}
	eDense := p.E.Dense()
	wantE := [][]float64{
		{-1, 1, 0, 0, 0},
		{0, 0, 0, -1, 1},
	}
	for i := range wantE {
		for j := range wantE[i] {
			if eDense[i][j] != wantE[i][j] {
				t.Errorf("E[%d][%d] = %g, want %g", i, j, eDense[i][j], wantE[i][j])
			}
		}
	}
	// p duplicates targets for subcells: [-x1', -x1', -x2', -x3', -x3'].
	wantP := []float64{-10, -10, -30, -50, -50}
	for i := range wantP {
		if p.P[i] != wantP[i] {
			t.Errorf("p[%d] = %g, want %g", i, p.P[i], wantP[i])
		}
	}
}

func TestBFullRowRank(t *testing.T) {
	// Proposition 2: B has full row rank. Verify on the Figure 3 example by
	// Gaussian elimination over the dense expansion.
	d, _ := figure3Design()
	p, err := BuildProblem(d, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if rank := matRank(p.B.Dense()); rank != p.NumCons {
		t.Errorf("rank(B) = %d, want %d", rank, p.NumCons)
	}
}

// matRank computes the rank of a small dense matrix by row elimination.
func matRank(a [][]float64) int {
	if len(a) == 0 {
		return 0
	}
	rows, cols := len(a), len(a[0])
	m := make([][]float64, rows)
	for i := range a {
		m[i] = append([]float64(nil), a[i]...)
	}
	rank := 0
	for c := 0; c < cols && rank < rows; c++ {
		// Find pivot.
		p := -1
		best := 1e-9
		for r := rank; r < rows; r++ {
			if v := math.Abs(m[r][c]); v > best {
				best, p = v, r
			}
		}
		if p < 0 {
			continue
		}
		m[rank], m[p] = m[p], m[rank]
		for r := 0; r < rows; r++ {
			if r == rank || m[r][c] == 0 {
				continue
			}
			f := m[r][c] / m[rank][c]
			for j := c; j < cols; j++ {
				m[r][j] -= f * m[rank][j]
			}
		}
		rank++
	}
	return rank
}

func TestApplyHMatchesAssembled(t *testing.T) {
	d, _ := figure3Design()
	p, err := BuildProblem(d, 7)
	if err != nil {
		t.Fatal(err)
	}
	a := p.AssembleLCPMatrix()
	src := []float64{1, -2, 3, 0.5, 4}
	dst := make([]float64, 5)
	p.ApplyH(dst, src)
	// The top-left n x n block of A is H.
	full := make([]float64, 5+p.NumCons)
	copy(full, src)
	out := make([]float64, 5+p.NumCons)
	a.MulVec(out, full)
	// out[:5] = H src − Bᵀ·0 = H src.
	for i := 0; i < 5; i++ {
		if math.Abs(dst[i]-out[i]) > 1e-12 {
			t.Errorf("ApplyH[%d] = %g, assembled %g", i, dst[i], out[i])
		}
	}
}

func TestSolveHShiftedInvertsApply(t *testing.T) {
	d, _ := figure3Design()
	lambda := 13.0
	p, err := BuildProblem(d, lambda)
	if err != nil {
		t.Fatal(err)
	}
	rhs := []float64{2, -1, 0.5, 3, -2}
	x := make([]float64, 5)
	// Solve H x = rhs, then verify H x == rhs via ApplyH.
	p.SolveHShifted(1, lambda, x, rhs)
	chk := make([]float64, 5)
	p.ApplyH(chk, x)
	for i := range rhs {
		if math.Abs(chk[i]-rhs[i]) > 1e-9 {
			t.Errorf("H·(H⁻¹rhs)[%d] = %g, want %g", i, chk[i], rhs[i])
		}
	}
}

func TestSolveHShiftedTripleHeight(t *testing.T) {
	// A triple-row cell exercises the general Thomas path (d = 3).
	d := design.NewDesign(design.Config{NumRows: 4, NumSites: 50, RowHeight: 10, SiteW: 1})
	c := d.AddCell("t", 5, 30, design.VSS)
	c.GX, c.GY = 10, 0
	c.X, c.Y = 10, 0
	lambda := 9.0
	p, err := BuildProblem(d, lambda)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumVars != 3 {
		t.Fatalf("NumVars = %d, want 3", p.NumVars)
	}
	rhs := []float64{1, 2, 3}
	x := make([]float64, 3)
	p.SolveHShifted(1, lambda, x, rhs)
	chk := make([]float64, 3)
	p.ApplyH(chk, x)
	for i := range rhs {
		if math.Abs(chk[i]-rhs[i]) > 1e-9 {
			t.Errorf("triple-height solve: H·x[%d] = %g, want %g", i, chk[i], rhs[i])
		}
	}
}

// TestBlockSolvesPastStackScratch runs every H block solve on a cell taller
// than the block solve's stack scratch: SolveHShifted and SolveHOmegaDiag
// must invert their systems, and ApplyHInvSparse and hInvDiag must agree
// with SolveHShifted on a unit vector.
func TestBlockSolvesPastStackScratch(t *testing.T) {
	const span = maxSpan + 4
	d := design.NewDesign(design.Config{NumRows: span + 2, NumSites: 50, RowHeight: 10, SiteW: 1})
	c := d.AddCell("tall", 5, span*10, design.VSS)
	c.GX, c.GY = 10, 0
	c.X, c.Y = 10, 0
	lambda := 9.0
	p, err := BuildProblem(d, lambda)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumVars != span {
		t.Fatalf("NumVars = %d, want %d", p.NumVars, span)
	}
	rhs := make([]float64, span)
	for i := range rhs {
		rhs[i] = float64(i%5) - 2
	}
	x := make([]float64, span)
	p.SolveHShifted(1, lambda, x, rhs)
	hx := make([]float64, span)
	p.ApplyH(hx, x)
	for i := range rhs {
		if math.Abs(hx[i]-rhs[i]) > 1e-9 {
			t.Fatalf("SolveHShifted: H·x[%d] = %g, want %g", i, hx[i], rhs[i])
		}
	}
	const beta = 0.5
	p.SolveHOmegaDiag(beta, x, rhs)
	p.ApplyH(hx, x)
	hd := p.HDiag()
	for i := range rhs {
		if got := hx[i]/beta + hd[i]*x[i]; math.Abs(got-rhs[i]) > 1e-9 {
			t.Fatalf("SolveHOmegaDiag: row %d = %g, want %g", i, got, rhs[i])
		}
	}
	const v = span / 2
	unit := make([]float64, span)
	unit[v] = 1
	p.SolveHShifted(1, lambda, x, unit)
	got := make([]float64, span)
	p.ApplyHInvSparse([]int{v}, []float64{1}, func(j int, hv float64) { got[j] = hv })
	for i := range x {
		if math.Abs(got[i]-x[i]) > 1e-12 {
			t.Fatalf("ApplyHInvSparse[%d] = %g, SolveHShifted %g", i, got[i], x[i])
		}
	}
	if h := p.hInvDiag(v); math.Abs(h-x[v]) > 1e-12 {
		t.Fatalf("hInvDiag = %g, SolveHShifted %g", h, x[v])
	}

	// The whole flow, whose Schur build reaches ApplyHInvSparse once the
	// tall cell has neighbors.
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 60; i++ {
		s := d.AddCell("s", 3, 10, design.VSS)
		s.GX, s.GY = rng.Float64()*45, rng.Float64()*float64(span+1)*10
		s.X, s.Y = s.GX, s.GY
	}
	if _, err := New(Options{}).Legalize(d); err != nil {
		t.Fatal(err)
	}
	if rep := design.CheckLegal(d); !rep.Legal() {
		t.Fatalf("illegal: %v", rep)
	}
}

func TestApplyHInvSparseMatchesDenseSolve(t *testing.T) {
	d, _ := figure3Design()
	lambda := 1000.0
	p, err := BuildProblem(d, lambda)
	if err != nil {
		t.Fatal(err)
	}
	// Sparse input: a row of B, entries at vars 1 and 4.
	idx := []int{1, 4}
	val := []float64{-1, 1}
	got := make([]float64, 5)
	p.ApplyHInvSparse(idx, val, func(j int, v float64) { got[j] += v })
	// Dense reference.
	rhs := make([]float64, 5)
	rhs[1], rhs[4] = -1, 1
	want := make([]float64, 5)
	p.SolveHShifted(1, lambda, want, rhs)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("HInvSparse[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestSchurTridiagClosedFormDoubleHeight(t *testing.T) {
	// For designs with only 1- and 2-row cells the paper's Sherman–Morrison
	// closed form applies: H⁻¹ = I − λ/(2λ+1)·EᵀE, so
	// D = tridiag(BBᵀ − λ/(2λ+1)·(BEᵀ)(BEᵀ)ᵀ). Check our general-purpose
	// computation against that formula on Figure 3.
	d, _ := figure3Design()
	lambda := 1000.0
	p, err := BuildProblem(d, lambda)
	if err != nil {
		t.Fatal(err)
	}
	got := p.SchurTridiag()
	// Closed form via dense arithmetic.
	bD := p.B.Dense()
	eD := p.E.Dense()
	n := p.NumVars
	hinv := make([][]float64, n)
	for i := range hinv {
		hinv[i] = make([]float64, n)
		hinv[i][i] = 1
	}
	coef := lambda / (2*lambda + 1)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			ete := 0.0
			for k := range eD {
				ete += eD[k][i] * eD[k][j]
			}
			hinv[i][j] -= coef * ete
		}
	}
	gram := func(i, j int) float64 {
		s := 0.0
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				s += bD[i][a] * hinv[a][b] * bD[j][b]
			}
		}
		return s
	}
	for i := 0; i < p.NumCons; i++ {
		if math.Abs(got.Diag[i]-gram(i, i)) > 1e-9 {
			t.Errorf("D diag[%d] = %g, closed form %g", i, got.Diag[i], gram(i, i))
		}
		if i > 0 && math.Abs(got.Sub[i]-gram(i, i-1)) > 1e-9 {
			t.Errorf("D sub[%d] = %g, closed form %g", i, got.Sub[i], gram(i, i-1))
		}
	}
}

// applyHInvSparseMap is the ApplyHInvSparse that tracked solved blocks in a
// map and gathered each block into a fresh slice, kept as the bit-for-bit
// reference.
func applyHInvSparseMap(p *Problem, idx []int, val []float64, emit func(int, float64)) {
	done := make(map[int]bool, 2)
	for n, j := range idx {
		cell := p.blockOfVar[j]
		if done[cell] {
			continue
		}
		done[cell] = true
		vars := p.CellVars[cell]
		rhs := make([]float64, len(vars))
		for m := n; m < len(idx); m++ {
			if p.blockOfVar[idx[m]] == cell {
				rhs[idx[m]-vars[0]] += val[m]
			}
		}
		solveBlock(rhs, 1, 1, p.Lambda, p.Lambda)
		for k, v := range rhs {
			if v != 0 {
				emit(vars[k], v)
			}
		}
	}
}

// TestSchurTridiagMatchesMapReference pins ApplyHInvSparse and SchurTridiag
// to the map-based versions bit for bit on designs with single-, double- and
// triple-row cells, on B's rows and on random sparse vectors that put
// several entries in one block, and pins their allocations: none per
// ApplyHInvSparse call, and a constant per SchurTridiag however large B is.
func TestSchurTridiagMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var schurAllocs []float64
	for _, cells := range []int{60, 600} {
		d, err := gen.Generate(gen.Spec{
			Name: "triple", SingleCells: cells, DoubleCells: cells / 8, TripleCells: cells / 10,
			Density: 0.55, Seed: int64(cells),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := AssignRows(d); err != nil {
			t.Fatal(err)
		}
		p, err := BuildProblem(d, 1000)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < p.B.Rows; i++ {
			lo, hi := p.B.RowPtr[i], p.B.RowPtr[i+1]
			if got, ref := hInvRow(p, p.B.ColIdx[lo:hi], p.B.Val[lo:hi]); got != ref {
				t.Fatalf("%d cells, B row %d: H⁻¹bᵢ = %s, reference %s", cells, i, got, ref)
			}
		}
		for trial := 0; trial < 200; trial++ {
			idx := make([]int, 1+rng.Intn(4))
			val := make([]float64, len(idx))
			for k := range idx {
				idx[k] = rng.Intn(p.NumVars)
				if k > 0 && rng.Intn(2) == 0 {
					// Another subcell of an earlier entry's cell.
					vars := p.CellVars[p.blockOfVar[idx[rng.Intn(k)]]]
					idx[k] = vars[rng.Intn(len(vars))]
				}
				val[k] = rng.NormFloat64()
			}
			if got, ref := hInvRow(p, idx, val); got != ref {
				t.Fatalf("%d cells, vector %v: H⁻¹x = %s, reference %s", cells, idx, got, ref)
			}
		}
		ref := sparse.GramTridiagApply(p.B, func(idx []int, val []float64, emit func(int, float64)) {
			applyHInvSparseMap(p, idx, val, emit)
		})
		got := p.SchurTridiag()
		for i := range got.Diag {
			if math.Float64bits(got.Diag[i]) != math.Float64bits(ref.Diag[i]) ||
				math.Float64bits(got.Sub[i]) != math.Float64bits(ref.Sub[i]) ||
				math.Float64bits(got.Sup[i]) != math.Float64bits(ref.Sup[i]) {
				t.Fatalf("%d cells, row %d: SchurTridiag differs from the map reference", cells, i)
			}
		}

		lo, hi := p.B.RowPtr[0], p.B.RowPtr[1]
		idx, val := p.B.ColIdx[lo:hi], p.B.Val[lo:hi]
		sink := 0.0
		emit := func(_ int, v float64) { sink += v }
		if a := testing.AllocsPerRun(20, func() { p.ApplyHInvSparse(idx, val, emit) }); a != 0 {
			t.Errorf("%d cells: ApplyHInvSparse allocates %.0f times per call", cells, a)
		}
		schurAllocs = append(schurAllocs, testing.AllocsPerRun(5, func() { p.SchurTridiag() }))
	}
	if schurAllocs[1] != schurAllocs[0] || schurAllocs[0] > 10 {
		t.Errorf("SchurTridiag allocations %v per call: want one constant ≤ 10 at both sizes", schurAllocs)
	}
}

// hInvRow renders H⁻¹x as computed by ApplyHInvSparse and by the map
// reference, each as its emitted (variable, value bits) sequence.
func hInvRow(p *Problem, idx []int, val []float64) (got, ref string) {
	render := func(apply func(emit func(int, float64))) string {
		var sb strings.Builder
		apply(func(j int, v float64) { fmt.Fprintf(&sb, "%d:%x ", j, math.Float64bits(v)) })
		return sb.String()
	}
	got = render(func(emit func(int, float64)) { p.ApplyHInvSparse(idx, val, emit) })
	ref = render(func(emit func(int, float64)) { applyHInvSparseMap(p, idx, val, emit) })
	return got, ref
}
