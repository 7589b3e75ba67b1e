package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"mclg/internal/dense"
	"mclg/internal/design"
	"mclg/internal/gen"
	"mclg/internal/qp"
)

// randomDesign builds a small random mixed-height design with the given
// approximate density and double-height fraction, cells at noisy
// global-placement positions.
func randomDesign(rng *rand.Rand, numRows, numSites, numCells int, doubleFrac float64) *design.Design {
	d := design.NewDesign(design.Config{
		NumRows: numRows, NumSites: numSites, RowHeight: 10, SiteW: 1,
	})
	for i := 0; i < numCells; i++ {
		w := float64(2 + rng.Intn(6))
		h := d.RowHeight
		rail := design.VSS
		if rng.Float64() < doubleFrac {
			h = 2 * d.RowHeight
			if rng.Intn(2) == 0 {
				rail = design.VDD
			}
		}
		c := d.AddCell("c", w, h, rail)
		c.GX = rng.Float64() * (float64(numSites) - w)
		c.GY = rng.Float64() * (float64(numRows)*d.RowHeight - h)
		c.X, c.Y = c.GX, c.GY
	}
	return d
}

func TestAssignRowsPowerRail(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	d := randomDesign(rng, 10, 200, 60, 0.3)
	if err := AssignRows(d); err != nil {
		t.Fatal(err)
	}
	for _, c := range d.Cells {
		row := d.RowAt(c.Y + 1)
		if row < 0 || row+c.RowSpan > len(d.Rows) {
			t.Fatalf("cell %d assigned outside core", c.ID)
		}
		if c.EvenSpan() && d.Rows[row].Rail != c.BottomRail {
			t.Errorf("cell %d: even span on mismatched rail", c.ID)
		}
		if !c.EvenSpan() {
			wantFlip := d.Rows[row].Rail != c.BottomRail
			if c.Flipped != wantFlip {
				t.Errorf("cell %d: flip = %v, want %v", c.ID, c.Flipped, wantFlip)
			}
		}
	}
}

func TestAssignRowsNoRowError(t *testing.T) {
	d := design.NewDesign(design.Config{NumRows: 1, NumSites: 50, RowHeight: 10, SiteW: 1})
	c := d.AddCell("too-tall", 5, 10, design.VSS)
	c.H = 30 // bypass AddCell validation to force the error path
	c.RowSpan = 3
	if err := AssignRows(d); err == nil {
		t.Error("expected ErrNoRow")
	} else if _, ok := err.(ErrNoRow); !ok {
		t.Errorf("err = %T, want ErrNoRow", err)
	}
}

// TestMMSIMMatchesActiveSetQP is the central optimality validation: on
// random small instances, the structured MMSIM solution of LCP (15) must
// match the active-set solution of QP (13) — Theorem 1 + Theorem 2.
func TestMMSIMMatchesActiveSetQP(t *testing.T) {
	rng := rand.New(rand.NewSource(307))
	for trial := 0; trial < 20; trial++ {
		d := randomDesign(rng, 4, 60, 10+rng.Intn(10), 0.3)
		if err := AssignRows(d); err != nil {
			t.Fatal(err)
		}
		lambda := 100.0 // keep the QP reference well conditioned
		p, err := BuildProblem(d, lambda)
		if err != nil {
			t.Fatal(err)
		}
		if p.NumCons == 0 {
			continue
		}
		x, st, err := SolveMMSIM(p, Options{
			Lambda: lambda, Beta: 0.5, Theta: 0.5, Gamma: 1,
			Eps: 1e-10, MaxIter: 200000, AutoTheta: true,
		})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !st.Converged {
			t.Fatalf("trial %d: MMSIM did not converge (θ=%g bound=%g)", trial, st.ThetaUsed, st.ThetaBound)
		}

		// Reference: active-set on QP (13) with H = I + λEᵀE,
		// constraints Bx >= b and x >= 0.
		n := p.NumVars
		h := dense.New(n, n)
		for i := 0; i < n; i++ {
			h.Set(i, i, 1)
		}
		eD := p.E.Dense()
		for _, row := range eD {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					h.Set(i, j, h.At(i, j)+lambda*row[i]*row[j])
				}
			}
		}
		m := p.NumCons
		g := dense.New(m+n, n)
		hv := make([]float64, m+n)
		bD := p.B.Dense()
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				g.Set(i, j, bD[i][j])
			}
			hv[i] = p.Bv[i]
		}
		for j := 0; j < n; j++ {
			g.Set(m+j, j, 1)
		}
		prob := &qp.Problem{H: h, P: append([]float64(nil), p.P...), G: g, Hv: hv}
		x0 := feasibleStart(p)
		ref, err := qp.Solve(prob, x0)
		if err != nil {
			t.Fatalf("trial %d: QP reference: %v", trial, err)
		}
		for i := 0; i < n; i++ {
			if math.Abs(x[i]-ref[i]) > 1e-3 {
				t.Errorf("trial %d: x[%d] MMSIM %.6f vs QP %.6f", trial, i, x[i], ref[i])
			}
		}
	}
}

// feasibleStart spreads subcells in each row far enough apart to satisfy
// every ordering constraint (and equals across subcells of a cell by
// construction of a common offset).
func feasibleStart(p *Problem) []float64 {
	x := make([]float64, p.NumVars)
	// Assign each *cell* a slot index by global target; all subcells of a
	// cell share the slot so Ex = 0 holds exactly and Bx >= b holds because
	// slots are spaced by the maximum width.
	maxW := 0.0
	for _, s := range p.Subcells {
		if s.Width > maxW {
			maxW = s.Width
		}
	}
	type ct struct {
		cell   int
		target float64
	}
	var cells []ct
	for id, vars := range p.CellVars {
		if len(vars) > 0 {
			cells = append(cells, ct{id, p.Subcells[vars[0]].Target})
		}
	}
	// Order by target then ID — consistent with constraint generation.
	for i := 1; i < len(cells); i++ {
		for j := i; j > 0; j-- {
			a, b := cells[j-1], cells[j]
			if a.target > b.target || (a.target == b.target && a.cell > b.cell) {
				cells[j-1], cells[j] = b, a
			} else {
				break
			}
		}
	}
	for slot, c := range cells {
		pos := float64(slot) * (maxW + 1)
		for _, v := range p.CellVars[c.cell] {
			x[v] = pos
		}
	}
	return x
}

func TestRestoreAveragesSubcells(t *testing.T) {
	d, cells := figure3Design()
	p, err := BuildProblem(d, 1000)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{10, 12, 30, 50, 50}
	spread := Restore(p, x)
	if spread != 2 {
		t.Errorf("spread = %g, want 2", spread)
	}
	if cells[0].X != 11 {
		t.Errorf("c1.X = %g, want 11 (mean of 10, 12)", cells[0].X)
	}
	if cells[1].X != 30 || cells[2].X != 50 {
		t.Errorf("c2/c3 position wrong: %g/%g", cells[1].X, cells[2].X)
	}
}

func TestLegalizeEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(311))
	for trial := 0; trial < 8; trial++ {
		d := randomDesign(rng, 8, 120, 40, 0.2)
		if _, err := New(Options{Eps: 1e-6}).Legalize(d); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		rep := design.CheckLegal(d)
		if !rep.Legal() {
			t.Fatalf("trial %d: illegal result: %v", trial, rep)
		}
	}
}

func TestLegalizePreservesRowOrdering(t *testing.T) {
	// The ordering of cells within a row (by global x) must survive the
	// whole flow when no Tetris repair reshuffles rows — the property the
	// paper credits for its quality (Figure 5(b)).
	rng := rand.New(rand.NewSource(313))
	d := randomDesign(rng, 8, 300, 40, 0.2) // low density: no repairs expected
	leg := New(Options{Eps: 1e-8})
	stats, err := leg.Legalize(d)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Illegal > 0 {
		t.Skipf("repair kicked in (%d illegal); ordering not guaranteed", stats.Illegal)
	}
	// Per row: sort by global X, check legal X is nondecreasing.
	byRow := map[int][]*design.Cell{}
	for _, c := range d.Cells {
		row := d.RowAt(c.Y + 1)
		for k := 0; k < c.RowSpan; k++ {
			byRow[row+k] = append(byRow[row+k], c)
		}
	}
	for row, cells := range byRow {
		for i := range cells {
			for j := i + 1; j < len(cells); j++ {
				a, b := cells[i], cells[j]
				if a.GX < b.GX && a.X > b.X+1e-9 {
					t.Errorf("row %d: cells %d and %d swapped order (GX %g<%g but X %g>%g)",
						row, a.ID, b.ID, a.GX, b.GX, a.X, b.X)
				}
			}
		}
	}
}

func TestLegalizeHighDensityStillLegal(t *testing.T) {
	// Dense instance: Tetris repair must still produce a fully legal result.
	rng := rand.New(rand.NewSource(317))
	d := design.NewDesign(design.Config{NumRows: 6, NumSites: 80, RowHeight: 10, SiteW: 1})
	// Fill ~85% of the area.
	area := 0.0
	target := 0.85 * d.Core.Area()
	for area < target {
		w := float64(2 + rng.Intn(5))
		h := d.RowHeight
		rail := design.VSS
		if rng.Float64() < 0.15 {
			h *= 2
			if rng.Intn(2) == 0 {
				rail = design.VDD
			}
		}
		c := d.AddCell("c", w, h, rail)
		c.GX = rng.Float64() * (80 - w)
		c.GY = rng.Float64() * (60 - h)
		c.X, c.Y = c.GX, c.GY
		area += c.Area()
	}
	if _, err := New(Options{}).Legalize(d); err != nil {
		t.Fatal(err)
	}
	rep := design.CheckLegal(d)
	if !rep.Legal() {
		t.Fatalf("illegal result: %v", rep)
	}
}

func TestThetaBoundPositive(t *testing.T) {
	rng := rand.New(rand.NewSource(331))
	d := randomDesign(rng, 6, 100, 30, 0.2)
	if err := AssignRows(d); err != nil {
		t.Fatal(err)
	}
	p, err := BuildProblem(d, 1000)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := NewStructuredSplitting(p, 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := sp.ThetaBound()
	if err != nil {
		t.Fatal(err)
	}
	if bound <= 0 {
		t.Errorf("theta bound = %g, want > 0", bound)
	}
	// The paper's θ* = 0.5 should satisfy the bound on typical instances.
	if bound < 0.5 {
		t.Logf("note: bound %g below paper default 0.5 on this instance", bound)
	}
}

func TestNewFillsDefaults(t *testing.T) {
	l := New(Options{})
	def := DefaultOptions()
	if l.Opts.Lambda != def.Lambda || l.Opts.Beta != def.Beta ||
		l.Opts.Theta != def.Theta || l.Opts.Eps != def.Eps {
		t.Errorf("defaults not applied: %+v", l.Opts)
	}
	l2 := New(Options{Lambda: 5})
	if l2.Opts.Lambda != 5 {
		t.Error("explicit option overwritten")
	}
}

func TestLegalizeEmptyDesign(t *testing.T) {
	d := design.NewDesign(design.Config{NumRows: 2, NumSites: 10, RowHeight: 10, SiteW: 1})
	stats, err := New(Options{}).Legalize(d)
	if err != nil {
		t.Fatal(err)
	}
	if stats.NumVars != 0 || stats.Illegal != 0 {
		t.Errorf("empty design stats: %+v", stats)
	}
}

// TestLegalizeWithFixedMacros: the flow must produce a legal placement
// around immovable blockages (the QP ignores them; Tetris repairs).
func TestLegalizeWithFixedMacros(t *testing.T) {
	d, err := gen.Generate(gen.Spec{
		Name: "m", SingleCells: 250, DoubleCells: 25, FixedMacros: 5,
		Density: 0.55, Seed: 67,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Options{}).Legalize(d); err != nil {
		t.Fatal(err)
	}
	rep := design.CheckLegal(d)
	if !rep.Legal() {
		t.Fatalf("illegal: %v", rep)
	}
	// No movable cell may overlap a macro.
	for _, m := range d.Cells {
		if !m.Fixed {
			continue
		}
		for _, c := range d.Cells {
			if !c.Fixed && c.Bounds().Overlaps(m.Bounds()) {
				t.Errorf("cell %d overlaps macro %d", c.ID, m.ID)
			}
		}
	}
	// The macros themselves must not have moved.
	for _, m := range d.Cells {
		if m.Fixed && (m.X != m.GX || m.Y != m.GY) {
			t.Errorf("macro %d moved", m.ID)
		}
	}
}

// TestSkipTetrisStopsAfterRestore pins what SkipTetris returns, which the
// experiments and the audit's metamorphic harness read as the relaxed
// optimum: positions bit-equal to running the stages by hand — AssignRows
// (and BalanceRows under BoundRight), BuildProblemBounded,
// SolveMMSIMContext and Restore — with no Tetris repairs counted, on the
// finish tests' cases (the regress trio, triple-height and BoundRight).
func TestSkipTetrisStopsAfterRestore(t *testing.T) {
	ctx := context.Background()
	for _, tc := range finishCases(t) {
		d, err := gen.Generate(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		opts := New(Options{BoundRight: tc.bound}).Opts
		got := d.Clone()
		skip := opts
		skip.SkipTetris = true
		st, err := New(skip).LegalizeContext(ctx, got)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if st.Illegal != 0 {
			t.Errorf("%s: SkipTetris counted %d illegal cells", tc.name, st.Illegal)
		}

		want := d.Clone()
		if err := AssignRows(want); err != nil {
			t.Fatal(err)
		}
		if opts.BoundRight {
			if err := BalanceRows(want); err != nil {
				t.Fatal(err)
			}
		}
		p, err := BuildProblemBounded(want, opts.Lambda, opts.BoundRight)
		if err != nil {
			t.Fatal(err)
		}
		x, sst, err := SolveMMSIMContext(ctx, p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if mm := Restore(p, x); mm != st.MaxSubcellMismatch || sst.Iterations != st.Iterations {
			t.Errorf("%s: mismatch %g and %d iterations, by hand %g and %d",
				tc.name, st.MaxSubcellMismatch, st.Iterations, mm, sst.Iterations)
		}
		for i, c := range got.Cells {
			w := want.Cells[i]
			if math.Float64bits(c.X) != math.Float64bits(w.X) || math.Float64bits(c.Y) != math.Float64bits(w.Y) || c.Flipped != w.Flipped {
				t.Fatalf("%s: cell %d at (%v, %v, flip %v), by hand (%v, %v, flip %v)",
					tc.name, i, c.X, c.Y, c.Flipped, w.X, w.Y, w.Flipped)
			}
		}
	}
}
