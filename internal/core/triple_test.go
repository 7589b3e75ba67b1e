package core

import (
	"testing"

	"mclg/internal/design"
	"mclg/internal/gen"
)

// TestLegalizeTripleHeightEndToEnd runs the full flow on a design with
// single-, double-, and triple-row-height cells. Triples exercise the
// general per-cell Thomas block solve (the paper's Sherman–Morrison
// shortcut only covers doubles) and the odd-span flipping rule.
func TestLegalizeTripleHeightEndToEnd(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		d, err := gen.Generate(gen.Spec{
			Name: "triple", SingleCells: 200, DoubleCells: 25, TripleCells: 20,
			Density: 0.55, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		stats, err := New(Options{}).Legalize(d)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !stats.Converged {
			t.Errorf("seed %d: MMSIM did not converge (%d iters)", seed, stats.Iterations)
		}
		rep := design.CheckLegal(d)
		if !rep.Legal() {
			t.Fatalf("seed %d: %v", seed, rep)
		}
		// Triples must sit on rows with correctly derived flips.
		for _, c := range d.Cells {
			if c.RowSpan != 3 {
				continue
			}
			row := d.RowAt(c.Y + 1)
			wantFlip := d.Rows[row].Rail != c.BottomRail
			if c.Flipped != wantFlip {
				t.Errorf("seed %d: triple %d flip = %v, want %v", seed, c.ID, c.Flipped, wantFlip)
			}
		}
	}
}

// TestTripleSubcellChain checks the E-matrix chaining for a span-3 cell:
// two equality rows linking consecutive subcells.
func TestTripleSubcellChain(t *testing.T) {
	d := design.NewDesign(design.Config{NumRows: 4, NumSites: 40, RowHeight: 10, SiteW: 1})
	c := d.AddCell("t", 5, 30, design.VSS)
	c.GX, c.GY = 10, 0
	c.X, c.Y = 10, 0
	p, err := BuildProblem(d, 500)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumVars != 3 {
		t.Fatalf("vars = %d, want 3", p.NumVars)
	}
	if p.E.Rows != 2 {
		t.Fatalf("E rows = %d, want 2", p.E.Rows)
	}
	eD := p.E.Dense()
	want := [][]float64{{-1, 1, 0}, {0, -1, 1}}
	for i := range want {
		for j := range want[i] {
			if eD[i][j] != want[i][j] {
				t.Errorf("E[%d][%d] = %g, want %g", i, j, eD[i][j], want[i][j])
			}
		}
	}
	// Solve: a lone cell stays at its target.
	x, st, err := SolveMMSIM(p, New(Options{Eps: 1e-10}).Opts)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatal("did not converge")
	}
	for i := range x {
		if diff := x[i] - 10; diff > 1e-6 || diff < -1e-6 {
			t.Errorf("x[%d] = %g, want 10", i, x[i])
		}
	}
}
