package core

import (
	"context"
	"math"
	"testing"

	"mclg/internal/abacus"
	"mclg/internal/design"
	"mclg/internal/gen"
)

// TestMMSIMEqualsPlaceRowSingleHeight reproduces the Section 5.3
// experiment: on single-row-height designs with cells assigned to rows and
// the right boundary relaxed, both the MMSIM and Abacus's PlaceRow are
// optimal for the fixed ordering, so their total displacements must agree.
func TestMMSIMEqualsPlaceRowSingleHeight(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		d, err := gen.Generate(gen.Spec{
			Name: "t", SingleCells: 250, DoubleCells: 0, Density: 0.6, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Shared row assignment.
		if err := AssignRows(d); err != nil {
			t.Fatal(err)
		}
		mmsim := d.Clone()
		placerow := d.Clone()

		// MMSIM path.
		p, err := BuildProblemBounded(mmsim, 1000, false)
		if err != nil {
			t.Fatal(err)
		}
		x, st, err := SolveMMSIMContext(context.Background(), p, Options{
			Lambda: 1000, Beta: 0.5, Theta: 0.5, Gamma: 1,
			Eps: 1e-9, MaxIter: 100000,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !st.Converged {
			t.Fatalf("seed %d: MMSIM did not converge", seed)
		}
		Restore(p, x)

		// PlaceRow path (same ordering, relaxed right boundary).
		if err := abacus.PlaceRowsAssigned(placerow, true); err != nil {
			t.Fatal(err)
		}

		// Optimal objectives must agree; positions may differ only where the
		// optimum is non-unique, so compare the objective value.
		var objM, objP float64
		for i := range mmsim.Cells {
			dm := mmsim.Cells[i].X - mmsim.Cells[i].GX
			dp := placerow.Cells[i].X - placerow.Cells[i].GX
			objM += dm * dm
			objP += dp * dp
		}
		if math.Abs(objM-objP) > 1e-3*math.Max(1, objP) {
			t.Errorf("seed %d: MMSIM objective %.6f vs PlaceRow %.6f", seed, objM, objP)
		}
		// With a strictly convex objective the optimum is unique: positions
		// must match too.
		for i := range mmsim.Cells {
			if math.Abs(mmsim.Cells[i].X-placerow.Cells[i].X) > 1e-2 {
				t.Errorf("seed %d: cell %d x MMSIM %.4f vs PlaceRow %.4f",
					seed, i, mmsim.Cells[i].X, placerow.Cells[i].X)
			}
		}
	}
}

// TestMMSIMNoBoundaryViolationLowDensity checks Table 1's qualitative
// claim: at low density the MMSIM output needs few or no Tetris repairs.
func TestMMSIMNoBoundaryViolationLowDensity(t *testing.T) {
	d, err := gen.Generate(gen.Spec{
		Name: "t", SingleCells: 400, DoubleCells: 40, Density: 0.25, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	leg := New(Options{})
	stats, err := leg.Legalize(d)
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(stats.Illegal) / float64(len(d.Cells))
	if frac > 0.02 {
		t.Errorf("illegal fraction %.4f at density 0.25, expected < 2%%", frac)
	}
	if rep := design.CheckLegal(d); !rep.Legal() {
		t.Fatalf("result illegal: %v", rep)
	}
}

// TestSubcellMismatchShrinksWithLambda checks the λ mechanism: larger
// penalties must tie multi-row subcells tighter together (the E7 ablation).
func TestSubcellMismatchShrinksWithLambda(t *testing.T) {
	base, err := gen.Generate(gen.Spec{
		Name: "t", SingleCells: 150, DoubleCells: 40, Density: 0.7, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	var prev float64 = math.Inf(1)
	for _, lambda := range []float64{1, 100, 10000} {
		d := base.Clone()
		if err := AssignRows(d); err != nil {
			t.Fatal(err)
		}
		p, err := BuildProblemBounded(d, lambda, false)
		if err != nil {
			t.Fatal(err)
		}
		x, _, err := SolveMMSIMContext(context.Background(), p, Options{
			Lambda: lambda, Beta: 0.5, Theta: 0.5, Gamma: 1, Eps: 1e-8, MaxIter: 100000,
		})
		if err != nil {
			t.Fatal(err)
		}
		mismatch := Restore(p, x)
		if mismatch > prev*1.5+1e-9 {
			t.Errorf("mismatch grew with λ=%g: %g (prev %g)", lambda, mismatch, prev)
		}
		prev = mismatch
	}
	// The penalty method leaves O(1/λ) mismatch; at λ = 10⁴ it must be well
	// under a site width (1 DBU here) so Tetris snapping absorbs it.
	if prev > 0.5 {
		t.Errorf("mismatch at λ=10000 still %g", prev)
	}
}
