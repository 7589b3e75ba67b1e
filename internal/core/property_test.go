package core

import (
	"context"
	"math/rand"
	"testing"
)

// TestMMSIMOutputSatisfiesConstraints is a randomized property test: for
// any instance, the converged MMSIM solution must satisfy every ordering
// constraint and the nonnegativity bound up to the residual tolerance, and
// subcells of one cell must agree up to the penalty softness.
func TestMMSIMOutputSatisfiesConstraints(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	for trial := 0; trial < 25; trial++ {
		d := randomDesign(rng, 3+rng.Intn(5), 40+rng.Intn(80), 10+rng.Intn(40), 0.3)
		if err := AssignRows(d); err != nil {
			t.Fatal(err)
		}
		p, err := BuildProblemBounded(d, 1000, false)
		if err != nil {
			t.Fatal(err)
		}
		opts := New(Options{Eps: 1e-7}).Opts
		opts.MaxIter = 300000 // uniform-random GPs converge slowly at high density
		x, st, err := SolveMMSIMContext(context.Background(), p, opts)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !st.Converged {
			t.Fatalf("trial %d: not converged", trial)
		}
		const tol = 0.51 // the default ResidualTol plus slack
		for i, c := range p.Cons {
			lhs := -x[c.Left]
			if c.Right >= 0 {
				lhs += x[c.Right]
			}
			if lhs < p.Bv[i]-tol {
				t.Errorf("trial %d: constraint %d violated by %g", trial, i, p.Bv[i]-lhs)
			}
		}
		for _, xi := range x {
			if xi < -tol {
				t.Errorf("trial %d: nonnegativity violated: %g", trial, xi)
			}
		}
		// Subcell mismatch is the penalty softness O(force/λ); on these
		// adversarial uniform-random GPs the constraint forces reach a few
		// thousand, so allow a few DBU (Restore averages it away and the
		// Tetris stage repairs any residual overlap).
		for cell, vars := range p.CellVars {
			for k := 0; k+1 < len(vars); k++ {
				if diff := x[vars[k+1]] - x[vars[k]]; diff > 5 || diff < -5 {
					t.Errorf("trial %d: cell %d subcell mismatch %g", trial, cell, diff)
				}
			}
		}
	}
}

// TestLegalizeDeterministic: two runs on clones must produce bit-identical
// placements — the whole pipeline is deterministic by construction.
func TestLegalizeDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(409))
	base := randomDesign(rng, 6, 100, 50, 0.25)
	a := base.Clone()
	b := base.Clone()
	if _, err := New(Options{}).Legalize(a); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Options{}).Legalize(b); err != nil {
		t.Fatal(err)
	}
	for i := range a.Cells {
		ca, cb := a.Cells[i], b.Cells[i]
		if ca.X != cb.X || ca.Y != cb.Y || ca.Flipped != cb.Flipped {
			t.Fatalf("cell %d differs between runs: (%g,%g,%v) vs (%g,%g,%v)",
				i, ca.X, ca.Y, ca.Flipped, cb.X, cb.Y, cb.Flipped)
		}
	}
}
