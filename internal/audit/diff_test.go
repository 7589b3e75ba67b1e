package audit

import (
	"context"
	"math"
	"testing"

	"mclg/internal/core"
	"mclg/internal/design"
	"mclg/internal/gen"
	"mclg/internal/regress"
)

func regressHash(t *testing.T, d *design.Design) string {
	t.Helper()
	c := d.Clone()
	c.ResetToGlobal()
	if _, err := core.New(core.DefaultOptions()).Legalize(c); err != nil {
		t.Fatal(err)
	}
	return regress.PositionHash(c)
}

func buildProblem(t *testing.T, d *design.Design) *core.Problem {
	t.Helper()
	c := d.Clone()
	c.ResetToGlobal()
	if err := core.AssignRows(c); err != nil {
		t.Fatal(err)
	}
	p, err := core.BuildProblemBounded(c, 1000, false)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// The two independently coded references must agree with each other on an
// instance small enough for the dense path — anchoring the scalable dual-PGS
// reference on the textbook active-set method.
func TestReferenceSolversAgree(t *testing.T) {
	d, err := gen.Generate(gen.Spec{Name: "ref", SingleCells: 40, DoubleCells: 8, Density: 0.6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	p := buildProblem(t, d)
	if p.NumVars > 160 {
		t.Fatalf("instance too big for the dense path: %d vars", p.NumVars)
	}
	xd, err := solveDenseQP(p)
	if err != nil {
		t.Fatal(err)
	}
	xp, _, err := solveDualPGS(context.Background(), p, 1e-12, 2000000)
	if err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for v := range xd {
		if dx := math.Abs(xd[v] - xp[v]); dx > worst {
			worst = dx
		}
	}
	if worst > 1e-7 {
		t.Errorf("dense-QP and dual-PGS references disagree: max |Δx| = %g", worst)
	}
}

// The cross-check must actually catch a wrong solution: feed it the MMSIM
// answer with one variable perturbed by a site and require a failure.
func TestCrossCheckCatchesPerturbation(t *testing.T) {
	d, err := gen.Generate(gen.Spec{Name: "perturb", SingleCells: 40, DoubleCells: 8, Density: 0.6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	p := buildProblem(t, d)
	opts := core.DefaultOptions()
	opts.Eps = 1e-11
	opts.MaxIter = 500000
	opts.ResidualTol = -1
	x, _, err := core.SolveMMSIMContext(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	ref := crossCheck(context.Background(), p, x)
	if ref.Err != "" || !ref.Pass {
		t.Fatalf("honest solution rejected: %+v", ref)
	}
	bad := append([]float64(nil), x...)
	bad[len(bad)/2] += 1.0
	ref = crossCheck(context.Background(), p, bad)
	if ref.Err != "" {
		t.Fatal(ref.Err)
	}
	if ref.Pass || ref.MaxDX < 0.5 {
		t.Errorf("perturbed solution passed the cross-check: %+v", ref)
	}
}

// The dual-PGS reference keeps the x ≥ 0 complementarity that core.SolvePGS
// documents dropping: on a design whose leftmost cells are pushed against
// the left edge, the reference must return a nonnegative solution.
func TestDualPGSRespectsLeftBound(t *testing.T) {
	d := design.NewDesign(design.Config{Name: "left", NumRows: 1, NumSites: 40, RowHeight: 10, SiteW: 1})
	// Three cells whose targets pull hard past the left boundary.
	for i, gx := range []float64{-8, -3, 2} {
		c := d.AddCell("c", 4, 10, design.VSS)
		c.GX, c.GY = gx, 0
		_ = i
	}
	p := buildProblem(t, d)
	x, _, err := solveDualPGS(context.Background(), p, 1e-12, 2000000)
	if err != nil {
		t.Fatal(err)
	}
	for v, xv := range x {
		if xv < -1e-9 {
			t.Errorf("reference x[%d] = %g violates x >= 0", v, xv)
		}
	}
	// And it must match the dense reference, which also enforces the bound.
	xd, err := solveDenseQP(p)
	if err != nil {
		t.Fatal(err)
	}
	for v := range x {
		if math.Abs(x[v]-xd[v]) > 1e-7 {
			t.Errorf("x[%d]: dual-pgs %g vs dense %g", v, x[v], xd[v])
		}
	}
}

// Baseline sanity must tolerate baselines that cannot run (abacus on
// multi-row designs) without failing the audit.
func TestBaselineErrorsAreNonFatal(t *testing.T) {
	d, err := gen.Generate(gen.Spec{Name: "multi", SingleCells: 60, TripleCells: 12, Density: 0.6, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	cert, err := Run(context.Background(), d, Options{SkipReference: true})
	if err != nil {
		t.Fatal(err)
	}
	var sawErr bool
	for _, b := range cert.Baselines {
		if b.Name == "abacus" && b.Err != "" {
			sawErr = true
		}
	}
	if !sawErr {
		t.Fatal("expected abacus to record an error on a triple-height design")
	}
	if !cert.Pass {
		t.Errorf("baseline error failed the audit: %s", cert.Summary())
	}
}
