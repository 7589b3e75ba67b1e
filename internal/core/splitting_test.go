package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"mclg/internal/sparse"
)

// buildMixedProblem assembles a random mixed-height problem for splitting
// tests.
func buildMixedProblem(t *testing.T, seed int64) *Problem {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	d := randomDesign(rng, 6, 80, 25, 0.3)
	if err := AssignRows(d); err != nil {
		t.Fatal(err)
	}
	p, err := BuildProblemBounded(d, 1000, false)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumCons == 0 {
		t.Skip("degenerate instance without constraints")
	}
	return p
}

// explicitM builds the dense M matrix of Eq. 16 for verification.
func explicitM(p *Problem, beta, theta float64, dTri *sparse.Tridiag) [][]float64 {
	n, m := p.NumVars, p.NumCons
	size := n + m
	out := make([][]float64, size)
	for i := range out {
		out[i] = make([]float64, size)
	}
	// (1/β)H top-left.
	h := denseH(p)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			out[i][j] = h[i][j] / beta
		}
	}
	// B bottom-left.
	bD := p.B.Dense()
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out[n+i][j] = bD[i][j]
		}
	}
	// (1/θ)D bottom-right.
	for i := 0; i < m; i++ {
		out[n+i][n+i] = dTri.Diag[i] / theta
		if i > 0 {
			out[n+i][n+i-1] = dTri.Sub[i] / theta
		}
		if i < m-1 {
			out[n+i][n+i+1] = dTri.Sup[i] / theta
		}
	}
	return out
}

func denseH(p *Problem) [][]float64 {
	n := p.NumVars
	h := make([][]float64, n)
	for i := range h {
		h[i] = make([]float64, n)
		h[i][i] = 1
	}
	for _, vars := range p.CellVars {
		for k := 0; k+1 < len(vars); k++ {
			lo, hi := vars[k], vars[k+1]
			h[lo][lo] += p.Lambda
			h[hi][hi] += p.Lambda
			h[lo][hi] -= p.Lambda
			h[hi][lo] -= p.Lambda
		}
	}
	return h
}

func TestSolveMOmegaMatchesExplicitSystem(t *testing.T) {
	p := buildMixedProblem(t, 61)
	beta, theta := 0.5, 0.5
	sp, err := NewStructuredSplittingOmegaR(p, beta, theta, 1)
	if err != nil {
		t.Fatal(err)
	}
	size := p.NumVars + p.NumCons
	mDense := explicitM(p, beta, theta, sp.D())
	for i := 0; i < size; i++ {
		mDense[i][i] += 1 // Ω = I
	}
	rng := rand.New(rand.NewSource(62))
	rhs := make([]float64, size)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	got := make([]float64, size)
	sp.SolveMOmega(got, rhs)
	// Verify (M+Ω)·got == rhs.
	for i := 0; i < size; i++ {
		s := 0.0
		for j := 0; j < size; j++ {
			s += mDense[i][j] * got[j]
		}
		if math.Abs(s-rhs[i]) > 1e-8*math.Max(1, math.Abs(rhs[i])) {
			t.Fatalf("(M+I)·x mismatch at row %d: %g vs %g", i, s, rhs[i])
		}
	}
}

func TestApplyNMatchesExplicitMatrix(t *testing.T) {
	p := buildMixedProblem(t, 63)
	beta, theta := 0.5, 0.5
	sp, err := NewStructuredSplittingOmegaR(p, beta, theta, 1)
	if err != nil {
		t.Fatal(err)
	}
	size := p.NumVars + p.NumCons
	// N = M − A.
	mDense := explicitM(p, beta, theta, sp.D())
	aDense := p.AssembleLCPMatrix().Dense()
	rng := rand.New(rand.NewSource(64))
	src := make([]float64, size)
	for i := range src {
		src[i] = rng.NormFloat64()
	}
	got := make([]float64, size)
	sp.ApplyN(got, src)
	for i := 0; i < size; i++ {
		want := 0.0
		for j := 0; j < size; j++ {
			want += (mDense[i][j] - aDense[i][j]) * src[j]
		}
		if math.Abs(got[i]-want) > 1e-8*math.Max(1, math.Abs(want)) {
			t.Fatalf("N·x mismatch at row %d: %g vs %g", i, got[i], want)
		}
	}
}

// TestOmegaVariantsSameSolution verifies that all Ω choices converge to the
// same LCP fixed point (they must: Ω only reparametrizes the iteration).
func TestOmegaVariantsSameSolution(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	d := randomDesign(rng, 5, 70, 18, 0.3)
	if err := AssignRows(d); err != nil {
		t.Fatal(err)
	}
	lambda := 100.0
	var ref []float64
	for i, opts := range []Options{
		{Lambda: lambda},
		{Lambda: lambda, OmegaR: 0.1},
		{Lambda: lambda, ScaledOmegaX: true},
	} {
		p, err := BuildProblemBounded(d, lambda, false)
		if err != nil {
			t.Fatal(err)
		}
		full := New(opts).Opts
		full.Eps = 1e-10
		full.MaxIter = 300000
		full.ResidualTol = 1e-6
		x, st, err := SolveMMSIMContext(context.Background(), p, full)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if !st.Converged {
			t.Fatalf("variant %d did not converge", i)
		}
		if ref == nil {
			ref = x
			continue
		}
		for j := range ref {
			if math.Abs(x[j]-ref[j]) > 1e-4 {
				t.Errorf("variant %d: x[%d] = %.8f, reference %.8f", i, j, x[j], ref[j])
			}
		}
	}
}

func TestSplittingParameterValidation(t *testing.T) {
	p := buildMixedProblem(t, 71)
	if _, err := NewStructuredSplittingOmegaR(p, 0, 0.5, 1); err == nil {
		t.Error("beta = 0 accepted")
	}
	if _, err := NewStructuredSplittingOmegaR(p, 2, 0.5, 1); err == nil {
		t.Error("beta = 2 accepted")
	}
	if _, err := NewStructuredSplittingOmegaR(p, 0.5, 0, 1); err == nil {
		t.Error("theta = 0 accepted")
	}
	if _, err := NewStructuredSplittingOmegaR(p, 0.5, 0.5, -1); err == nil {
		t.Error("negative omegaR accepted")
	}
}

func TestHDiag(t *testing.T) {
	d, _ := figure3Design()
	p, err := BuildProblemBounded(d, 7, false)
	if err != nil {
		t.Fatal(err)
	}
	got := p.HDiag()
	// c1: two subcells (degree 1 each), c2: single (degree 0), c3: two.
	want := []float64{8, 8, 1, 8, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("HDiag[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestSolveHOmegaDiagInverts(t *testing.T) {
	p := buildMixedProblem(t, 73)
	beta := 0.5
	rng := rand.New(rand.NewSource(74))
	rhs := make([]float64, p.NumVars)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	x := make([]float64, p.NumVars)
	p.SolveHOmegaDiag(beta, x, rhs)
	// Verify ((1/β)H + diag(H)) x == rhs.
	hx := make([]float64, p.NumVars)
	p.ApplyH(hx, x)
	hd := p.HDiag()
	for i := range rhs {
		got := hx[i]/beta + hd[i]*x[i]
		if math.Abs(got-rhs[i]) > 1e-8*math.Max(1, math.Abs(rhs[i])) {
			t.Fatalf("row %d: %g vs %g", i, got, rhs[i])
		}
	}
}
