package lcp

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"mclg/internal/dense"
	"mclg/internal/sparse"
)

// spdProblem builds an LCP with a random symmetric positive definite A,
// which is guaranteed to have a unique solution.
func spdProblem(rng *rand.Rand, n int) (*Problem, *dense.Matrix) {
	g := dense.New(n, n)
	for i := range g.Data {
		g.Data[i] = rng.NormFloat64()
	}
	a := dense.New(n, n) // GᵀG
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			gki := g.At(k, i)
			for j := 0; j < n; j++ {
				a.Data[i*n+j] += gki * g.At(k, j)
			}
		}
	}
	// Make the matrix strictly diagonally dominant (still symmetric positive
	// definite): both Lemke and the diagonal MMSIM splitting are then
	// guaranteed to converge, keeping the cross-checks deterministic.
	for i := 0; i < n; i++ {
		rowSum := 1.0
		for j := 0; j < n; j++ {
			if j != i {
				rowSum += math.Abs(a.At(i, j))
			}
		}
		a.Set(i, i, math.Abs(a.At(i, i))+rowSum)
	}
	b := sparse.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if v := a.At(i, j); v != 0 {
				b.Add(i, j, v)
			}
		}
	}
	q := make([]float64, n)
	for i := range q {
		q[i] = rng.NormFloat64() * 2
	}
	return &Problem{A: b.Build(), Q: q}, a
}

func denseOf(p *Problem) *dense.Matrix {
	n := p.N()
	a := dense.New(n, n)
	d := p.A.Dense()
	for i := 0; i < n; i++ {
		copy(a.Data[i*n:(i+1)*n], d[i])
	}
	return a
}

func TestProblemResidualAtSolution(t *testing.T) {
	// Hand-built LCP: A = I, q = (-1, 2). Solution z = (1, 0), w = (0, 2).
	p := &Problem{A: sparse.Identity(2), Q: []float64{-1, 2}}
	z := []float64{1, 0}
	if r := p.Residual(z); r > 1e-14 {
		t.Errorf("residual at exact solution = %g", r)
	}
	if g := p.ComplementarityGap(z); g > 1e-14 {
		t.Errorf("gap at exact solution = %g", g)
	}
	// Wrong z has positive residual.
	if r := p.Residual([]float64{1, 1}); r < 1 {
		t.Errorf("residual at wrong point = %g, want >= 1", r)
	}
}

func TestLemkeTrivial(t *testing.T) {
	a := dense.FromRows([][]float64{{2, 0}, {0, 2}})
	z, err := Lemke(a, []float64{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if z[0] != 0 || z[1] != 0 {
		t.Errorf("q >= 0 should give z = 0, got %v", z)
	}
}

func TestLemkeKnownSolution(t *testing.T) {
	// A = I, q = (-3, -5): z = (3, 5), w = 0.
	a := dense.FromRows([][]float64{{1, 0}, {0, 1}})
	z, err := Lemke(a, []float64{-3, -5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(z[0]-3) > 1e-10 || math.Abs(z[1]-5) > 1e-10 {
		t.Errorf("z = %v, want [3 5]", z)
	}
}

func TestLemkeRandomSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(10)
		p, ad := spdProblem(rng, n)
		z, err := Lemke(ad, p.Q)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if r := p.Residual(z); r > 1e-7 {
			t.Errorf("trial %d: Lemke residual = %g", trial, r)
		}
	}
}

func TestPGSMatchesLemke(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(8)
		p, ad := spdProblem(rng, n)
		zl, err := Lemke(ad, p.Q)
		if err != nil {
			t.Fatal(err)
		}
		zp, _, err := PGS(ad, p.Q, 1e-12, 50000)
		if err != nil {
			t.Fatal(err)
		}
		for i := range zl {
			if math.Abs(zl[i]-zp[i]) > 1e-6 {
				t.Errorf("trial %d: z[%d] Lemke %g vs PGS %g", trial, i, zl[i], zp[i])
			}
		}
	}
}

func TestPGSRejectsNonPositiveDiagonal(t *testing.T) {
	a := dense.FromRows([][]float64{{0, 1}, {1, 1}})
	if _, _, err := PGS(a, []float64{1, 1}, 1e-8, 10); err == nil {
		t.Error("expected error for zero diagonal")
	}
}

func TestMMSIMDiagSplittingSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(12)
		p, ad := spdProblem(rng, n)
		sp, err := NewDiagSplitting(p.A, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		res, err := MMSIMContext(context.Background(), p, sp, Options{Eps: 1e-12, MaxIter: 100000})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("trial %d: MMSIM did not converge in %d iters (step %g)",
				trial, res.Iterations, res.FinalStep)
		}
		if r := p.Residual(res.Z); r > 1e-6 {
			t.Errorf("trial %d: MMSIM residual = %g", trial, r)
		}
		// Cross-check against Lemke.
		zl, err := Lemke(ad, p.Q)
		if err != nil {
			t.Fatal(err)
		}
		for i := range zl {
			if math.Abs(zl[i]-res.Z[i]) > 1e-5 {
				t.Errorf("trial %d: z[%d] MMSIM %g vs Lemke %g", trial, i, res.Z[i], zl[i])
			}
		}
	}
}

func TestMMSIMGammaInvariance(t *testing.T) {
	// The solution z must not depend on γ (only the s-iterates do).
	rng := rand.New(rand.NewSource(109))
	p, _ := spdProblem(rng, 6)
	var zs [][]float64
	for _, gamma := range []float64{0.5, 1, 2} {
		sp, err := NewDiagSplitting(p.A, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		res, err := MMSIMContext(context.Background(), p, sp, Options{Gamma: gamma, Eps: 1e-12, MaxIter: 100000})
		if err != nil {
			t.Fatal(err)
		}
		zs = append(zs, res.Z)
	}
	for k := 1; k < len(zs); k++ {
		for i := range zs[0] {
			if math.Abs(zs[0][i]-zs[k][i]) > 1e-6 {
				t.Errorf("z depends on gamma: %g vs %g at %d", zs[0][i], zs[k][i], i)
			}
		}
	}
}

func TestMMSIMOnIterCallback(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	p, _ := spdProblem(rng, 5)
	sp, _ := NewDiagSplitting(p.A, 0.9)
	calls := 0
	res, err := MMSIMContext(context.Background(), p, sp, Options{Eps: 1e-10, OnIter: func(k int, dz float64) {
		if k != calls {
			t.Errorf("OnIter k = %d, want %d", k, calls)
		}
		calls++
	}})
	if err != nil {
		t.Fatal(err)
	}
	if calls != res.Iterations {
		t.Errorf("OnIter called %d times, iterations %d", calls, res.Iterations)
	}
}

func TestMMSIMDimensionMismatch(t *testing.T) {
	p := &Problem{A: sparse.Identity(3), Q: []float64{1, 2}}
	sp, _ := NewDiagSplitting(p.A, 1)
	if _, err := MMSIMContext(context.Background(), p, sp, Options{}); err == nil {
		t.Error("expected dimension error")
	}
}

func TestDiagSplittingRejectsBadInput(t *testing.T) {
	if _, err := NewDiagSplitting(sparse.Identity(2), -1); err == nil {
		t.Error("expected error for non-positive alpha")
	}
	b := sparse.NewBuilder(2, 2)
	b.Add(0, 1, 1)
	b.Add(1, 0, 1)
	if _, err := NewDiagSplitting(b.Build(), 1); err == nil {
		t.Error("expected error for zero diagonal")
	}
}

func TestLemkeZeroDimension(t *testing.T) {
	z, err := Lemke(dense.New(0, 0), nil)
	if err != nil || len(z) != 0 {
		t.Errorf("0-dim Lemke = %v, %v", z, err)
	}
}
