package lcp

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// TestFusedStepBitIdentical pins the fused Step to the pre-fusion iteration
// body kept as stepUnfused: on random SPD LCPs, two solvers driven from the
// same seed must produce the same z history bit for bit and stop after the
// same number of iterations.
func TestFusedStepBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	for trial := 0; trial < 12; trial++ {
		n := 2 + rng.Intn(12)
		p, _ := spdProblem(rng, n)
		s0 := make([]float64, n)
		for i := range s0 {
			s0[i] = rng.NormFloat64()
		}
		gamma := []float64{1, 1, 2}[trial%3]
		mk := func() *Solver {
			sp, err := NewDiagSplitting(p.A, 0.9)
			if err != nil {
				t.Fatal(err)
			}
			sv, err := NewSolver(p, sp, Options{
				Gamma: gamma, Eps: 1e-10, MaxIter: 200,
				S0: append([]float64(nil), s0...),
			})
			if err != nil {
				t.Fatal(err)
			}
			return sv
		}
		fused, unfused := mk(), mk()
		defer fused.Close()
		defer unfused.Close()
		fusedIters, unfusedIters := 0, 0
		for k := 0; k < 200; k++ {
			dzF, errF := fused.Step()
			dzU, errU := unfused.stepUnfused()
			if (errF == nil) != (errU == nil) {
				t.Fatalf("trial %d iter %d: error mismatch %v vs %v", trial, k, errF, errU)
			}
			if errF != nil {
				break
			}
			if math.Float64bits(dzF) != math.Float64bits(dzU) {
				t.Fatalf("trial %d iter %d: dz %x vs %x",
					trial, k, math.Float64bits(dzF), math.Float64bits(dzU))
			}
			zf, zu := fused.Z(), unfused.Z()
			for i := range zf {
				if math.Float64bits(zf[i]) != math.Float64bits(zu[i]) {
					t.Fatalf("trial %d iter %d: z[%d] = %g vs %g",
						trial, k, i, zf[i], zu[i])
				}
			}
			if dzF < 1e-10 && k > 0 {
				fusedIters, unfusedIters = fused.Iterations(), unfused.Iterations()
				break
			}
		}
		if fusedIters != unfusedIters {
			t.Fatalf("trial %d: stopped after %d vs %d iterations",
				trial, fusedIters, unfusedIters)
		}
	}
}

// TestFusedAndUnfusedInterleave drives one solver through an alternating mix
// of fused and unfused steps and a reference solver through fused steps only:
// both maintain the same workspace invariants, so the histories must agree
// bit for bit.
func TestFusedAndUnfusedInterleave(t *testing.T) {
	rng := rand.New(rand.NewSource(137))
	p, _ := spdProblem(rng, 9)
	mk := func() *Solver {
		sp, err := NewDiagSplitting(p.A, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		sv, err := NewSolver(p, sp, Options{Eps: 1e-12, MaxIter: 100})
		if err != nil {
			t.Fatal(err)
		}
		return sv
	}
	mixed, ref := mk(), mk()
	defer mixed.Close()
	defer ref.Close()
	for k := 0; k < 60; k++ {
		var dzM float64
		var errM error
		if k%3 == 1 {
			dzM, errM = mixed.stepUnfused()
		} else {
			dzM, errM = mixed.Step()
		}
		dzR, errR := ref.Step()
		if errM != nil || errR != nil {
			t.Fatalf("iter %d: errors %v / %v", k, errM, errR)
		}
		if math.Float64bits(dzM) != math.Float64bits(dzR) {
			t.Fatalf("iter %d: dz %x vs %x", k, math.Float64bits(dzM), math.Float64bits(dzR))
		}
		zm, zr := mixed.Z(), ref.Z()
		for i := range zm {
			if math.Float64bits(zm[i]) != math.Float64bits(zr[i]) {
				t.Fatalf("iter %d: z[%d] = %g vs %g", k, i, zm[i], zr[i])
			}
		}
	}
}

// TestStridedResidualNeverWeakens checks the strided-verification safety
// property: a converged strided run must satisfy exactly the residual bound
// the legacy check-every-candidate mode enforces, and striding can delay the
// stop but never accept an iterate the per-iteration check would reject.
func TestStridedResidualNeverWeakens(t *testing.T) {
	rng := rand.New(rand.NewSource(139))
	for trial := 0; trial < 15; trial++ {
		n := 3 + rng.Intn(15)
		p, _ := spdProblem(rng, n)
		resTol := 1e-6
		run := func(checkEvery int) *Result {
			sp, err := NewDiagSplitting(p.A, 0.9)
			if err != nil {
				t.Fatal(err)
			}
			// A loose Eps makes early dz-candidates fire while the residual
			// is still large, exercising the failed-check stride path.
			res, err := MMSIM(p, sp, Options{
				Eps: 1e-3, MaxIter: 50000, ResidualTol: resTol, CheckEvery: checkEvery,
			})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		every := run(1) // legacy: check every candidate stop
		auto := run(0)  // structure-derived stride
		if !every.Converged || !auto.Converged {
			t.Fatalf("trial %d: converged %v / %v", trial, every.Converged, auto.Converged)
		}
		// The residual bound holds for both — convergence is never declared
		// without a passing check.
		if r := p.Residual(auto.Z); r >= resTol {
			t.Errorf("trial %d: strided run converged with residual %g >= %g", trial, r, resTol)
		}
		if r := p.Residual(every.Z); r >= resTol {
			t.Errorf("trial %d: per-candidate run converged with residual %g >= %g", trial, r, resTol)
		}
		// Striding only delays: the strided run can never stop earlier than
		// the per-candidate run.
		if auto.Iterations < every.Iterations {
			t.Errorf("trial %d: strided run stopped at %d, before the per-candidate run's %d",
				trial, auto.Iterations, every.Iterations)
		}
	}
}

// TestStridedResidualStillChecksFinal makes sure a run whose dz criterion
// fires between strided checkpoints still performs (and passes) a residual
// check before reporting convergence — via the context-carrying entry point,
// which is the path the legalizer uses.
func TestStridedResidualStillChecksFinal(t *testing.T) {
	rng := rand.New(rand.NewSource(149))
	p, _ := spdProblem(rng, 10)
	sp, err := NewDiagSplitting(p.A, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MMSIMContext(context.Background(), p, sp, Options{
		Eps: 1e-9, MaxIter: 50000, ResidualTol: 1e-7, CheckEvery: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if r := p.Residual(res.Z); r >= 1e-7 {
		t.Errorf("converged with residual %g >= 1e-7", r)
	}
}
