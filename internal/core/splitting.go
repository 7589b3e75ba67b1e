package core

import (
	"fmt"

	"mclg/internal/recycle"
	"mclg/internal/sparse"
)

// StructuredSplitting is the paper's block lower-triangular MMSIM splitting
// (Eq. 16):
//
//	M = [[(1/β*)H,     0      ],      N = [[(1/β*−1)H,  Bᵀ     ],
//	     [   B,     (1/θ*)D   ]]           [    0,    (1/θ*)D  ]]
//
// with H = Q + λEᵀE and D = tridiag(B H⁻¹ Bᵀ). With Ω = I, the system
// (M + Ω) s = rhs is block lower triangular: the x-block solve is a
// per-cell block solve and the r-block solve is one tridiagonal system, so
// each MMSIM iteration costs O(n + m).
type StructuredSplitting struct {
	p        *Problem
	beta     float64
	theta    float64
	d        sparse.Tridiag       // D
	mSolver  sparse.TridiagSolver // factor of shifted
	shifted  sparse.Tridiag       // (1/θ*)D + Ω_r
	scratchX []float64            // also D's fill scratch
	dScaled  sparse.Tridiag       // (1/θ*)D, reused by ApplyN
	omega    []float64            // nil for Ω = I
	scaledX  bool                 // Ω_x = diag(H) instead of I
	bT       sparse.CSR           // Bᵀ, precomputed so ApplyN runs one row pass
}

// NewStructuredSplitting builds the splitting for an assembled problem with
// Ω = I, exactly as in the paper's Algorithm 1. beta and theta are the β*
// and θ* constants; the paper uses 0.5 for both.
func NewStructuredSplitting(p *Problem, beta, theta float64) (*StructuredSplitting, error) {
	return newStructured(p, beta, theta, false, 1)
}

// NewStructuredSplittingOmegaR builds the paper's splitting but with
// Ω_r = omegaR instead of 1 on the multiplier block. D's low-frequency
// modes (long constraint chains in dense rows) have eigenvalues O(1/m²);
// with Ω_r = 1 they barely move per iteration and the multipliers ramp for
// tens of thousands of iterations on dense designs. A small Ω_r lets the
// (1/θ*)D term dominate and removes the stall while keeping Ω positive
// diagonal, the only requirement of the MMSIM theory.
func NewStructuredSplittingOmegaR(p *Problem, beta, theta, omegaR float64) (*StructuredSplitting, error) {
	return newStructured(p, beta, theta, false, omegaR)
}

func newStructured(p *Problem, beta, theta float64, scaledOmega bool, omegaR float64) (*StructuredSplitting, error) {
	s := &StructuredSplitting{}
	if err := s.build(p, beta, theta, scaledOmega, omegaR); err != nil {
		return nil, err
	}
	return s, nil
}

// build is newStructured writing into s, reusing its storage.
func (s *StructuredSplitting) build(p *Problem, beta, theta float64, scaledOmega bool, omegaR float64) error {
	if beta <= 0 || beta >= 2 {
		return fmt.Errorf("core: beta must be in (0, 2), got %g", beta)
	}
	if theta <= 0 {
		return fmt.Errorf("core: theta must be positive, got %g", theta)
	}
	if omegaR <= 0 {
		return fmt.Errorf("core: omegaR must be positive, got %g", omegaR)
	}
	n, m := p.NumVars, p.NumCons
	s.p, s.beta, s.theta, s.scaledX = p, beta, theta, scaledOmega
	s.scratchX = recycle.Grow(s.scratchX, n)
	sparse.GramTridiagApplyInto(&s.d, s.scratchX, p.B, p.ApplyHInvSparse)
	s.omega = nil
	if scaledOmega || omegaR != 1 {
		s.omega = make([]float64, n+m)
		if scaledOmega {
			copy(s.omega[:n], p.HDiag())
		} else {
			for i := 0; i < n; i++ {
				s.omega[i] = 1
			}
		}
		for i := n; i < n+m; i++ {
			s.omega[i] = omegaR
		}
	}
	s.d.ScaledInto(&s.dScaled, 1/theta).ShiftedInto(&s.shifted, omegaR)
	if err := s.shifted.FactorInto(&s.mSolver); err != nil {
		return fmt.Errorf("core: factoring (1/θ*)D + Ω_r: %w", err)
	}
	p.B.TransposeInto(&s.bT)
	return nil
}

// D returns the tridiagonal Schur approximation (for diagnostics and the
// θ* bound computation).
func (s *StructuredSplitting) D() *sparse.Tridiag { return &s.d }

// SolveMOmega solves (M + Ω) dst = rhs exploiting the block
// lower-triangular structure:
//
//	((1/β*)H + Ω_x) s_x            = rhs_x
//	((1/θ*)D + Ω_r) s_r            = rhs_r − B s_x
func (s *StructuredSplitting) SolveMOmega(dst, rhs []float64) {
	n, m := s.p.NumVars, s.p.NumCons
	if s.scaledX {
		// Ω_x = diag(H): (1/β*)H + diag(H) = (1/β*+1)diag(H) − (λ/β*)Adj,
		// still tridiagonal per cell block.
		s.p.SolveHOmegaDiag(s.beta, dst[:n], rhs[:n])
	} else {
		// Ω_x = I: per-cell solve of (1/β*)(I + λL) + I = (1/β*+1)I + (λ/β*)L.
		s.p.SolveHShifted(1/s.beta+1, s.p.Lambda/s.beta, dst[:n], rhs[:n])
	}
	// Bottom block: ((1/θ*)D + Ω_r). The copy of rhs_r is fused into the
	// B·s_x row pass (rhsR[i] = rhs[n+i] + (−1)·(B s_x)_i, same per-element
	// arithmetic as copy-then-AddMulVec).
	rhsR := dst[n : n+m]
	s.p.B.ScaleAddMulVec(rhsR, rhs[n:n+m], 1, dst[:n], -1)
	s.mSolver.SolveBlocks(rhsR, rhsR)
}

// ApplyN computes dst = N src:
//
//	dst_x = (1/β*−1) H src_x + Bᵀ src_r
//	dst_r = (1/θ*) D src_r
func (s *StructuredSplitting) ApplyN(dst, src []float64) {
	n, m := s.p.NumVars, s.p.NumCons
	s.p.ApplyH(s.scratchX, src[:n])
	coef := 1/s.beta - 1
	// Bᵀ src_r via the precomputed transpose, one dot product per output
	// row instead of the scatter AddMulVecT would do. The (1/β*−1)·H src_x
	// scaling is fused into the same row pass
	// (dst[i] = coef·scratchX[i] + 1·(Bᵀ src_r)_i — identical per-element
	// arithmetic, one less full-length store/load).
	s.bT.ScaleAddMulVec(dst[:n], s.scratchX, coef, src[n:n+m], 1)
	s.dScaled.MulVec(dst[n:n+m], src[n:n+m])
}

// Omega returns the positive diagonal Ω: nil for the paper's Ω = I, or the
// explicit diagonal for the scaled variants.
func (s *StructuredSplitting) Omega() []float64 { return s.omega }

// ThetaBound returns the convergence bound 2(2−β*)/(β*·μmax) from
// Theorem 2, where μmax is the dominant eigenvalue of
// Γ = D⁻¹ B H⁻¹ Bᵀ, estimated by power iteration. θ* must lie strictly
// below the returned value for the convergence guarantee to hold.
func (s *StructuredSplitting) ThetaBound() (float64, error) {
	m := s.p.NumCons
	if m == 0 {
		return 0, nil
	}
	dSolver, err := s.d.Factor()
	if err != nil {
		return 0, fmt.Errorf("core: factoring D: %w", err)
	}
	xTmp := make([]float64, s.p.NumVars)
	xTmp2 := make([]float64, s.p.NumVars)
	mTmp := make([]float64, m)
	mu := sparse.PowerIteration(m, func(dst, src []float64) {
		s.p.B.MulVecT(xTmp, src)                      // Bᵀ v
		s.p.SolveHShifted(1, s.p.Lambda, xTmp2, xTmp) // H⁻¹ Bᵀ v
		s.p.B.MulVec(mTmp, xTmp2)                     // B H⁻¹ Bᵀ v
		dSolver.Solve(dst, mTmp)                      // D⁻¹ ...
	}, 200, 1e-8)
	if mu <= 0 {
		return 0, fmt.Errorf("core: nonpositive μmax estimate %g", mu)
	}
	return 2 * (2 - s.beta) / (s.beta * mu), nil
}
