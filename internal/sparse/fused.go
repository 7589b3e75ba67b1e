package sparse

import "math"

// Fused MMSIM iteration kernels. Each replaces a sequence of full-length
// vector sweeps with a single pass that performs the same per-element
// floating-point operations in the same order — only the intermediate
// stores/loads between the formerly separate sweeps disappear, which changes
// no rounding.

// FusedModulusRHS folds the modulus right-hand-side update
//
//	rhs[i] = ((rhs[i] + Ω_i·a[i]) − (A·a)_i) + (−γ)·q[i]
//
// into one pass over A's rows: on entry rhs holds N·s (from ApplyN), a holds
// |s|, and on exit rhs is the full MMSIM right-hand side N·s + (Ω−A)|s| − γq.
// omega == nil means Ω = I (the paper's choice), adding a[i] directly.
func (m *CSR) FusedModulusRHS(rhs, omega, a, q []float64, gamma float64) {
	n := m.Rows
	if len(rhs) != n || len(a) != m.Cols || len(q) != n {
		panic("sparse: FusedModulusRHS dimension mismatch")
	}
	negGamma := -gamma
	rowPtr := m.RowPtr
	if omega == nil {
		for i := 0; i < n; i++ {
			s := 0.0
			cols := m.ColIdx[rowPtr[i]:rowPtr[i+1]]
			vals := m.Val[rowPtr[i]:rowPtr[i+1]]
			// Reslicing to len(cols) lets the compiler drop the bounds
			// check on vals[k] inside the dot product.
			vals = vals[:len(cols)]
			for k, c := range cols {
				s += vals[k] * a[c]
			}
			rhs[i] = (rhs[i] + a[i]) + (-1)*s + negGamma*q[i]
		}
		return
	}
	for i := 0; i < n; i++ {
		s := 0.0
		cols := m.ColIdx[rowPtr[i]:rowPtr[i+1]]
		vals := m.Val[rowPtr[i]:rowPtr[i+1]]
		vals = vals[:len(cols)]
		for k, c := range cols {
			s += vals[k] * a[c]
		}
		rhs[i] = (rhs[i] + omega[i]*a[i]) + (-1)*s + negGamma*q[i]
	}
}

// FusedZUpdate folds the MMSIM tail sweeps into one elementwise pass: the
// modulus back-transform z[i] = (|s[i]| + s[i])/γ, the |s| capture the NEXT
// iteration's rhs pass needs (written to absS), the finiteness scan, and the
// ‖z − zPrev‖∞ step norm. Returns (dz, finite). The per-element arithmetic is
// exactly the unfused sequence's — the abs/divide order is unchanged — so dz
// and the finite verdict are bit-identical to running the four sweeps
// separately.
func FusedZUpdate(z, zPrev, s, absS []float64, gamma float64) (float64, bool) {
	n := len(s)
	if len(z) != n || len(zPrev) != n || len(absS) != n {
		panic("sparse: FusedZUpdate length mismatch")
	}
	dz := 0.0
	finite := true
	if gamma == 1 {
		// γ = 1 (the default): x/1 is the bit-exact identity for every
		// float64, so the division is skipped entirely.
		for i := 0; i < n; i++ {
			si := s[i]
			ai := math.Abs(si)
			absS[i] = ai
			zi := ai + si
			z[i] = zi
			// zi−zi is 0 exactly when zi is finite (NaN/±Inf yield NaN),
			// the same verdict as IsNaN∨IsInf with one subtraction.
			if zi-zi != 0 {
				finite = false
			}
			if d := math.Abs(zi - zPrev[i]); d > dz {
				dz = d
			}
		}
		return dz, finite
	}
	for i := 0; i < n; i++ {
		si := s[i]
		ai := math.Abs(si)
		absS[i] = ai
		zi := (ai + si) / gamma
		z[i] = zi
		if zi-zi != 0 {
			finite = false
		}
		if d := math.Abs(zi - zPrev[i]); d > dz {
			dz = d
		}
	}
	return dz, finite
}

// ScaleAddMulVec computes dst[i] = coef·base[i] + alpha·(m·x)_i in one row
// pass, fusing the scale/copy sweep that would otherwise precede an
// AddMulVec. coef == 1 short-circuits the multiply so the base passes
// through bit-exactly (matching a copy followed by AddMulVec). dst must not
// alias x; base may alias dst.
func (m *CSR) ScaleAddMulVec(dst, base []float64, coef float64, x []float64, alpha float64) {
	if len(dst) != m.Rows || len(base) != m.Rows || len(x) != m.Cols {
		panic("sparse: ScaleAddMulVec dimension mismatch")
	}
	rowPtr := m.RowPtr
	if coef == 1 {
		for i := 0; i < m.Rows; i++ {
			s := 0.0
			cols := m.ColIdx[rowPtr[i]:rowPtr[i+1]]
			vals := m.Val[rowPtr[i]:rowPtr[i+1]]
			// Reslicing to len(cols) lets the compiler drop the bounds
			// check on vals[k] inside the dot product.
			vals = vals[:len(cols)]
			for k, c := range cols {
				s += vals[k] * x[c]
			}
			dst[i] = base[i] + alpha*s
		}
		return
	}
	for i := 0; i < m.Rows; i++ {
		s := 0.0
		cols := m.ColIdx[rowPtr[i]:rowPtr[i+1]]
		vals := m.Val[rowPtr[i]:rowPtr[i+1]]
		vals = vals[:len(cols)]
		for k, c := range cols {
			s += vals[k] * x[c]
		}
		dst[i] = coef*base[i] + alpha*s
	}
}
