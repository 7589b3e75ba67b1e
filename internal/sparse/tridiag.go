package sparse

import "fmt"

// Tridiag is a tridiagonal matrix stored by its three diagonals.
// Sub[i] is the entry (i, i-1) for i >= 1 (Sub[0] is unused and kept zero),
// Diag[i] is (i, i), and Sup[i] is (i, i+1) for i < n-1.
type Tridiag struct {
	Sub, Diag, Sup []float64
}

// NewTridiag allocates a zero tridiagonal matrix of order n.
func NewTridiag(n int) *Tridiag {
	t := &Tridiag{}
	t.resize(n)
	return t
}

// resize gives t order n, reusing its storage; the entries are unspecified
// unless the storage is new.
func (t *Tridiag) resize(n int) {
	t.Sub, t.Diag, t.Sup = grow(t.Sub, n), grow(t.Diag, n), grow(t.Sup, n)
}

// grow returns buf with length n, reallocating only when its capacity is
// short; the contents are unspecified unless the storage is new.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// N returns the order of the matrix.
func (t *Tridiag) N() int { return len(t.Diag) }

// MulVec computes dst = t * x.
func (t *Tridiag) MulVec(dst, x []float64) {
	n := t.N()
	if len(dst) != n || len(x) != n {
		panic("sparse: Tridiag.MulVec dimension mismatch")
	}
	if n == 0 {
		return
	}
	if n == 1 {
		dst[0] = t.Diag[0] * x[0]
		return
	}
	// Boundary rows handled outside the loop so the interior is branch-free;
	// the per-element add order matches the branched form exactly.
	diag, sub, sup := t.Diag, t.Sub, t.Sup
	dst[0] = diag[0]*x[0] + sup[0]*x[1]
	for i := 1; i < n-1; i++ {
		dst[i] = diag[i]*x[i] + sub[i]*x[i-1] + sup[i]*x[i+1]
	}
	dst[n-1] = diag[n-1]*x[n-1] + sub[n-1]*x[n-2]
}

// Shifted returns t + shift*I as a new matrix.
func (t *Tridiag) Shifted(shift float64) *Tridiag { return t.ShiftedInto(new(Tridiag), shift) }

// ShiftedInto writes t + shift*I into out, reusing out's storage, and
// returns out.
func (t *Tridiag) ShiftedInto(out *Tridiag, shift float64) *Tridiag {
	n := t.N()
	out.resize(n)
	copy(out.Sub, t.Sub)
	copy(out.Sup, t.Sup)
	for i := 0; i < n; i++ {
		out.Diag[i] = t.Diag[i] + shift
	}
	return out
}

// Scaled returns alpha*t as a new matrix.
func (t *Tridiag) Scaled(alpha float64) *Tridiag { return t.ScaledInto(new(Tridiag), alpha) }

// ScaledInto writes alpha*t into out, reusing out's storage, and returns out.
func (t *Tridiag) ScaledInto(out *Tridiag, alpha float64) *Tridiag {
	n := t.N()
	out.resize(n)
	for i := 0; i < n; i++ {
		out.Sub[i] = alpha * t.Sub[i]
		out.Diag[i] = alpha * t.Diag[i]
		out.Sup[i] = alpha * t.Sup[i]
	}
	return out
}

// TridiagSolver carries the LU factorization of a tridiagonal matrix
// (the Thomas algorithm without pivoting) so that repeated solves against
// the same matrix — the MMSIM inner loop — cost only the back/forward
// substitution.
type TridiagSolver struct {
	n    int
	low  []float64 // multipliers l_i = a_i / d_{i-1}
	diag []float64 // pivots after elimination
	sup  []float64 // unchanged superdiagonal
	// segments holds the independent-block boundaries (see Segments),
	// computed eagerly by Factor so solves only read solver state.
	segments []int
}

// Factor computes the LU factorization of t. It returns an error if a pivot
// underflows, which for the diagonally dominant matrices produced by the
// MMSIM splitting indicates a malformed input.
func (t *Tridiag) Factor() (*TridiagSolver, error) {
	s := new(TridiagSolver)
	if err := t.FactorInto(s); err != nil {
		return nil, err
	}
	return s, nil
}

// FactorInto is Factor writing the factorization into s, reusing its
// storage. s reads t's superdiagonal, which must outlive it unchanged.
func (t *Tridiag) FactorInto(s *TridiagSolver) error {
	n := t.N()
	s.n, s.sup = n, t.Sup
	s.low, s.diag = grow(s.low, n), grow(s.diag, n)
	s.segments = s.segments[:0]
	if n == 0 {
		return nil
	}
	s.low[0] = 0
	s.diag[0] = t.Diag[0]
	for i := 1; i < n; i++ {
		piv := s.diag[i-1]
		if piv == 0 {
			return fmt.Errorf("sparse: zero pivot at row %d during tridiagonal factorization", i-1)
		}
		s.low[i] = t.Sub[i] / piv
		s.diag[i] = t.Diag[i] - s.low[i]*t.Sup[i-1]
	}
	if s.diag[n-1] == 0 {
		return fmt.Errorf("sparse: zero pivot at row %d during tridiagonal factorization", n-1)
	}
	s.Segments()
	return nil
}

// Solve computes dst such that t*dst = rhs. dst and rhs may alias.
func (s *TridiagSolver) Solve(dst, rhs []float64) {
	n := s.n
	if len(dst) != n || len(rhs) != n {
		panic("sparse: TridiagSolver.Solve dimension mismatch")
	}
	if n == 0 {
		return
	}
	// Forward elimination: dst holds the modified rhs.
	low, diag, sup := s.low, s.diag, s.sup
	dst[0] = rhs[0]
	for i := 1; i < n; i++ {
		dst[i] = rhs[i] - low[i]*dst[i-1]
	}
	// Back substitution.
	dst[n-1] /= diag[n-1]
	for i := n - 2; i >= 0; i-- {
		dst[i] = (dst[i] - sup[i]*dst[i+1]) / diag[i]
	}
}

// Segments returns the boundaries of the independent diagonal blocks of the
// factored matrix: positions where both the subdiagonal multiplier and the
// superdiagonal entry vanish, so neither the forward sweep nor the back
// substitution couples across the boundary. The legalizer's Schur tridiagonal
// D has one such block per placement row (consecutive constraints in
// different rows share no variables), which SolveBlocks exploits. The
// returned slice holds block start indices plus the terminating n.
func (s *TridiagSolver) Segments() []int {
	if len(s.segments) == 0 {
		segs := append(s.segments, 0)
		for i := 1; i < s.n; i++ {
			if s.low[i] == 0 && s.sup[i-1] == 0 {
				segs = append(segs, i)
			}
		}
		s.segments = append(segs, s.n)
	}
	return s.segments
}

// SolveBlocks solves t*dst = rhs like Solve, but runs the Thomas sweeps
// block by block over the independent diagonal blocks reported by Segments,
// four blocks at a time (see solveSegmentsInterleaved). Within a block the
// sweeps are unchanged, and across a zero boundary Solve's sweeps are no-ops
// (the eliminated term is 0·x), so the result is identical to Solve up to
// the sign of exact zeros. dst and rhs may alias.
func (s *TridiagSolver) SolveBlocks(dst, rhs []float64) {
	if len(dst) != s.n || len(rhs) != s.n {
		panic("sparse: TridiagSolver.Solve dimension mismatch")
	}
	if s.n == 0 {
		return
	}
	segs := s.Segments()
	if len(segs) <= 2 {
		s.Solve(dst, rhs)
		return
	}
	s.solveSegmentsInterleaved(segs, dst, rhs)
}

// solveSegmentsInterleaved runs the Thomas sweeps on independent blocks four
// at a time, interleaving their recurrences so the four division chains of
// the back substitutions overlap in the pipeline instead of serializing —
// the sweeps are latency-bound (each element's divide waits on the previous
// element's), and independent blocks are the only instruction-level
// parallelism a bit-exact solve can exploit. Every block performs exactly
// the arithmetic solveSegment would, in the same per-block order, so the
// result is identical to the per-segment path for any interleaving.
func (s *TridiagSolver) solveSegmentsInterleaved(segs []int, dst, rhs []float64) {
	low, diag, sup := s.low, s.diag, s.sup
	nb := len(segs) - 1
	b := 0
	for ; b+4 <= nb; b += 4 {
		a0, a1 := segs[b], segs[b+1]
		b0, b1 := segs[b+1], segs[b+2]
		c0, c1 := segs[b+2], segs[b+3]
		d0, d1 := segs[b+3], segs[b+4]
		// Forward elimination, four chains in lockstep.
		dst[a0], dst[b0], dst[c0], dst[d0] = rhs[a0], rhs[b0], rhs[c0], rhs[d0]
		ia, ib, ic, id := a0+1, b0+1, c0+1, d0+1
		for ia < a1 && ib < b1 && ic < c1 && id < d1 {
			dst[ia] = rhs[ia] - low[ia]*dst[ia-1]
			dst[ib] = rhs[ib] - low[ib]*dst[ib-1]
			dst[ic] = rhs[ic] - low[ic]*dst[ic-1]
			dst[id] = rhs[id] - low[id]*dst[id-1]
			ia, ib, ic, id = ia+1, ib+1, ic+1, id+1
		}
		for ; ia < a1; ia++ {
			dst[ia] = rhs[ia] - low[ia]*dst[ia-1]
		}
		for ; ib < b1; ib++ {
			dst[ib] = rhs[ib] - low[ib]*dst[ib-1]
		}
		for ; ic < c1; ic++ {
			dst[ic] = rhs[ic] - low[ic]*dst[ic-1]
		}
		for ; id < d1; id++ {
			dst[id] = rhs[id] - low[id]*dst[id-1]
		}
		// Back substitution, four division chains in lockstep.
		dst[a1-1] /= diag[a1-1]
		dst[b1-1] /= diag[b1-1]
		dst[c1-1] /= diag[c1-1]
		dst[d1-1] /= diag[d1-1]
		ja, jb, jc, jd := a1-2, b1-2, c1-2, d1-2
		for ja >= a0 && jb >= b0 && jc >= c0 && jd >= d0 {
			dst[ja] = (dst[ja] - sup[ja]*dst[ja+1]) / diag[ja]
			dst[jb] = (dst[jb] - sup[jb]*dst[jb+1]) / diag[jb]
			dst[jc] = (dst[jc] - sup[jc]*dst[jc+1]) / diag[jc]
			dst[jd] = (dst[jd] - sup[jd]*dst[jd+1]) / diag[jd]
			ja, jb, jc, jd = ja-1, jb-1, jc-1, jd-1
		}
		for ; ja >= a0; ja-- {
			dst[ja] = (dst[ja] - sup[ja]*dst[ja+1]) / diag[ja]
		}
		for ; jb >= b0; jb-- {
			dst[jb] = (dst[jb] - sup[jb]*dst[jb+1]) / diag[jb]
		}
		for ; jc >= c0; jc-- {
			dst[jc] = (dst[jc] - sup[jc]*dst[jc+1]) / diag[jc]
		}
		for ; jd >= d0; jd-- {
			dst[jd] = (dst[jd] - sup[jd]*dst[jd+1]) / diag[jd]
		}
	}
	for ; b < nb; b++ {
		s.solveSegment(segs[b], segs[b+1], dst, rhs)
	}
}

// solveSegment runs the Thomas sweeps on rows [lo, hi), which must form an
// independent block (low[lo] == 0 or lo == 0, sup[hi-1] == 0 or hi == n).
func (s *TridiagSolver) solveSegment(lo, hi int, dst, rhs []float64) {
	low, diag, sup := s.low, s.diag, s.sup
	dst[lo] = rhs[lo]
	for i := lo + 1; i < hi; i++ {
		dst[i] = rhs[i] - low[i]*dst[i-1]
	}
	dst[hi-1] /= diag[hi-1]
	for i := hi - 2; i >= lo; i-- {
		dst[i] = (dst[i] - sup[i]*dst[i+1]) / diag[i]
	}
}

// SolveTridiag is a one-shot convenience wrapper: factor and solve.
func SolveTridiag(t *Tridiag, rhs []float64) ([]float64, error) {
	s, err := t.Factor()
	if err != nil {
		return nil, err
	}
	dst := make([]float64, len(rhs))
	s.Solve(dst, rhs)
	return dst, nil
}

// GramTridiag computes tridiag(B * W * Bᵀ) where W = diag(w). This is the
// tridiagonal Schur-complement approximation for the single-row-height case
// (where H = Q = I, so W = H⁻¹ = I). Only the entries (i, i-1), (i, i), and
// (i, i+1) of the Gram matrix are computed, each as a sparse dot product
// between consecutive rows of B.
//
// If w is nil it is treated as all ones.
func GramTridiag(b *CSR, w []float64) *Tridiag {
	m := b.Rows
	t := NewTridiag(m)
	for i := 0; i < m; i++ {
		t.Diag[i] = weightedRowDot(b, i, i, w)
		if i > 0 {
			v := weightedRowDot(b, i, i-1, w)
			t.Sub[i] = v
			t.Sup[i-1] = v
		}
	}
	return t
}

// weightedRowDot returns Σ_k B[i,k] * w[k] * B[j,k] using a two-pointer merge
// over the sorted column indices of rows i and j.
func weightedRowDot(b *CSR, i, j int, w []float64) float64 {
	pi, ei := b.RowPtr[i], b.RowPtr[i+1]
	pj, ej := b.RowPtr[j], b.RowPtr[j+1]
	s := 0.0
	for pi < ei && pj < ej {
		ci, cj := b.ColIdx[pi], b.ColIdx[pj]
		switch {
		case ci == cj:
			wi := 1.0
			if w != nil {
				wi = w[ci]
			}
			s += b.Val[pi] * wi * b.Val[pj]
			pi++
			pj++
		case ci < cj:
			pi++
		default:
			pj++
		}
	}
	return s
}

// GramTridiagApply computes tridiag(B * W * Bᵀ) for a general symmetric
// positive definite W given only the action y = W * (sparse column vector).
// applyW receives the sparse vector as (indices, values) and must append the
// result's nonzero (index, value) pairs via the emit callback. The sparse
// vectors here are rows of B, which have at most a handful of nonzeros, and
// W⁻¹ in the legalizer couples only subcells of one multi-row cell, so each
// application is O(cell height). W·bᵢ is scattered into one dense scratch
// vector whose touched entries are cleared after each row, so the cost does
// not grow with B's column count and the loop does not allocate.
func GramTridiagApply(b *CSR, applyW func(idx []int, val []float64, emit func(int, float64))) *Tridiag {
	return GramTridiagApplyInto(new(Tridiag), make([]float64, b.Cols), b, applyW)
}

// GramTridiagApplyInto is GramTridiagApply writing into t, reusing its
// storage, with dense (length at least b.Cols) as the scatter scratch. It
// returns t.
func GramTridiagApplyInto(t *Tridiag, dense []float64, b *CSR, applyW func(idx []int, val []float64, emit func(int, float64))) *Tridiag {
	m := b.Rows
	t.resize(m)
	if m > 0 {
		t.Sub[0], t.Sup[m-1] = 0, 0
	}
	clear(dense)
	touched := make([]int, 0, 16)
	emit := func(j int, v float64) {
		dense[j] += v
		touched = append(touched, j)
	}
	for i := 0; i < m; i++ {
		lo, hi := b.RowPtr[i], b.RowPtr[i+1]
		applyW(b.ColIdx[lo:hi], b.Val[lo:hi], emit)
		t.Diag[i] = sparseDotDense(b, i, dense)
		if i > 0 {
			v := sparseDotDense(b, i-1, dense)
			t.Sub[i] = v
			t.Sup[i-1] = v
		}
		// (i, i+1) is filled when processing row i+1.
		for _, j := range touched {
			dense[j] = 0
		}
		touched = touched[:0]
	}
	return t
}

// sparseDotDense returns Σ_k B[row,k]·v[k] over the row's nonzeros. Zero
// entries of v are skipped, which is exact: the sum starts at +0 and
// adding ±0 to it never changes it.
func sparseDotDense(b *CSR, row int, v []float64) float64 {
	s := 0.0
	for k := b.RowPtr[row]; k < b.RowPtr[row+1]; k++ {
		if x := v[b.ColIdx[k]]; x != 0 {
			s += b.Val[k] * x
		}
	}
	return s
}
