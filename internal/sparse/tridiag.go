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
	return &Tridiag{
		Sub:  make([]float64, n),
		Diag: make([]float64, n),
		Sup:  make([]float64, n),
	}
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
func (t *Tridiag) Shifted(shift float64) *Tridiag {
	n := t.N()
	out := NewTridiag(n)
	copy(out.Sub, t.Sub)
	copy(out.Sup, t.Sup)
	for i := 0; i < n; i++ {
		out.Diag[i] = t.Diag[i] + shift
	}
	return out
}

// Scaled returns alpha*t as a new matrix.
func (t *Tridiag) Scaled(alpha float64) *Tridiag {
	n := t.N()
	out := NewTridiag(n)
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
	// computed eagerly by Factor so concurrent SolveP calls never mutate
	// solver state.
	segments []int
}

// Factor computes the LU factorization of t. It returns an error if a pivot
// underflows, which for the diagonally dominant matrices produced by the
// MMSIM splitting indicates a malformed input.
func (t *Tridiag) Factor() (*TridiagSolver, error) {
	n := t.N()
	s := &TridiagSolver{
		n:    n,
		low:  make([]float64, n),
		diag: make([]float64, n),
		sup:  t.Sup,
	}
	if n == 0 {
		return s, nil
	}
	s.diag[0] = t.Diag[0]
	for i := 1; i < n; i++ {
		piv := s.diag[i-1]
		if piv == 0 {
			return nil, fmt.Errorf("sparse: zero pivot at row %d during tridiagonal factorization", i-1)
		}
		s.low[i] = t.Sub[i] / piv
		s.diag[i] = t.Diag[i] - s.low[i]*t.Sup[i-1]
	}
	if s.diag[n-1] == 0 {
		return nil, fmt.Errorf("sparse: zero pivot at row %d during tridiagonal factorization", n-1)
	}
	s.Segments()
	return s, nil
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
	m := b.Rows
	t := NewTridiag(m)
	dense := make([]float64, b.Cols)
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
