// Package sparse provides the hand-rolled sparse linear algebra used by the
// MMSIM legalizer: CSR matrices built from coordinate triplets, sparse
// matrix-vector products, tridiagonal systems solved by the Thomas
// algorithm, and a power iteration for estimating dominant eigenvalues.
//
// The Go ecosystem has no stdlib sparse support, so everything here is
// implemented from scratch against plain float64 slices. All operations are
// deterministic and allocation-conscious: the solver hot loop reuses
// caller-provided destination slices.
package sparse

import (
	"fmt"
	"sort"
)

// CSR is a sparse matrix in compressed sparse row format.
//
// Row i occupies ColIdx[RowPtr[i]:RowPtr[i+1]] and Val[RowPtr[i]:RowPtr[i+1]],
// with column indices strictly increasing within each row.
type CSR struct {
	Rows, Cols int
	RowPtr     []int
	ColIdx     []int
	Val        []float64
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.Val) }

// At returns the entry at (i, j), or 0 if it is not stored. Column indices
// are strictly increasing within a row, so the lookup is a hand-rolled
// binary search over the row's column slice — O(log nnz(row i)) with no
// closure dispatch, cheap enough for the audit and debug paths that call it
// per entry.
func (m *CSR) At(i, j int) float64 {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if m.ColIdx[mid] < j {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < m.RowPtr[i+1] && m.ColIdx[lo] == j {
		return m.Val[lo]
	}
	return 0
}

// MulVec computes dst = m * x. dst must have length m.Rows and must not
// alias x.
func (m *CSR) MulVec(dst, x []float64) {
	if len(dst) != m.Rows || len(x) != m.Cols {
		panic(fmt.Sprintf("sparse: MulVec dimension mismatch: m is %dx%d, dst %d, x %d",
			m.Rows, m.Cols, len(dst), len(x)))
	}
	for i := 0; i < m.Rows; i++ {
		s := 0.0
		cols := m.ColIdx[m.RowPtr[i]:m.RowPtr[i+1]]
		vals := m.Val[m.RowPtr[i]:m.RowPtr[i+1]]
		vals = vals[:len(cols)]
		for k, c := range cols {
			s += vals[k] * x[c]
		}
		dst[i] = s
	}
}

// MulVecT computes dst = mᵀ * x without materializing the transpose.
// dst must have length m.Cols and must not alias x.
func (m *CSR) MulVecT(dst, x []float64) {
	if len(dst) != m.Cols || len(x) != m.Rows {
		panic(fmt.Sprintf("sparse: MulVecT dimension mismatch: m is %dx%d, dst %d, x %d",
			m.Rows, m.Cols, len(dst), len(x)))
	}
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < m.Rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			dst[m.ColIdx[k]] += m.Val[k] * xi
		}
	}
}

// AddMulVec computes dst += alpha * m * x.
func (m *CSR) AddMulVec(dst, x []float64, alpha float64) {
	if len(dst) != m.Rows || len(x) != m.Cols {
		panic("sparse: AddMulVec dimension mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		s := 0.0
		cols := m.ColIdx[m.RowPtr[i]:m.RowPtr[i+1]]
		vals := m.Val[m.RowPtr[i]:m.RowPtr[i+1]]
		vals = vals[:len(cols)]
		for k, c := range cols {
			s += vals[k] * x[c]
		}
		dst[i] += alpha * s
	}
}

// AddMulVecT computes dst += alpha * mᵀ * x.
func (m *CSR) AddMulVecT(dst, x []float64, alpha float64) {
	if len(dst) != m.Cols || len(x) != m.Rows {
		panic("sparse: AddMulVecT dimension mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		xi := alpha * x[i]
		if xi == 0 {
			continue
		}
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			dst[m.ColIdx[k]] += m.Val[k] * xi
		}
	}
}

// Transpose returns a new CSR holding mᵀ.
func (m *CSR) Transpose() *CSR { return m.TransposeInto(new(CSR)) }

// TransposeInto writes mᵀ into t, reusing t's storage, and returns t.
func (m *CSR) TransposeInto(t *CSR) *CSR {
	t.Rows, t.Cols = m.Cols, m.Rows
	t.RowPtr = grow(t.RowPtr, m.Cols+1)
	t.ColIdx = grow(t.ColIdx, m.NNZ())
	t.Val = grow(t.Val, m.NNZ())
	clear(t.RowPtr)
	// Count entries per column of m.
	for _, j := range m.ColIdx {
		t.RowPtr[j+1]++
	}
	for j := 0; j < m.Cols; j++ {
		t.RowPtr[j+1] += t.RowPtr[j]
	}
	// RowPtr[j] serves as row j's fill cursor, which ends at the row's end —
	// the next row's start — so shifting the pointers right by one restores
	// the starts.
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			j := m.ColIdx[k]
			p := t.RowPtr[j]
			t.ColIdx[p] = i
			t.Val[p] = m.Val[k]
			t.RowPtr[j]++
		}
	}
	copy(t.RowPtr[1:], t.RowPtr[:m.Cols])
	t.RowPtr[0] = 0
	return t
}

// Dense expands the matrix into a row-major dense [][]float64.
// Intended for tests on small instances only.
func (m *CSR) Dense() [][]float64 {
	d := make([][]float64, m.Rows)
	for i := range d {
		d[i] = make([]float64, m.Cols)
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			d[i][m.ColIdx[k]] = m.Val[k]
		}
	}
	return d
}

// Validate checks the structural invariants of the CSR layout and returns a
// descriptive error on the first violation.
func (m *CSR) Validate() error {
	if len(m.RowPtr) != m.Rows+1 {
		return fmt.Errorf("sparse: RowPtr length %d, want %d", len(m.RowPtr), m.Rows+1)
	}
	if m.RowPtr[0] != 0 {
		return fmt.Errorf("sparse: RowPtr[0] = %d, want 0", m.RowPtr[0])
	}
	if m.RowPtr[m.Rows] != len(m.Val) || len(m.ColIdx) != len(m.Val) {
		return fmt.Errorf("sparse: nnz mismatch: RowPtr end %d, ColIdx %d, Val %d",
			m.RowPtr[m.Rows], len(m.ColIdx), len(m.Val))
	}
	for i := 0; i < m.Rows; i++ {
		if m.RowPtr[i] > m.RowPtr[i+1] {
			return fmt.Errorf("sparse: RowPtr not monotone at row %d", i)
		}
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			j := m.ColIdx[k]
			if j < 0 || j >= m.Cols {
				return fmt.Errorf("sparse: column %d out of range in row %d", j, i)
			}
			if k > m.RowPtr[i] && m.ColIdx[k-1] >= j {
				return fmt.Errorf("sparse: columns not strictly increasing in row %d", i)
			}
		}
	}
	return nil
}

// Builder accumulates coordinate-format (row, col, value) triplets and
// compiles them into a CSR matrix. Duplicate coordinates are summed, which
// makes assembling finite-difference-style constraint matrices convenient.
type Builder struct {
	rows, cols int
	ri, ci     []int
	v          []float64
}

// NewBuilder returns a builder for a rows x cols matrix.
func NewBuilder(rows, cols int) *Builder {
	return &Builder{rows: rows, cols: cols}
}

// Add records value v at (i, j). Duplicates accumulate.
func (b *Builder) Add(i, j int, v float64) {
	if i < 0 || i >= b.rows || j < 0 || j >= b.cols {
		panic(fmt.Sprintf("sparse: Builder.Add(%d, %d) out of %dx%d", i, j, b.rows, b.cols))
	}
	b.ri = append(b.ri, i)
	b.ci = append(b.ci, j)
	b.v = append(b.v, v)
}

// Build compiles the accumulated triplets into a CSR matrix.
// Entries that sum to exactly zero are kept (structural zeros), keeping the
// sparsity pattern predictable for callers that built it deliberately.
func (b *Builder) Build() *CSR {
	m := &CSR{Rows: b.rows, Cols: b.cols, RowPtr: make([]int, b.rows+1)}
	// Counting sort by row.
	for _, i := range b.ri {
		m.RowPtr[i+1]++
	}
	for i := 0; i < b.rows; i++ {
		m.RowPtr[i+1] += m.RowPtr[i]
	}
	nnz := len(b.v)
	colTmp := make([]int, nnz)
	valTmp := make([]float64, nnz)
	next := make([]int, b.rows)
	copy(next, m.RowPtr[:b.rows])
	for k := range b.v {
		i := b.ri[k]
		p := next[i]
		colTmp[p] = b.ci[k]
		valTmp[p] = b.v[k]
		next[i]++
	}
	// Sort within each row and merge duplicates.
	m.ColIdx = make([]int, 0, nnz)
	m.Val = make([]float64, 0, nnz)
	for i := 0; i < b.rows; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		row := rowSorter{colTmp[lo:hi], valTmp[lo:hi]}
		sort.Sort(row)
		start := len(m.ColIdx)
		for k := 0; k < len(row.col); k++ {
			if n := len(m.ColIdx); n > start && m.ColIdx[n-1] == row.col[k] {
				m.Val[n-1] += row.val[k]
			} else {
				m.ColIdx = append(m.ColIdx, row.col[k])
				m.Val = append(m.Val, row.val[k])
			}
		}
		m.RowPtr[i] = start
	}
	m.RowPtr[b.rows] = len(m.ColIdx)
	return m
}

type rowSorter struct {
	col []int
	val []float64
}

func (r rowSorter) Len() int           { return len(r.col) }
func (r rowSorter) Less(i, j int) bool { return r.col[i] < r.col[j] }
func (r rowSorter) Swap(i, j int) {
	r.col[i], r.col[j] = r.col[j], r.col[i]
	r.val[i], r.val[j] = r.val[j], r.val[i]
}

// Identity returns the n x n identity matrix in CSR form.
func Identity(n int) *CSR {
	m := &CSR{Rows: n, Cols: n, RowPtr: make([]int, n+1), ColIdx: make([]int, n), Val: make([]float64, n)}
	for i := 0; i < n; i++ {
		m.RowPtr[i+1] = i + 1
		m.ColIdx[i] = i
		m.Val[i] = 1
	}
	return m
}
