// Package dense provides small dense matrices with an LU factorization. It
// backs the reference solvers (active-set QP, Lemke) used to validate the
// MMSIM legalizer on small instances; the production path never touches
// dense algebra.
package dense

import (
	"fmt"
	"math"
)

// Matrix is a row-major dense matrix.
type Matrix struct {
	R, C int
	Data []float64 // len R*C, Data[i*C+j] is entry (i, j)
}

// New allocates a zero r x c matrix.
func New(r, c int) *Matrix {
	return &Matrix{R: r, C: c, Data: make([]float64, r*c)}
}

// FromRows builds a matrix from row slices, which must be equal length.
func FromRows(rows [][]float64) *Matrix {
	r := len(rows)
	if r == 0 {
		return New(0, 0)
	}
	c := len(rows[0])
	m := New(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("dense: ragged rows: row %d has %d columns, want %d", i, len(row), c))
		}
		copy(m.Data[i*c:(i+1)*c], row)
	}
	return m
}

// At returns entry (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.C+j] }

// Set assigns entry (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.C+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := New(m.R, m.C)
	copy(out.Data, m.Data)
	return out
}

// MulVec computes dst = m * x.
func (m *Matrix) MulVec(dst, x []float64) {
	if len(dst) != m.R || len(x) != m.C {
		panic("dense: MulVec dimension mismatch")
	}
	for i := 0; i < m.R; i++ {
		s := 0.0
		row := m.Data[i*m.C : (i+1)*m.C]
		for j, v := range row {
			s += v * x[j]
		}
		dst[i] = s
	}
}

// LU holds a partially pivoted LU factorization PA = LU.
type LU struct {
	n    int
	lu   *Matrix
	perm []int // row permutation: row i of the factored matrix is original row perm[i]
	sign int
}

// Factor computes the LU factorization with partial pivoting of a square
// matrix. Returns an error if the matrix is singular to working precision.
func (m *Matrix) Factor() (*LU, error) {
	if m.R != m.C {
		return nil, fmt.Errorf("dense: Factor of non-square %dx%d matrix", m.R, m.C)
	}
	n := m.R
	f := &LU{n: n, lu: m.Clone(), perm: make([]int, n), sign: 1}
	for i := range f.perm {
		f.perm[i] = i
	}
	a := f.lu
	for k := 0; k < n; k++ {
		// Partial pivot.
		p, best := k, math.Abs(a.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(a.At(i, k)); v > best {
				p, best = i, v
			}
		}
		if best == 0 {
			return nil, fmt.Errorf("dense: singular matrix at pivot %d", k)
		}
		if p != k {
			for j := 0; j < n; j++ {
				a.Data[k*n+j], a.Data[p*n+j] = a.Data[p*n+j], a.Data[k*n+j]
			}
			f.perm[k], f.perm[p] = f.perm[p], f.perm[k]
			f.sign = -f.sign
		}
		piv := a.At(k, k)
		for i := k + 1; i < n; i++ {
			l := a.At(i, k) / piv
			a.Set(i, k, l)
			if l == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				a.Set(i, j, a.At(i, j)-l*a.At(k, j))
			}
		}
	}
	return f, nil
}

// Solve computes x with A x = b for the factored matrix.
func (f *LU) Solve(b []float64) []float64 {
	if len(b) != f.n {
		panic("dense: LU.Solve dimension mismatch")
	}
	n := f.n
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = b[f.perm[i]]
	}
	// Forward substitution with unit lower triangle.
	for i := 1; i < n; i++ {
		s := x[i]
		for j := 0; j < i; j++ {
			s -= f.lu.At(i, j) * x[j]
		}
		x[i] = s
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= f.lu.At(i, j) * x[j]
		}
		x[i] = s / f.lu.At(i, i)
	}
	return x
}

// Solve is a one-shot A x = b for a square matrix A.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	f, err := a.Factor()
	if err != nil {
		return nil, err
	}
	return f.Solve(b), nil
}
