package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func buildExample() *CSR {
	// [ 1 0 2 ]
	// [ 0 3 0 ]
	// [ 4 0 5 ]
	b := NewBuilder(3, 3)
	b.Add(0, 0, 1)
	b.Add(0, 2, 2)
	b.Add(1, 1, 3)
	b.Add(2, 0, 4)
	b.Add(2, 2, 5)
	return b.Build()
}

func TestBuilderAndAt(t *testing.T) {
	m := buildExample()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 5 {
		t.Fatalf("NNZ = %d, want 5", m.NNZ())
	}
	want := [][]float64{{1, 0, 2}, {0, 3, 0}, {4, 0, 5}}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if got := m.At(i, j); got != want[i][j] {
				t.Errorf("At(%d,%d) = %g, want %g", i, j, got, want[i][j])
			}
		}
	}
}

func TestBuilderDuplicatesSum(t *testing.T) {
	b := NewBuilder(2, 2)
	b.Add(0, 1, 2)
	b.Add(0, 1, 3)
	b.Add(1, 0, -1)
	m := b.Build()
	if got := m.At(0, 1); got != 5 {
		t.Errorf("duplicate sum = %g, want 5", got)
	}
	if m.NNZ() != 2 {
		t.Errorf("NNZ = %d, want 2 after merging", m.NNZ())
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderUnsortedInsertOrder(t *testing.T) {
	b := NewBuilder(1, 5)
	b.Add(0, 4, 4)
	b.Add(0, 0, 1)
	b.Add(0, 2, 2)
	m := b.Build()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 1 || m.At(0, 2) != 2 || m.At(0, 4) != 4 {
		t.Errorf("entries misplaced: %v %v", m.ColIdx, m.Val)
	}
}

func TestMulVec(t *testing.T) {
	m := buildExample()
	x := []float64{1, 2, 3}
	dst := make([]float64, 3)
	m.MulVec(dst, x)
	want := []float64{7, 6, 19}
	for i := range want {
		if dst[i] != want[i] {
			t.Errorf("MulVec[%d] = %g, want %g", i, dst[i], want[i])
		}
	}
}

func TestMulVecT(t *testing.T) {
	m := buildExample()
	x := []float64{1, 2, 3}
	dst := make([]float64, 3)
	m.MulVecT(dst, x)
	want := []float64{13, 6, 17} // mᵀx
	for i := range want {
		if dst[i] != want[i] {
			t.Errorf("MulVecT[%d] = %g, want %g", i, dst[i], want[i])
		}
	}
}

func TestAddMulVecVariants(t *testing.T) {
	m := buildExample()
	x := []float64{1, 2, 3}
	dst := []float64{10, 10, 10}
	m.AddMulVec(dst, x, 2)
	want := []float64{24, 22, 48}
	for i := range want {
		if dst[i] != want[i] {
			t.Errorf("AddMulVec[%d] = %g, want %g", i, dst[i], want[i])
		}
	}
}

func TestTranspose(t *testing.T) {
	m := buildExample()
	tr := m.TransposeInto(new(CSR))
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Errorf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestIdentity(t *testing.T) {
	id := Identity(4)
	if err := id.Validate(); err != nil {
		t.Fatal(err)
	}
	x := []float64{4, 3, 2, 1}
	dst := make([]float64, 4)
	id.MulVec(dst, x)
	for i := range x {
		if dst[i] != x[i] {
			t.Errorf("identity MulVec changed x at %d", i)
		}
	}
}

func TestMulVecPanicsOnMismatch(t *testing.T) {
	m := buildExample()
	defer func() {
		if recover() == nil {
			t.Error("expected panic on dimension mismatch")
		}
	}()
	m.MulVec(make([]float64, 2), make([]float64, 3))
}

// randomCSR builds a random rows x cols CSR with the given fill density.
func randomCSR(rng *rand.Rand, rows, cols int, density float64) *CSR {
	b := NewBuilder(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				b.Add(i, j, rng.NormFloat64())
			}
		}
	}
	return b.Build()
}

// Property: sparse MulVec agrees with the dense expansion.
func TestMulVecMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		rows := 1 + rng.Intn(12)
		cols := 1 + rng.Intn(12)
		m := randomCSR(rng, rows, cols, 0.4)
		if err := m.Validate(); err != nil {
			t.Fatal(err)
		}
		x := make([]float64, cols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		got := make([]float64, rows)
		m.MulVec(got, x)
		d := m.Dense()
		for i := 0; i < rows; i++ {
			want := 0.0
			for j := 0; j < cols; j++ {
				want += d[i][j] * x[j]
			}
			if math.Abs(got[i]-want) > 1e-12*math.Max(1, math.Abs(want)) {
				t.Fatalf("trial %d: MulVec[%d] = %g, dense %g", trial, i, got[i], want)
			}
		}
	}
}

// Property: MulVecT agrees with MulVec on the transpose.
func TestMulVecTMatchesTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		rows := 1 + rng.Intn(12)
		cols := 1 + rng.Intn(12)
		m := randomCSR(rng, rows, cols, 0.4)
		x := make([]float64, rows)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		got := make([]float64, cols)
		m.MulVecT(got, x)
		want := make([]float64, cols)
		m.TransposeInto(new(CSR)).MulVec(want, x)
		for j := range want {
			if math.Abs(got[j]-want[j]) > 1e-12*math.Max(1, math.Abs(want[j])) {
				t.Fatalf("trial %d: MulVecT[%d] = %g, want %g", trial, j, got[j], want[j])
			}
		}
	}
}

// Property: double transpose is the identity on the stored structure.
func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomCSR(rng, 1+rng.Intn(10), 1+rng.Intn(10), 0.3)
		tt := m.TransposeInto(new(CSR)).TransposeInto(new(CSR))
		if tt.Rows != m.Rows || tt.Cols != m.Cols || tt.NNZ() != m.NNZ() {
			return false
		}
		for i := 0; i < m.Rows; i++ {
			for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
				if tt.ColIdx[k] != m.ColIdx[k] || tt.Val[k] != m.Val[k] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
