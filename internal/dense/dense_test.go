package dense

import (
	"math"
	"math/rand"
	"testing"
)

func TestFromRowsAndAccess(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	if m.R != 2 || m.C != 2 {
		t.Fatalf("dims = %dx%d", m.R, m.C)
	}
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Error("At returned wrong entries")
	}
	m.Set(1, 1, 9)
	if m.At(1, 1) != 9 {
		t.Error("Set did not stick")
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestMulVecAndT(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	dst := make([]float64, 2)
	m.MulVec(dst, []float64{1, 1, 1})
	if dst[0] != 6 || dst[1] != 15 {
		t.Errorf("MulVec = %v", dst)
	}
}

func TestLUSolveKnown(t *testing.T) {
	a := FromRows([][]float64{{2, 1}, {1, 3}})
	x, err := Solve(a, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Errorf("x = %v, want [1 3]", x)
	}
}

func TestLUSolveNeedsPivoting(t *testing.T) {
	// Zero leading pivot forces a row swap.
	a := FromRows([][]float64{{0, 1}, {1, 0}})
	x, err := Solve(a, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 3 || x[1] != 2 {
		t.Errorf("x = %v, want [3 2]", x)
	}
}

func TestLUSingular(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := Solve(a, []float64{1, 2}); err == nil {
		t.Error("expected singular-matrix error")
	}
}

func TestLURandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(15)
		a := New(n, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		// Boost the diagonal so the matrix is comfortably nonsingular.
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n))
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b := make([]float64, n)
		a.MulVec(b, want)
		got, err := Solve(a, b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-8 {
				t.Fatalf("trial %d: x[%d] = %g, want %g", trial, i, got[i], want[i])
			}
		}
	}
}
