package sparse

import (
	"math"
	"math/rand"
	"testing"
)

// randCSR builds a random rows×cols matrix with roughly density·rows·cols
// stored entries (duplicates summed by the Builder).
func randCSR(rng *rand.Rand, rows, cols int, density float64) *CSR {
	b := NewBuilder(rows, cols)
	nnz := int(density * float64(rows) * float64(cols))
	for k := 0; k < nnz; k++ {
		b.Add(rng.Intn(rows), rng.Intn(cols), rng.NormFloat64())
	}
	// Guarantee a stored diagonal so tests can probe hits and misses.
	for i := 0; i < rows && i < cols; i++ {
		b.Add(i, i, 1+rng.Float64())
	}
	return b.Build()
}

func TestAtBinarySearchMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		rows, cols := 1+rng.Intn(40), 1+rng.Intn(40)
		m := randCSR(rng, rows, cols, rng.Float64())
		d := m.Dense()
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if got := m.At(i, j); got != d[i][j] {
					t.Fatalf("trial %d: At(%d,%d) = %g, dense %g", trial, i, j, got, d[i][j])
				}
			}
		}
	}
	// Wide row: the binary search must find every column in a long run.
	b := NewBuilder(1, 500)
	for j := 0; j < 500; j += 2 {
		b.Add(0, j, float64(j)+1)
	}
	m := b.Build()
	for j := 0; j < 500; j++ {
		want := 0.0
		if j%2 == 0 {
			want = float64(j) + 1
		}
		if got := m.At(0, j); got != want {
			t.Fatalf("wide row: At(0,%d) = %g, want %g", j, got, want)
		}
	}
}

// unfusedModulusRHS is the pre-fusion sweep sequence the fused kernel must
// reproduce bit for bit.
func unfusedModulusRHS(m *CSR, rhs, omega, a, q []float64, gamma float64) {
	if omega == nil {
		Axpy(rhs, 1, a)
	} else {
		for i := range rhs {
			rhs[i] += omega[i] * a[i]
		}
	}
	m.AddMulVec(rhs, a, -1)
	Axpy(rhs, -gamma, q)
}

func TestFusedModulusRHSMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 10; trial++ {
		n := 1 + rng.Intn(300)
		m := randCSR(rng, n, n, 0.05)
		base := randVec(rng, n)
		a := randVec(rng, n)
		q := randVec(rng, n)
		gamma := []float64{1, 0.5, 2}[trial%3]
		var omega []float64
		if trial%2 == 1 {
			omega = randVec(rng, n)
		}
		want := append([]float64(nil), base...)
		unfusedModulusRHS(m, want, omega, a, q, gamma)
		got := append([]float64(nil), base...)
		m.FusedModulusRHS(got, omega, a, q, gamma)
		sameBits(t, "FusedModulusRHS", got, want)
	}
}

func TestFusedZUpdateMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 10; trial++ {
		n := 1 + rng.Intn(9000)
		s := randVec(rng, n)
		zPrev := randVec(rng, n)
		gamma := []float64{1, 0.5, 2}[trial%3]
		if trial == 7 {
			s[n/2] = math.Inf(1) // the finiteness verdict must flip
		}
		// Unfused reference: separate abs, transform, finite, and norm passes.
		wantAbs := make([]float64, n)
		Abs(wantAbs, s)
		wantZ := make([]float64, n)
		for i := range wantZ {
			wantZ[i] = (math.Abs(s[i]) + s[i]) / gamma
		}
		wantOK := true
		for _, v := range wantZ {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				wantOK = false
			}
		}
		wantDz := DiffNormInf(wantZ, zPrev)
		z := make([]float64, n)
		absS := make([]float64, n)
		dz, ok := FusedZUpdate(z, zPrev, s, absS, gamma)
		sameBits(t, "FusedZUpdate z", z, wantZ)
		sameBits(t, "FusedZUpdate absS", absS, wantAbs)
		if ok != wantOK {
			t.Fatalf("trial %d: finite = %v, want %v", trial, ok, wantOK)
		}
		if wantOK && math.Float64bits(dz) != math.Float64bits(wantDz) {
			t.Fatalf("trial %d: dz = %x, want %x", trial, math.Float64bits(dz), math.Float64bits(wantDz))
		}
	}
}

func TestScaleAddMulVecMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 10; trial++ {
		rows, cols := 1+rng.Intn(200), 1+rng.Intn(200)
		m := randCSR(rng, rows, cols, 0.1)
		base := randVec(rng, rows)
		x := randVec(rng, cols)
		alpha := rng.NormFloat64()
		coef := []float64{1, 1, -0.5, 3}[trial%4]
		// coef == 1 must match copy-then-AddMulVec exactly; coef != 1 the
		// scaled form.
		want := make([]float64, rows)
		if coef == 1 {
			copy(want, base)
		} else {
			for i := range want {
				want[i] = coef * base[i]
			}
		}
		m.AddMulVec(want, x, alpha)
		got := make([]float64, rows)
		m.ScaleAddMulVec(got, base, coef, x, alpha)
		sameBits(t, "ScaleAddMulVec", got, want)
	}
}
