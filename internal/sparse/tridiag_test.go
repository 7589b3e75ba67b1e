package sparse

import (
	"math"
	"math/rand"
	"testing"
)

func TestTridiagMulVec(t *testing.T) {
	// [2 1 0]
	// [1 2 1]
	// [0 1 2]
	tr := NewTridiag(3)
	tr.Diag[0], tr.Diag[1], tr.Diag[2] = 2, 2, 2
	tr.Sub[1], tr.Sub[2] = 1, 1
	tr.Sup[0], tr.Sup[1] = 1, 1
	dst := make([]float64, 3)
	tr.MulVec(dst, []float64{1, 2, 3})
	want := []float64{4, 8, 8}
	for i := range want {
		if dst[i] != want[i] {
			t.Errorf("MulVec[%d] = %g, want %g", i, dst[i], want[i])
		}
	}
}

func TestTridiagSolveKnown(t *testing.T) {
	tr := NewTridiag(3)
	tr.Diag[0], tr.Diag[1], tr.Diag[2] = 2, 2, 2
	tr.Sub[1], tr.Sub[2] = 1, 1
	tr.Sup[0], tr.Sup[1] = 1, 1
	x, err := SolveTridiag(tr, []float64{4, 8, 8})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-12 {
			t.Errorf("x[%d] = %g, want %g", i, x[i], want[i])
		}
	}
}

func TestTridiagSolveRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(40)
		tr := NewTridiag(n)
		for i := 0; i < n; i++ {
			// Strictly diagonally dominant: guaranteed nonsingular.
			tr.Diag[i] = 4 + rng.Float64()
			if i > 0 {
				tr.Sub[i] = rng.NormFloat64()
			}
			if i < n-1 {
				tr.Sup[i] = rng.NormFloat64()
			}
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		rhs := make([]float64, n)
		tr.MulVec(rhs, want)
		got, err := SolveTridiag(tr, rhs)
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

func TestTridiagSolveInPlaceAlias(t *testing.T) {
	tr := NewTridiag(4)
	for i := 0; i < 4; i++ {
		tr.Diag[i] = 3
	}
	tr.Sub[1], tr.Sub[2], tr.Sub[3] = -1, -1, -1
	tr.Sup[0], tr.Sup[1], tr.Sup[2] = -1, -1, -1
	s, err := tr.Factor()
	if err != nil {
		t.Fatal(err)
	}
	rhs := []float64{1, 2, 3, 4}
	ref := make([]float64, 4)
	s.Solve(ref, rhs)
	// Aliased solve must give the same answer.
	s.Solve(rhs, rhs)
	for i := range ref {
		if rhs[i] != ref[i] {
			t.Errorf("aliased solve differs at %d: %g vs %g", i, rhs[i], ref[i])
		}
	}
}

func TestTridiagZeroPivot(t *testing.T) {
	tr := NewTridiag(2)
	tr.Diag[0] = 0
	tr.Diag[1] = 1
	if _, err := tr.Factor(); err == nil {
		t.Error("expected error for singular leading pivot")
	}
}

func TestTridiagEmptyAndSingle(t *testing.T) {
	empty := NewTridiag(0)
	if _, err := SolveTridiag(empty, nil); err != nil {
		t.Fatalf("empty solve: %v", err)
	}
	one := NewTridiag(1)
	one.Diag[0] = 4
	x, err := SolveTridiag(one, []float64{8})
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 2 {
		t.Errorf("1x1 solve = %g, want 2", x[0])
	}
}

func TestShiftedScaled(t *testing.T) {
	tr := NewTridiag(2)
	tr.Diag[0], tr.Diag[1] = 1, 2
	tr.Sup[0], tr.Sub[1] = 3, 4
	sh := tr.Shifted(10)
	if sh.Diag[0] != 11 || sh.Diag[1] != 12 || sh.Sup[0] != 3 || sh.Sub[1] != 4 {
		t.Errorf("Shifted wrong: %+v", sh)
	}
	sc := tr.Scaled(2)
	if sc.Diag[0] != 2 || sc.Sup[0] != 6 || sc.Sub[1] != 8 {
		t.Errorf("Scaled wrong: %+v", sc)
	}
	// Originals untouched.
	if tr.Diag[0] != 1 || tr.Sup[0] != 3 {
		t.Error("Shifted/Scaled mutated receiver")
	}
}

func TestGramTridiagMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		rows := 1 + rng.Intn(8)
		cols := 1 + rng.Intn(10)
		b := randomCSR(rng, rows, cols, 0.4)
		w := make([]float64, cols)
		for i := range w {
			w[i] = 0.5 + rng.Float64()
		}
		tr := GramTridiag(b, w)
		d := b.Dense()
		gram := func(i, j int) float64 {
			s := 0.0
			for k := 0; k < cols; k++ {
				s += d[i][k] * w[k] * d[j][k]
			}
			return s
		}
		for i := 0; i < rows; i++ {
			if math.Abs(tr.Diag[i]-gram(i, i)) > 1e-12 {
				t.Fatalf("diag[%d] = %g, want %g", i, tr.Diag[i], gram(i, i))
			}
			if i > 0 && math.Abs(tr.Sub[i]-gram(i, i-1)) > 1e-12 {
				t.Fatalf("sub[%d] = %g, want %g", i, tr.Sub[i], gram(i, i-1))
			}
			if i < rows-1 && math.Abs(tr.Sup[i]-gram(i, i+1)) > 1e-12 {
				t.Fatalf("sup[%d] = %g, want %g", i, tr.Sup[i], gram(i, i+1))
			}
		}
	}
}

func TestGramTridiagNilWeights(t *testing.T) {
	b := NewBuilder(2, 3)
	b.Add(0, 0, -1)
	b.Add(0, 1, 1)
	b.Add(1, 1, -1)
	b.Add(1, 2, 1)
	m := b.Build()
	tr := GramTridiag(m, nil)
	// Row dot products: diag = 2, off-diag = -1 (shared column 1).
	if tr.Diag[0] != 2 || tr.Diag[1] != 2 {
		t.Errorf("diag = %v, want [2 2]", tr.Diag)
	}
	if tr.Sub[1] != -1 || tr.Sup[0] != -1 {
		t.Errorf("off-diag = %g/%g, want -1", tr.Sub[1], tr.Sup[0])
	}
}

func TestGramTridiagApplyMatchesDiagonalCase(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		rows := 1 + rng.Intn(8)
		cols := 1 + rng.Intn(10)
		b := randomCSR(rng, rows, cols, 0.4)
		w := make([]float64, cols)
		for i := range w {
			w[i] = 0.5 + rng.Float64()
		}
		want := GramTridiag(b, w)
		got := GramTridiagApply(b, func(idx []int, val []float64, emit func(int, float64)) {
			for k, j := range idx {
				emit(j, w[j]*val[k])
			}
		})
		for i := 0; i < rows; i++ {
			if math.Abs(got.Diag[i]-want.Diag[i]) > 1e-12 ||
				math.Abs(got.Sub[i]-want.Sub[i]) > 1e-12 ||
				math.Abs(got.Sup[i]-want.Sup[i]) > 1e-12 {
				t.Fatalf("trial %d row %d: apply version differs", trial, i)
			}
		}
	}
}

// gramTridiagApplyMap is the map-scatter GramTridiagApply that the
// dense-scratch version replaced, kept as the bit-for-bit reference.
func gramTridiagApplyMap(b *CSR, applyW func(idx []int, val []float64, emit func(int, float64))) *Tridiag {
	m := b.Rows
	t := NewTridiag(m)
	dense := make(map[int]float64, 8)
	for i := 0; i < m; i++ {
		lo, hi := b.RowPtr[i], b.RowPtr[i+1]
		clear(dense)
		applyW(b.ColIdx[lo:hi], b.Val[lo:hi], func(j int, v float64) {
			dense[j] += v
		})
		t.Diag[i] = sparseDotMap(b, i, dense)
		if i > 0 {
			v := sparseDotMap(b, i-1, dense)
			t.Sub[i] = v
			t.Sup[i-1] = v
		}
	}
	return t
}

func sparseDotMap(b *CSR, row int, v map[int]float64) float64 {
	s := 0.0
	for k := b.RowPtr[row]; k < b.RowPtr[row+1]; k++ {
		if x, ok := v[b.ColIdx[k]]; ok {
			s += b.Val[k] * x
		}
	}
	return s
}

// blockW is a block-diagonal SPD W whose blocks span 1–4 consecutive
// columns, applied the way core.Problem.ApplyHInvSparse applies H⁻¹: every
// block the input touches is multiplied once and each of its variables is
// emitted at most once.
type blockW struct {
	block []int       // column → block
	start []int       // block → first column; start[len] = cols
	w     [][]float64 // block → row-major d×d matrix M·Mᵀ + I
}

func (bw *blockW) apply(idx []int, val []float64, emit func(int, float64)) {
	var x [4]float64
next:
	for n, j := range idx {
		blk := bw.block[j]
		for _, e := range idx[:n] {
			if bw.block[e] == blk {
				continue next
			}
		}
		lo := bw.start[blk]
		d := bw.start[blk+1] - lo
		x = [4]float64{}
		for m := n; m < len(idx); m++ {
			if bw.block[idx[m]] == blk {
				x[idx[m]-lo] += val[m]
			}
		}
		for r := 0; r < d; r++ {
			y := 0.0
			for c := 0; c < d; c++ {
				y += bw.w[blk][r*d+c] * x[c]
			}
			if y != 0 {
				emit(lo+r, y)
			}
		}
	}
}

// randomBlockGram draws a block-diagonal W with blocks of 1–4 columns and
// an m-row B whose rows hold 1–3 entries near the diagonal band, mixing
// rows that stay inside one block with rows that span two or three.
func randomBlockGram(rng *rand.Rand, m int) (*CSR, *blockW) {
	bw := &blockW{}
	for len(bw.block) < max(2*m, 8) {
		d := 1 + rng.Intn(4)
		blk := len(bw.start)
		bw.start = append(bw.start, len(bw.block))
		mm := make([]float64, d*d)
		for i := range mm {
			mm[i] = rng.NormFloat64()
		}
		w := make([]float64, d*d)
		for r := 0; r < d; r++ {
			for c := 0; c < d; c++ {
				for k := 0; k < d; k++ {
					w[r*d+c] += mm[r*d+k] * mm[c*d+k]
				}
			}
			w[r*d+r]++
		}
		bw.w = append(bw.w, w)
		for k := 0; k < d; k++ {
			bw.block = append(bw.block, blk)
		}
	}
	cols := len(bw.block)
	bw.start = append(bw.start, cols)
	b := NewBuilder(m, cols)
	for i := 0; i < m; i++ {
		base := min(cols-6, 2*i+rng.Intn(3))
		used := map[int]bool{}
		for k := 1 + rng.Intn(3); k > 0; k-- {
			j := base + rng.Intn(6)
			if used[j] {
				continue
			}
			used[j] = true
			v := 1.0
			if rng.Intn(2) == 0 {
				v = -1
			}
			if rng.Intn(3) == 0 {
				v = rng.NormFloat64()
			}
			b.Add(i, j, v)
		}
	}
	return b.Build(), bw
}

// TestGramTridiagApplyMatchesMapReference pins the dense-scratch scatter to
// the map-based one bit for bit on random block-structured problems.
func TestGramTridiagApplyMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	spans := 0
	for trial := 0; trial < 200; trial++ {
		b, bw := randomBlockGram(rng, 1+rng.Intn(40))
		for i := 0; i < b.Rows; i++ {
			lo, hi := b.RowPtr[i], b.RowPtr[i+1]
			if hi-lo >= 2 && bw.block[b.ColIdx[lo]] != bw.block[b.ColIdx[hi-1]] {
				spans++
			}
		}
		want := gramTridiagApplyMap(b, bw.apply)
		got := GramTridiagApply(b, bw.apply)
		for i := 0; i < b.Rows; i++ {
			for _, pair := range [][2]float64{{got.Diag[i], want.Diag[i]}, {got.Sub[i], want.Sub[i]}, {got.Sup[i], want.Sup[i]}} {
				if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
					t.Fatalf("trial %d row %d: dense scatter %v, map reference %v", trial, i, pair[0], pair[1])
				}
			}
		}
	}
	if spans == 0 {
		t.Fatal("no row had entries in two blocks")
	}
}

// TestGramTridiagApplyAllocsBounded pins the scatter's allocations to a
// constant: the result, the scratch and the emit closure, however many
// rows B has.
func TestGramTridiagApplyAllocsBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, m := range []int{20, 2000} {
		b, bw := randomBlockGram(rng, m)
		apply := bw.apply
		allocs := testing.AllocsPerRun(10, func() { GramTridiagApply(b, apply) })
		if allocs > 8 {
			t.Errorf("%d rows: %.0f allocs per call, want ≤ 8", m, allocs)
		}
	}
}
