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

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(8)-4))
	}
	return v
}

func sameBits(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: index %d: %g (%x) vs %g (%x)", name, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// segmentedTridiag builds a block tridiagonal matrix out of nBlocks
// independent diagonally dominant blocks — the shape of the legalizer's
// Schur matrix D, whose blocks are the per-placement-row constraint chains.
func segmentedTridiag(rng *rand.Rand, nBlocks, blockLen int) *Tridiag {
	n := nBlocks * blockLen
	tr := NewTridiag(n)
	for i := 0; i < n; i++ {
		tr.Diag[i] = 4 + rng.Float64()
		if i%blockLen != 0 && i > 0 {
			v := rng.NormFloat64()
			tr.Sub[i] = v
			tr.Sup[i-1] = v
		}
	}
	return tr
}

func TestTridiagSegments(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	tr := segmentedTridiag(rng, 7, 13)
	s, err := tr.Factor()
	if err != nil {
		t.Fatal(err)
	}
	segs := s.Segments()
	if len(segs) != 8 {
		t.Fatalf("got %d boundaries (%v), want 8", len(segs), segs)
	}
	for b := 0; b < 7; b++ {
		if segs[b] != b*13 {
			t.Fatalf("segment %d starts at %d, want %d", b, segs[b], b*13)
		}
	}
	if segs[7] != 7*13 {
		t.Fatalf("terminator %d, want %d", segs[7], 7*13)
	}
}

// TestTridiagSolvePMatchesSerial pins the block solve, SolveBlocks, to
// Solve bit for bit, with and without aliased dst/rhs.
func TestTridiagSolvePMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for _, shape := range []struct{ blocks, blockLen int }{
		{1, 50}, {40, 25}, {100, 1}, {3, 400},
	} {
		tr := segmentedTridiag(rng, shape.blocks, shape.blockLen)
		s, err := tr.Factor()
		if err != nil {
			t.Fatal(err)
		}
		n := shape.blocks * shape.blockLen
		rhs := randVec(rng, n)
		want := make([]float64, n)
		s.Solve(want, rhs)
		got := make([]float64, n)
		s.SolveBlocks(got, rhs)
		sameBits(t, "SolveBlocks", got, want)
		// Aliased dst/rhs must work too.
		got = append(got[:0], rhs...)
		s.SolveBlocks(got, got)
		sameBits(t, "SolveBlocks aliased", got, want)
	}
}

// TestTridiagSolvePIsCorrect checks SolveBlocks against the matrix itself.
func TestTridiagSolvePIsCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	tr := segmentedTridiag(rng, 12, 31)
	s, err := tr.Factor()
	if err != nil {
		t.Fatal(err)
	}
	n := 12 * 31
	rhs := randVec(rng, n)
	x := make([]float64, n)
	s.SolveBlocks(x, rhs)
	check := make([]float64, n)
	tr.MulVec(check, x)
	for i := range check {
		if math.Abs(check[i]-rhs[i]) > 1e-8*(1+math.Abs(rhs[i])) {
			t.Fatalf("residual too large at %d: %g vs %g", i, check[i], rhs[i])
		}
	}
}
