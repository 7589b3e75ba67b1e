package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// poison overwrites every buffer up to its capacity with values no builder
// writes, so a result that keeps anything from an earlier use shows.
func poison(floats [][]float64, ints [][]int) {
	for _, b := range floats {
		for i := range b[:cap(b)] {
			b[:cap(b)][i] = math.NaN()
		}
	}
	for _, b := range ints {
		for i := range b[:cap(b)] {
			b[:cap(b)][i] = -7
		}
	}
}

func sameTridiag(t *testing.T, name string, got, want *Tridiag) {
	t.Helper()
	sameBits(t, name+".Sub", got.Sub, want.Sub)
	sameBits(t, name+".Diag", got.Diag, want.Diag)
	sameBits(t, name+".Sup", got.Sup, want.Sup)
}

func sameCSR(t *testing.T, name string, got, want *CSR) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols ||
		!slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.ColIdx, want.ColIdx) {
		t.Fatalf("%s: structure differs: got %dx%d %v %v, want %dx%d %v %v", name,
			got.Rows, got.Cols, got.RowPtr, got.ColIdx, want.Rows, want.Cols, want.RowPtr, want.ColIdx)
	}
	sameBits(t, name+".Val", got.Val, want.Val)
}

// TestIntoFormsMatchWrappersAfterReuse runs every …Into form through one
// destination for a large input, a small one and a large one again, with
// the destination poisoned before each use, and requires each result to
// equal, bit for bit, its allocating form's or, where there is none, the
// same form's run into a fresh destination: no form may read what an
// earlier, differently sized input left behind.
func TestIntoFormsMatchWrappersAfterReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var scaled, shifted, gram Tridiag
	var solver TridiagSolver
	var tr CSR
	var dense []float64
	for step, size := range []int{60, 7, 80} {
		name := func(form string) string { return fmt.Sprintf("step %d (m=%d) %s", step, size, form) }
		src := segmentedTridiag(rng, size/5+1, 5)

		poison([][]float64{scaled.Sub, scaled.Diag, scaled.Sup, shifted.Sub, shifted.Diag, shifted.Sup}, nil)
		sameTridiag(t, name("ScaledInto"), src.ScaledInto(&scaled, 0.5), src.ScaledInto(new(Tridiag), 0.5))
		sameTridiag(t, name("ShiftedInto"), src.ShiftedInto(&shifted, 2), src.ShiftedInto(new(Tridiag), 2))

		poison([][]float64{solver.low, solver.diag}, [][]int{solver.segments})
		want, err := src.Factor()
		if err != nil {
			t.Fatal(err)
		}
		if err := src.FactorInto(&solver); err != nil {
			t.Fatal(err)
		}
		if solver.n != want.n || !slices.Equal(solver.Segments(), want.Segments()) {
			t.Fatalf("%s: order %d, segments %v; want %d, %v", name("FactorInto"),
				solver.n, solver.Segments(), want.n, want.Segments())
		}
		sameBits(t, name("FactorInto.low"), solver.low, want.low)
		sameBits(t, name("FactorInto.diag"), solver.diag, want.diag)
		rhs := randVec(rng, src.N())
		got, exp := make([]float64, src.N()), make([]float64, src.N())
		solver.SolveBlocks(got, rhs)
		want.SolveBlocks(exp, rhs)
		sameBits(t, name("FactorInto solve"), got, exp)

		b, bw := randomBlockGram(rng, size)
		dense = slices.Grow(dense[:0], b.Cols)[:b.Cols]
		poison([][]float64{gram.Sub, gram.Diag, gram.Sup, dense}, nil)
		sameTridiag(t, name("GramTridiagApplyInto"),
			GramTridiagApplyInto(&gram, dense, b, bw.apply), GramTridiagApply(b, bw.apply))

		m := randomCSR(rng, size, size/2+3, 0.1)
		poison([][]float64{tr.Val}, [][]int{tr.RowPtr, tr.ColIdx})
		sameCSR(t, name("TransposeInto"), m.TransposeInto(&tr), m.TransposeInto(new(CSR)))
	}
}
