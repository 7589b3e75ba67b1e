package core

import (
	"math"
	"testing"

	"mclg/internal/design"
	"mclg/internal/gen"
	"mclg/internal/sparse"
)

// assembleLCPMatrixTriplets is the triplet-Builder assembly of
// A = [[H, −Bᵀ], [B, 0]] that AssembleLCPMatrix replaced: every entry goes
// through sparse.Builder, which sorts each row by column and sums duplicate
// coordinates in insertion order. It is the reference the direct CSR fill
// must reproduce bit for bit.
func assembleLCPMatrixTriplets(p *Problem) *sparse.CSR {
	n, m := p.NumVars, p.NumCons
	b := sparse.NewBuilder(n+m, n+m)
	// H = I + λ EᵀE.
	for i := 0; i < n; i++ {
		b.Add(i, i, 1)
	}
	for _, vars := range p.CellVars {
		for k := 0; k+1 < len(vars); k++ {
			lo, hi := vars[k], vars[k+1]
			b.Add(lo, lo, p.Lambda)
			b.Add(hi, hi, p.Lambda)
			b.Add(lo, hi, -p.Lambda)
			b.Add(hi, lo, -p.Lambda)
		}
	}
	// −Bᵀ (top right) and B (bottom left).
	for i, c := range p.Cons {
		b.Add(c.Left, n+i, -(-1.0)) // −(Bᵀ)[left][i] = −(−1) = +1
		b.Add(n+i, c.Left, -1)
		if c.Right >= 0 {
			b.Add(c.Right, n+i, -1.0) // −(Bᵀ)[right][i] = −(+1) = −1
			b.Add(n+i, c.Right, 1)
		}
	}
	return b.Build()
}

// assemblyDesign generates a suite benchmark at the given scale with its
// rows assigned, ready for BuildProblemBounded.
func assemblyDesign(t *testing.T, bench string, scale float64) *design.Design {
	t.Helper()
	e, err := gen.FindEntry(bench)
	if err != nil {
		t.Fatal(err)
	}
	d, err := gen.Generate(gen.SuiteSpec(e, scale))
	if err != nil {
		t.Fatal(err)
	}
	if err := AssignRows(d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestAssembleLCPMatrixMatchesTriplets pins the direct CSR fill of
// AssembleLCPMatrix to the triplet assembly: the same row pointers, column
// indices and value bits on the regression trio, a design with triple-height
// cells and a right-bounded problem, across λ.
func TestAssembleLCPMatrixMatchesTriplets(t *testing.T) {
	triple, err := gen.Generate(gen.Spec{
		Name: "triple", SingleCells: 200, DoubleCells: 25, TripleCells: 20,
		Density: 0.55, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := AssignRows(triple); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name       string
		d          *design.Design
		boundRight bool
	}{
		{"des_perf_1", assemblyDesign(t, "des_perf_1", 0.004), false},
		{"fft_2", assemblyDesign(t, "fft_2", 0.004), false},
		{"superblue19", assemblyDesign(t, "superblue19", 0.002), false},
		{"triple", triple, false},
		{"fft_2/bound-right", assemblyDesign(t, "fft_2", 0.004), true},
	}
	for _, tc := range cases {
		for _, lambda := range []float64{1000, 13, 0.1} {
			p, err := BuildProblemBounded(tc.d, lambda, tc.boundRight)
			if err != nil {
				t.Fatal(err)
			}
			got, want := p.AssembleLCPMatrix(), assembleLCPMatrixTriplets(p)
			if got.Rows != want.Rows || got.Cols != want.Cols {
				t.Fatalf("%s λ=%g: %dx%d, want %dx%d", tc.name, lambda, got.Rows, got.Cols, want.Rows, want.Cols)
			}
			for i := range want.RowPtr {
				if got.RowPtr[i] != want.RowPtr[i] {
					t.Fatalf("%s λ=%g: RowPtr[%d] = %d, want %d", tc.name, lambda, i, got.RowPtr[i], want.RowPtr[i])
				}
			}
			if len(got.ColIdx) != len(want.ColIdx) || len(got.Val) != len(want.Val) {
				t.Fatalf("%s λ=%g: nnz %d/%d, want %d", tc.name, lambda, len(got.ColIdx), len(got.Val), len(want.ColIdx))
			}
			for k := range want.ColIdx {
				if got.ColIdx[k] != want.ColIdx[k] {
					t.Fatalf("%s λ=%g: ColIdx[%d] = %d, want %d", tc.name, lambda, k, got.ColIdx[k], want.ColIdx[k])
				}
				if math.Float64bits(got.Val[k]) != math.Float64bits(want.Val[k]) {
					t.Fatalf("%s λ=%g: Val[%d] = %x, want %x", tc.name, lambda, k,
						math.Float64bits(got.Val[k]), math.Float64bits(want.Val[k]))
				}
			}
		}
	}
}

// TestAssembleLCPMatrixAllocs pins the assembly's allocation count to a
// constant independent of the problem size: the direct fill sizes every
// array once, where a triplet assembly grows its arrays as entries arrive.
func TestAssembleLCPMatrixAllocs(t *testing.T) {
	var counts []float64
	for _, bench := range []string{"fft_2", "superblue19"} {
		p, err := BuildProblem(assemblyDesign(t, bench, 0.01), 1000)
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, testing.AllocsPerRun(5, func() { p.AssembleLCPMatrix() }))
	}
	if counts[0] != counts[1] || counts[0] > 5 {
		t.Errorf("AssembleLCPMatrix allocations fft_2 %.0f, superblue19 %.0f; want the same count, at most 5", counts[0], counts[1])
	}
}
