package core

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"mclg/internal/design"
	"mclg/internal/gen"
	"mclg/internal/lcp"
	"mclg/internal/mclgerr"
	"mclg/internal/metrics"
)

// finishCase is one design the finish must reproduce the MMSIM on.
type finishCase struct {
	name  string
	spec  gen.Spec
	bound bool
}

func finishCases(t *testing.T) []finishCase {
	t.Helper()
	var cases []finishCase
	// The regress trio.
	for _, c := range []struct {
		bench string
		scale float64
	}{{"des_perf_1", 0.004}, {"fft_2", 0.004}, {"superblue19", 0.002}} {
		e, err := gen.FindEntry(c.bench)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, finishCase{name: c.bench, spec: gen.SuiteSpec(e, c.scale)})
	}
	cases = append(cases,
		finishCase{name: "triple", spec: gen.Spec{
			Name: "triple", SingleCells: 200, DoubleCells: 25, TripleCells: 20,
			Density: 0.55, Seed: 1,
		}},
		finishCase{name: "bound-right", bound: true, spec: gen.Spec{
			Name: "b", SingleCells: 400, DoubleCells: 40, Density: 0.88, Seed: 33,
			NoiseX: 2,
		}},
	)
	return cases
}

func genSpec(t *testing.T, spec gen.Spec) *design.Design {
	t.Helper()
	d, err := gen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// samePlacement reports whether two placements agree bit for bit.
func samePlacement(a, b *design.Design) bool {
	for i, c := range a.Cells {
		o := b.Cells[i]
		if c.X != o.X || c.Y != o.Y || c.Flipped != o.Flipped {
			return false
		}
	}
	return true
}

// Where the MMSIM converges, the finish lands on the same optimum: after the
// snap to sites the placement is bit-identical to the MMSIM-only one.
func TestFinishMatchesMMSIMOnly(t *testing.T) {
	for _, tc := range finishCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			fin := genSpec(t, tc.spec)
			only := fin.Clone()
			sf, err := New(Options{BoundRight: tc.bound}).Legalize(fin)
			if err != nil {
				t.Fatal(err)
			}
			so, err := New(Options{BoundRight: tc.bound, MMSIMOnly: true}).Legalize(only)
			if err != nil {
				t.Fatal(err)
			}
			if sf.Finish.Outcome != FinishAccepted || !sf.Converged || sf.Iterations != finishPause {
				t.Fatalf("finish = %+v after %d iterations (converged %v), want accepted after %d",
					sf.Finish, sf.Iterations, sf.Converged, finishPause)
			}
			if so.Finish != (FinishStats{}) || !so.Converged {
				t.Fatalf("MMSIM-only run: finish %+v, converged %v", so.Finish, so.Converged)
			}
			if !samePlacement(fin, only) {
				t.Fatal("finish placement differs from the MMSIM-only placement")
			}
			if !design.CheckLegal(fin).Legal() {
				t.Fatal("finish placement is illegal")
			}
		})
	}
}

// A rejected finish resumes the paused MMSIM, which must then reproduce the
// MMSIM-only solve bit for bit.
func TestFinishFallbackMatchesMMSIMOnly(t *testing.T) {
	finishForceFallback = true
	defer func() { finishForceFallback = false }()
	for _, tc := range finishCases(t)[:3] {
		t.Run(tc.name, func(t *testing.T) {
			d := genSpec(t, tc.spec)
			if err := AssignRows(d); err != nil {
				t.Fatal(err)
			}
			p, err := BuildProblem(d, 1000)
			if err != nil {
				t.Fatal(err)
			}
			opts := New(Options{}).Opts
			only := opts
			only.MMSIMOnly = true
			zf, sf, err := SolveMMSIMFull(context.Background(), p, opts)
			if err != nil {
				t.Fatal(err)
			}
			zo, so, err := SolveMMSIMFull(context.Background(), p, only)
			if err != nil {
				t.Fatal(err)
			}
			if sf.Finish.Outcome != FinishFallback || sf.Finish.Rounds == 0 {
				t.Fatalf("finish = %+v, want a fallback after at least one round", sf.Finish)
			}
			if sf.Iterations != so.Iterations || sf.Converged != so.Converged {
				t.Fatalf("%d iterations (converged %v), MMSIM-only %d (%v)",
					sf.Iterations, sf.Converged, so.Iterations, so.Converged)
			}
			for i := range zo {
				if math.Float64bits(zf[i]) != math.Float64bits(zo[i]) {
					t.Fatalf("z[%d] = %v, MMSIM-only %v", i, zf[i], zo[i])
				}
			}
		})
	}
}

// A finish run by a reused finisher allocates nothing: the finisher grows
// its buffers in place.
func TestFinishAllocatesNothing(t *testing.T) {
	d := genSpec(t, finishCases(t)[3].spec) // triple-height cells too
	if err := AssignRows(d); err != nil {
		t.Fatal(err)
	}
	p, err := BuildProblem(d, 1000)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := NewStructuredSplittingOmegaR(p, 0.5, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := p.NumVars + p.NumCons
	prob := &lcp.Problem{A: p.AssembleLCPMatrix(), Q: p.LCPVector()}
	s0 := make([]float64, n)
	for i, sc := range p.Subcells {
		s0[i] = sc.Target / 2
	}
	sv, err := lcp.NewSolver(prob, sp, lcp.Options{Eps: 1e-4, S0: s0})
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()
	if res, err := sv.RunTo(context.Background(), finishPause); err != nil || !res.Paused {
		t.Fatalf("RunTo: %+v, %v", res, err)
	}
	ctx := context.Background()
	var f finisher
	run := func() {
		z, fs, err := f.solve(ctx, p, sp, prob, sv.Z())
		if err != nil || z == nil || fs.Outcome != FinishAccepted {
			t.Fatalf("finish: %+v, %v", fs, err)
		}
	}
	run() // sizes the finisher's buffers
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Fatalf("finish with a reused finisher: %v allocs, want 0", allocs)
	}
}

// A released arena keeps no pointer to the caller's problem or design: the
// finisher's problem goes with the splitting's, so a pooled arena never keeps
// a caller's objects alive.
func TestReleasedArenaDropsCallerProblem(t *testing.T) {
	d := genSpec(t, finishCases(t)[3].spec)
	if err := AssignRows(d); err != nil {
		t.Fatal(err)
	}
	p, err := BuildProblem(d, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if _, st, err := SolveMMSIMFull(context.Background(), p, New(Options{}).Opts); err != nil || st.Finish.Outcome != FinishAccepted {
		t.Fatalf("solve: %+v, %v; want an accepted finish", st, err)
	}
	ar := arenas.Get() // the slot holds the arena the solve released
	defer arenas.Put(ar)
	if ar.f.p != nil || ar.sp.p != nil || ar.p.D != nil {
		t.Fatal("a released arena still points at the caller's problem or design")
	}
}

// A design on which the MMSIM stalls: it exhausts the default 20,000
// iterations unconverged and leaves the Tetris stage two illegal cells, while
// the finish converges from its fifth iterate and leaves none.
func TestFinishConvergesWhereMMSIMStalls(t *testing.T) {
	if testing.Short() {
		t.Skip("20,000 MMSIM iterations; skipped in -short mode")
	}
	e, err := gen.FindEntry("des_perf_b")
	if err != nil {
		t.Fatal(err)
	}
	spec := gen.SuiteSpec(e, 0.03)
	spec.TripleCells = spec.DoubleCells / 2
	spec.Seed = 3561656598611115565
	fin := genSpec(t, spec)
	only := fin.Clone()
	sf, err := New(Options{}).Legalize(fin)
	if err != nil {
		t.Fatal(err)
	}
	so, err := New(Options{MMSIMOnly: true}).Legalize(only)
	if err != nil {
		t.Fatal(err)
	}
	if so.Converged || so.Iterations != DefaultOptions().MaxIter || so.Illegal != 2 {
		t.Fatalf("MMSIM only: converged %v after %d iterations, %d illegal; want unconverged at %d with 2",
			so.Converged, so.Iterations, so.Illegal, DefaultOptions().MaxIter)
	}
	if !sf.Converged || sf.Finish.Outcome != FinishAccepted || sf.Illegal != 0 {
		t.Fatalf("finish: converged %v, %+v, %d illegal; want accepted with none", sf.Converged, sf.Finish, sf.Illegal)
	}
	df, do := metrics.MeasureDisplacement(fin).TotalSites, metrics.MeasureDisplacement(only).TotalSites
	if math.Abs(df-6429.57) > 0.01 || math.Abs(do-6433.12) > 0.01 {
		t.Fatalf("displacement %.2f (finish) and %.2f (MMSIM only), want 6429.57 and 6433.12", df, do)
	}
	if !design.CheckLegal(fin).Legal() {
		t.Fatal("finish placement is illegal")
	}
}

// A context canceled while the MMSIM runs its first iterations aborts the
// finish with an ErrCanceled-matching error instead of returning a solution.
func TestFinishHonorsCancellation(t *testing.T) {
	d := genSpec(t, finishCases(t)[2].spec)
	if err := AssignRows(d); err != nil {
		t.Fatal(err)
	}
	p, err := BuildProblem(d, 1000)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := New(Options{}).Opts
	opts.OnIter = func(k int, _ float64) {
		if k == 1 {
			cancel()
		}
	}
	_, _, err = SolveMMSIMFull(ctx, p, opts)
	if !errors.Is(err, mclgerr.ErrCanceled) || !strings.Contains(err.Error(), "finish") {
		t.Fatalf("error = %v, want a canceled active-set finish", err)
	}
}
