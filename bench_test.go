package mclg

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation section plus ablations of the design choices called out in
// DESIGN.md. Run with
//
//	go test -bench=. -benchmem
//
// Benchmarks use a small suite scale so the whole harness completes in
// minutes; pass -benchtime=1x for a single-shot regeneration of every
// artifact.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"mclg/internal/abacus"
	"mclg/internal/baselines/chow"
	"mclg/internal/baselines/wang"
	"mclg/internal/bookshelf"
	"mclg/internal/cluster"
	"mclg/internal/core"
	"mclg/internal/dense"
	"mclg/internal/design"
	"mclg/internal/eco"
	"mclg/internal/experiments"
	"mclg/internal/gen"
	"mclg/internal/gp"
	"mclg/internal/lcp"
	"mclg/internal/metrics"
	"mclg/internal/qp"
	"mclg/internal/refine"
	"mclg/internal/render"
	"mclg/internal/serve"
	"mclg/internal/sparse"
	"mclg/internal/tetris"
	"mclg/internal/window"
)

const benchScale = 0.01

// benchSuite is the benchmark subset used by the per-table benches: one
// high-density, one medium, one large.
var benchSuite = []string{"des_perf_1", "fft_2", "superblue19"}

func genBench(b *testing.B, name string, scale float64) *design.Design {
	b.Helper()
	e, err := gen.FindEntry(name)
	if err != nil {
		b.Fatal(err)
	}
	d, err := gen.Generate(gen.SuiteSpec(e, scale))
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// primePools runs op four times, untimed, so the pools it reaches (the core
// arena, the Tetris scratch, the cascade's working copies, the request body
// buffers) hold storage sized for it. Each pool keeps its last release in a
// slot that survives collections and serves any processor, so a
// -benchtime=1x allocation count reads primed storage; the alloc-smoke gate
// relies on that. It collects before the last op, so that the timed op
// triggers no collection, and the work the runtime does after one (on
// goroutines of its own, which allocate) overlaps that untimed op instead of
// counting against the timed one.
func primePools(b *testing.B, op func()) {
	b.Helper()
	for i := 0; i < 4; i++ {
		if i == 3 {
			runtime.GC()
		}
		op()
	}
}

// BenchmarkTable1IllegalCells regenerates Table 1: the MMSIM legalization
// and its illegal-cell count per benchmark.
func BenchmarkTable1IllegalCells(b *testing.B) {
	for _, name := range benchSuite {
		b.Run(name, func(b *testing.B) {
			base := genBench(b, name, benchScale)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d := base.Clone()
				stats, err := core.New(core.Options{}).Legalize(d)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(stats.Illegal), "illegal-cells")
				b.ReportMetric(100*float64(stats.Illegal)/float64(len(d.Cells)), "illegal-%")
			}
		})
	}
}

// BenchmarkTable2Legalizers regenerates Table 2: displacement / ΔHPWL /
// runtime for the four methods.
func BenchmarkTable2Legalizers(b *testing.B) {
	methods := []struct {
		name string
		run  func(d *design.Design) error
	}{
		{"DAC16", chow.Legalize},
		{"DAC16-Imp", func(d *design.Design) error { return chow.LegalizeImproved(d, chow.Options{}) }},
		{"ASPDAC17", func(d *design.Design) error {
			if err := wang.Legalize(d, wang.Options{}); err != nil {
				return err
			}
			_, err := tetris.Allocate(d)
			return err
		}},
		{"Ours", func(d *design.Design) error {
			_, err := core.New(core.Options{}).Legalize(d)
			return err
		}},
	}
	for _, name := range benchSuite {
		base := genBench(b, name, benchScale)
		for _, m := range methods {
			b.Run(fmt.Sprintf("%s/%s", name, m.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					d := base.Clone()
					if err := m.run(d); err != nil {
						b.Fatal(err)
					}
					disp := metrics.MeasureDisplacement(d)
					b.ReportMetric(disp.TotalSites, "disp-sites")
					b.ReportMetric(100*metrics.DeltaHPWL(d), "ΔHPWL-%")
				}
			})
		}
	}
}

// BenchmarkWorkersScaling measures the one path the worker count still fans
// out: windowed legalization (window.Legalize) of superblue19 at the suite
// scale with workers 1, 2, 4 and auto (the default 0: every core), where
// Workers bounds how many windows solve at once. Each window's solve and the
// stitch run on one goroutine, so every variant produces the identical
// placement and only wall-clock and allocations may differ.
func BenchmarkWorkersScaling(b *testing.B) {
	base := genBench(b, "superblue19", benchScale)
	ctx := context.Background()
	for _, w := range []int{1, 2, 4, 0} {
		name := fmt.Sprintf("workers=%d", w)
		if w == 0 {
			name = "workers=auto"
		}
		opts := window.Options{Cascade: core.ResilientOptions{Base: core.Options{Workers: w}}}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := window.Legalize(ctx, base.Clone(), opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSingleRowMMSIMvsPlaceRow regenerates the Section 5.3 experiment:
// the MMSIM and Abacus PlaceRow on the single-height suite variants.
func BenchmarkSingleRowMMSIMvsPlaceRow(b *testing.B) {
	for _, name := range []string{"fft_2", "superblue19"} {
		e, err := gen.FindEntry(name)
		if err != nil {
			b.Fatal(err)
		}
		base, err := gen.Generate(gen.SingleHeightVariant(gen.SuiteSpec(e, benchScale)))
		if err != nil {
			b.Fatal(err)
		}
		if err := core.AssignRows(base); err != nil {
			b.Fatal(err)
		}
		b.Run(name+"/MMSIM", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d := base.Clone()
				p, err := core.BuildProblem(d, 1000)
				if err != nil {
					b.Fatal(err)
				}
				x, _, err := core.SolveMMSIM(p, core.New(core.Options{Eps: 1e-6}).Opts)
				if err != nil {
					b.Fatal(err)
				}
				core.Restore(p, x)
			}
		})
		b.Run(name+"/PlaceRow", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d := base.Clone()
				if err := abacus.PlaceRowsAssigned(d, true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLambdaSweep is the E7 ablation: the subcell penalty λ vs.
// solver effort and residual mismatch. Like the other iteration ablations it
// runs the MMSIM alone (Options.MMSIMOnly), without the active-set finish.
func BenchmarkLambdaSweep(b *testing.B) {
	base := genBench(b, "fft_1", benchScale)
	for _, lambda := range []float64{1, 100, 1000, 10000} {
		b.Run(fmt.Sprintf("lambda=%g", lambda), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d := base.Clone()
				stats, err := core.New(core.Options{Lambda: lambda, MMSIMOnly: true}).Legalize(d)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(stats.MaxSubcellMismatch, "mismatch")
				b.ReportMetric(float64(stats.Iterations), "iterations")
			}
		})
	}
}

// BenchmarkSolverComparison is the E8 ablation: MMSIM vs. Lemke vs. PGS vs.
// active-set QP on random strictly-diagonally-dominant LCPs.
func BenchmarkSolverComparison(b *testing.B) {
	n := 60
	rng := rand.New(rand.NewSource(77))
	// SPD, strictly diagonally dominant A.
	ad := dense.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := rng.NormFloat64() * 0.3
			ad.Set(i, j, v)
			ad.Set(j, i, v)
		}
	}
	for i := 0; i < n; i++ {
		s := 1.0
		for j := 0; j < n; j++ {
			if j != i {
				s += abs(ad.At(i, j))
			}
		}
		ad.Set(i, i, s)
	}
	q := make([]float64, n)
	for i := range q {
		q[i] = rng.NormFloat64() * 3
	}
	sb := sparse.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if v := ad.At(i, j); v != 0 {
				sb.Add(i, j, v)
			}
		}
	}
	prob := &lcp.Problem{A: sb.Build(), Q: q}

	b.Run("MMSIM", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sp, err := lcp.NewDiagSplitting(prob.A, 0.9)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := lcp.MMSIM(prob, sp, lcp.Options{Eps: 1e-10}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Lemke", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := lcp.Lemke(ad, q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("PGS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := lcp.PGS(ad, q, 1e-10, 100000); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ActiveSetQP", func(b *testing.B) {
		// Equivalent bound-constrained QP: min ½xᵀAx + qᵀx s.t. x >= 0.
		g := dense.New(n, n)
		for i := 0; i < n; i++ {
			g.Set(i, i, 1)
		}
		p := &qp.Problem{H: ad, P: q, G: g, Hv: make([]float64, n)}
		x0 := make([]float64, n)
		for i := range x0 {
			x0[i] = 1
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := qp.Solve(p, x0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkOmegaAblation compares the paper's Ω = I against the scaled
// variants on a mixed-height instance (DESIGN.md "key design decisions"),
// MMSIM only.
func BenchmarkOmegaAblation(b *testing.B) {
	base := genBench(b, "fft_2", benchScale)
	cases := []struct {
		name string
		opts core.Options
	}{
		{"paper-omega-I", core.Options{PaperOmega: true, MMSIMOnly: true}},
		{"omegaR-0.01", core.Options{OmegaR: 0.01, MMSIMOnly: true}},
		{"scaled-omegaX", core.Options{ScaledOmegaX: true, MMSIMOnly: true}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d := base.Clone()
				stats, err := core.New(tc.opts).Legalize(d)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(stats.Iterations), "iterations")
			}
		})
	}
}

// BenchmarkWarmStartAblation measures the warm start from GP positions
// against the cold (zero) start of a literal Algorithm 1 reading, MMSIM
// only.
func BenchmarkWarmStartAblation(b *testing.B) {
	base := genBench(b, "superblue19", benchScale)
	for _, tc := range []struct {
		name string
		opts core.Options
	}{
		{"warm", core.Options{MMSIMOnly: true}},
		{"cold", core.Options{ColdStart: true, MMSIMOnly: true}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d := base.Clone()
				stats, err := core.New(tc.opts).Legalize(d)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(stats.Iterations), "iterations")
			}
		})
	}
}

// BenchmarkSchurAblation compares the tridiagonal Schur approximation D
// against a diagonal-only approximation (DESIGN.md ablation: D = diag vs
// tridiag). The diagonal variant reuses the generic diagonal splitting on
// the assembled LCP matrix.
func BenchmarkSchurAblation(b *testing.B) {
	base := genBench(b, "fft_2", benchScale)
	b.Run("tridiag-D", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d := base.Clone()
			stats, err := core.New(core.Options{}).Legalize(d)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(stats.Iterations), "iterations")
		}
	})
	b.Run("structured-build-only", func(b *testing.B) {
		d := base.Clone()
		if err := core.AssignRows(d); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			p, err := core.BuildProblem(d, 1000)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := core.NewStructuredSplitting(p, 0.5, 0.5); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFigure5Render regenerates the Figure 5 artifact: legalize fft_2
// and render the layout with displacement vectors to SVG.
func BenchmarkFigure5Render(b *testing.B) {
	base := genBench(b, "fft_2", benchScale)
	d := base.Clone()
	if _, err := core.New(core.Options{}).Legalize(d); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sink countingWriter
		if err := render.SVG(d, &sink, render.Options{Displacement: true}); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(sink), "svg-bytes")
	}
}

// BenchmarkTetrisAllocate isolates the Tetris-like allocation stage.
func BenchmarkTetrisAllocate(b *testing.B) {
	base := genBench(b, "superblue19", benchScale)
	pre := base.Clone()
	if _, err := core.New(core.Options{SkipTetris: true}).Legalize(pre); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := pre.Clone()
		if _, err := tetris.Allocate(d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMMSIMIteration measures the per-iteration cost of the structured
// splitting (the O(n) claim of DESIGN.md) over MMSIM-only solves.
func BenchmarkMMSIMIteration(b *testing.B) {
	for _, name := range []string{"fft_2", "superblue19"} {
		b.Run(name, func(b *testing.B) {
			d := genBench(b, name, benchScale)
			if err := core.AssignRows(d); err != nil {
				b.Fatal(err)
			}
			p, err := core.BuildProblem(d, 1000)
			if err != nil {
				b.Fatal(err)
			}
			iters := 0
			opts := core.New(core.Options{MMSIMOnly: true}).Opts
			opts.MaxIter = 0
			opts.OnIter = func(k int, dz float64) { iters++ }
			solve := func() {
				if _, _, err := core.SolveMMSIM(p, opts); err != nil {
					b.Fatal(err)
				}
			}
			primePools(b, solve)
			iters = 0
			b.ReportAllocs()
			b.ResetTimer()
			// One full solve per b.N batch; report time per iteration.
			for i := 0; i < b.N; i++ {
				solve()
			}
			b.StopTimer()
			if iters > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(iters), "ns/iter")
			}
		})
	}
}

// BenchmarkCheckLegal measures the legality checker on superblue19@0.02,
// legalized and as its global placement (about 26k violations): report is
// CheckLegal's full report, verdict IsLegal's early-exit answer. Generation
// and legalization are untimed and the checker's scratch pool is primed, so
// alloc-smoke gates verdict/legal at 0 allocs/op.
func BenchmarkCheckLegal(b *testing.B) {
	gp := genBench(b, "superblue19", 0.02)
	legal := gp.Clone()
	if _, err := core.New(core.Options{}).Legalize(legal); err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name  string
		check func(*design.Design) bool
	}{
		{"report", func(d *design.Design) bool { return design.CheckLegal(d).Legal() }},
		{"verdict", design.IsLegal},
	} {
		b.Run(mode.name, func(b *testing.B) {
			for _, in := range []struct {
				name string
				d    *design.Design
				want bool
			}{{"legal", legal, true}, {"gp", gp, false}} {
				b.Run(in.name, func(b *testing.B) {
					check := func() {
						if mode.check(in.d) != in.want {
							b.Fatalf("verdict %v, want %v", !in.want, in.want)
						}
					}
					primePools(b, check)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						check()
					}
				})
			}
		})
	}
}

// BenchmarkGenerateSuite measures the synthetic benchmark generator.
func BenchmarkGenerateSuite(b *testing.B) {
	e, err := gen.FindEntry("superblue19")
	if err != nil {
		b.Fatal(err)
	}
	spec := gen.SuiteSpec(e, benchScale)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gen.Generate(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExperimentsTable1 runs the full Table 1 harness at a tiny scale
// as an end-to-end smoke benchmark.
func BenchmarkExperimentsTable1(b *testing.B) {
	cfg := experiments.Config{Scale: 0.002, Benchmarks: []string{"fft_2", "pci_bridge32_b"}}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

type countingWriter int

func (w *countingWriter) Write(p []byte) (int, error) {
	*w += countingWriter(len(p))
	return len(p), nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// BenchmarkRefine measures the MrDP-style detailed-placement extension on a
// legalized design (extension beyond the paper; see internal/refine).
func BenchmarkRefine(b *testing.B) {
	base := genBench(b, "fft_2", benchScale)
	legal := base.Clone()
	if _, err := core.New(core.Options{}).Legalize(legal); err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		obj  refine.Objective
	}{
		{"displacement", refine.Displacement},
		{"hpwl", refine.HPWL},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d := legal.Clone()
				res, err := refine.Refine(d, refine.Options{Objective: tc.obj})
				if err != nil {
					b.Fatal(err)
				}
				if res.Initial > 0 {
					b.ReportMetric(100*(res.Initial-res.Final)/res.Initial, "improvement-%")
				}
			}
		})
	}
}

// BenchmarkNoiseSensitivity runs the E9 crossover sweep: how the method
// ranking changes as the global placement degrades.
func BenchmarkNoiseSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.NoiseSensitivity("fft_2", 0.004, []float64{0.5, 2, 8})
		if err != nil {
			b.Fatal(err)
		}
		if r := rows[len(rows)-1]; r.Disp[experiments.MethodOurs] > 0 {
			b.ReportMetric(r.Disp[experiments.MethodOurs]/r.Disp[experiments.MethodASPDAC17],
				"ours/aspdac-at-8x-noise")
		}
	}
}

// BenchmarkGlobalPlace measures the analytic global placer substrate.
func BenchmarkGlobalPlace(b *testing.B) {
	e, err := gen.FindEntry("fft_2")
	if err != nil {
		b.Fatal(err)
	}
	base, err := gen.Generate(gen.SuiteSpec(e, benchScale))
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range base.Cells {
		c.GX, c.GY = base.Core.Center().X, base.Core.Center().Y
		c.X, c.Y = c.GX, c.GY
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := base.Clone()
		res, err := gp.Place(d, gp.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Overflow, "overflow")
		b.ReportMetric(float64(res.CGIters), "cg-iters")
	}
}

// BenchmarkBoundaryMode compares the paper's relaxed-boundary flow against
// the exact right-boundary extension on a dense design.
func BenchmarkBoundaryMode(b *testing.B) {
	base := genBench(b, "des_perf_1", benchScale)
	for _, tc := range []struct {
		name string
		opts core.Options
	}{
		{"relaxed-paper", core.Options{}},
		{"bound-right", core.Options{BoundRight: true}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d := base.Clone()
				stats, err := core.New(tc.opts).Legalize(d)
				if err != nil {
					b.Fatal(err)
				}
				disp := metrics.MeasureDisplacement(d)
				b.ReportMetric(disp.TotalSites, "disp-sites")
				b.ReportMetric(float64(stats.Illegal), "illegal-cells")
			}
		})
	}
}

// BenchmarkScaleSweep documents how MMSIM iteration count and wall time
// grow with instance size (the runtime-shape deviation EXPERIMENTS.md
// discusses): per-iteration cost is O(n), but the iteration count grows
// with row length because multiplier information diffuses along constraint
// chains.
func BenchmarkScaleSweep(b *testing.B) {
	for _, scale := range []float64{0.005, 0.01, 0.02, 0.04} {
		b.Run(fmt.Sprintf("scale=%g", scale), func(b *testing.B) {
			base := genBench(b, "fft_2", scale)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d := base.Clone()
				stats, err := core.New(core.Options{}).Legalize(d)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(stats.Iterations), "iterations")
				b.ReportMetric(float64(stats.NumVars), "vars")
			}
		})
	}
}

// BenchmarkMMSIMSteadyState pins the steady-state cost of one MMSIM
// iteration on a caller-owned workspace: after the warm-up step the hot
// loop must run at 0 allocs/op (the alloc-smoke CI gate feeds this
// benchmark to benchdiff -gate allocs).
func BenchmarkMMSIMSteadyState(b *testing.B) {
	d := genBench(b, "fft_2", benchScale)
	if err := core.AssignRows(d); err != nil {
		b.Fatal(err)
	}
	p, err := core.BuildProblem(d, 1000)
	if err != nil {
		b.Fatal(err)
	}
	sp, err := core.NewStructuredSplittingOmegaR(p, 0.5, 0.5, 1)
	if err != nil {
		b.Fatal(err)
	}
	prob := &lcp.Problem{A: p.AssembleLCPMatrix(), Q: p.LCPVector()}
	ws := lcp.NewWorkspace(p.NumVars + p.NumCons)
	sv, err := lcp.NewSolver(prob, sp, lcp.Options{Workspace: ws, MaxIter: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	// One warm-up step lets lazy runtime state (stack growth) settle, as
	// it would after the first iteration of any production solve.
	if _, err := sv.Step(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sv.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLegalizeCold measures cold one-at-a-time legalization of the
// perfbench batch-cold round: its 11 suite families at their scales (about
// 0.6k–3.4k cells, densities 0.14–0.91), each legalized from a fresh clone
// through core.New. The clones are untimed and the pools primed, so the
// alloc-smoke gate reads what a steady stream of cold solves allocates per
// round.
func BenchmarkLegalizeCold(b *testing.B) {
	families := []struct {
		name  string
		scale float64
	}{
		{"pci_bridge32_b", 0.02}, {"fft_a", 0.02}, {"des_perf_1", 0.008},
		{"fft_2", 0.03}, {"fft_1", 0.04}, {"des_perf_a", 0.015},
		{"edit_dist_a", 0.015}, {"matrix_mult_b", 0.015}, {"superblue14", 0.005},
		{"matrix_mult_1", 0.02}, {"des_perf_b", 0.03},
	}
	base := make([]*design.Design, len(families))
	for i, f := range families {
		base[i] = genBench(b, f.name, f.scale)
	}
	lg := core.New(core.Options{})
	ctx := context.Background()
	work := make([]*design.Design, len(base))
	round := func() {
		b.StopTimer()
		for i, d := range base {
			work[i] = d.Clone()
		}
		b.StartTimer()
		for i, d := range work {
			if _, err := lg.LegalizeContext(ctx, d); err != nil {
				b.Fatalf("%s: %v", families[i].name, err)
			}
		}
	}
	primePools(b, round)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}

// BenchmarkECOApply measures the streaming-ECO steady state: a live session
// absorbing a 5-cell move batch through dirty-window re-legalization (only
// the touched row bands re-solve, each run cold). Two extra metrics put the
// number in context: cold-ns is the wall time of one full re-legalization
// of the same design from its global placement, measured in setup on the
// same machine, and eco-vs-cold is the per-apply ratio — the
// serving-latency target is < 0.25. The large
// benchmark is the honest one here: dirty-window cost scales with the
// touched bands while the cold solve scales with the whole design.
func BenchmarkECOApply(b *testing.B) {
	base := genBench(b, "superblue19", benchScale)
	ctx := context.Background()
	s, err := eco.Create(ctx, "bench", base, eco.Options{Core: core.Options{Workers: 1}})
	if err != nil {
		b.Fatal(err)
	}
	d := s.Design()
	var ids []int
	for _, c := range d.Cells {
		if !c.Fixed {
			ids = append(ids, c.ID)
			if len(ids) == 5 {
				break
			}
		}
	}
	// Two alternating target sets so every iteration genuinely moves cells.
	batch := func(phase int) []eco.Delta {
		out := make([]eco.Delta, 0, len(ids))
		for i, id := range ids {
			out = append(out, eco.Delta{
				Op: eco.OpMove, Cell: id,
				X: d.Core.Lo.X + float64(4+2*i+10*phase)*d.SiteW,
				Y: d.Core.Lo.Y + float64(1+(i+phase)%3)*d.RowHeight,
			})
		}
		return out
	}

	// Cold reference: a full from-scratch re-legalization of the same design.
	cold := base.Clone()
	t0 := time.Now()
	if _, err := core.NewResilient(core.ResilientOptions{Base: core.Options{Workers: 1}}).LegalizeContext(ctx, cold); err != nil {
		b.Fatal(err)
	}
	coldNS := float64(time.Since(t0).Nanoseconds())

	phase := 0
	apply := func() {
		if _, err := s.Apply(ctx, batch(phase)); err != nil {
			b.Fatal(err)
		}
		phase = 1 - phase
	}
	primePools(b, apply)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		apply()
	}
	b.StopTimer()
	b.ReportMetric(coldNS, "cold-ns")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/coldNS, "eco-vs-cold")
}

// BenchmarkECOMixedBatch measures an ECO apply under the benchmark's
// eco-stream mix: 5-delta batches of 80% moves (up to 8 sites and a row),
// 10% inserts and 10% deletes on superblue19, so the timed applies insert
// and delete cells and rewrite the netlist the way a live session does.
// Untimed warm-up batches prime the session's per-apply storage and the
// solve pools first (primePools), so even -benchtime=1x measures an apply
// that reuses them. Each batch is drawn from the committed design, with the
// draw untimed.
func BenchmarkECOMixedBatch(b *testing.B) {
	base := genBench(b, "superblue19", benchScale)
	ctx := context.Background()
	s, err := eco.Create(ctx, "bench", base, eco.Options{Core: core.Options{Workers: 1}})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	apply := func(i int) {
		b.StopTimer()
		batch := ecoMixedBatch(rng, s.Design())
		b.StartTimer()
		if _, err := s.Apply(ctx, batch); err != nil {
			b.Fatalf("batch %d: %v", i, err)
		}
	}
	primePools(b, func() { apply(-1) })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		apply(i)
	}
}

// ecoMixedBatch draws five deltas against d in the 80/10/10
// move/insert/delete mix. Deletes renumber the later deltas' cell IDs the
// way the session does, and moves and inserts stay inside the core.
func ecoMixedBatch(rng *rand.Rand, d *design.Design) []eco.Delta {
	type live struct {
		id int
		c  *design.Cell
	}
	var movable []live
	for _, c := range d.Cells {
		if !c.Fixed {
			movable = append(movable, live{c.ID, c})
		}
	}
	lo, hi := d.Core.Lo, d.Core.Hi
	out := make([]eco.Delta, 0, 5)
	for len(out) < 5 {
		j := rng.Intn(len(movable))
		m := movable[j]
		switch p := rng.Float64(); {
		case p < 0.1:
			w := float64(4+rng.Intn(9)) * d.SiteW
			out = append(out, eco.Delta{Op: eco.OpInsert, Name: "eco",
				X: lo.X + rng.Float64()*(hi.X-lo.X-w), Y: lo.Y + rng.Float64()*(hi.Y-lo.Y-d.RowHeight),
				W: w, H: d.RowHeight})
		case p < 0.2:
			out = append(out, eco.Delta{Op: eco.OpDelete, Cell: m.id})
			movable = append(movable[:j], movable[j+1:]...)
			for k := range movable {
				if movable[k].id > m.id {
					movable[k].id--
				}
			}
		default:
			x := m.c.GX + (2*rng.Float64()-1)*8*d.SiteW
			y := m.c.GY + float64(rng.Intn(3)-1)*d.RowHeight
			out = append(out, eco.Delta{Op: eco.OpMove, Cell: m.id,
				X: max(lo.X, min(x, hi.X-m.c.W)), Y: max(lo.Y, min(y, hi.Y-m.c.H))})
		}
	}
	return out
}

// BenchmarkClusterDispatch measures the coordinator's routing overhead for a
// windowed job shipped over the shard protocol. The workers' shard caches
// are warmed first, so each iteration pays ring lookup, HTTP round-trip, and
// wire decode per window — not the solves themselves. A fresh coordinator
// per iteration keeps its local result cache cold; the reported
// window-dispatch-ns metric is the per-window cost of remote routing.
func BenchmarkClusterDispatch(b *testing.B) {
	base := genBench(b, "fft_2", 0.004)
	opts := window.Options{
		Cascade:       core.ResilientOptions{Base: core.Options{Workers: 1}},
		WindowRows:    4,
		ContextRows:   2,
		WindowTimeout: 2 * time.Minute,
	}

	var addrs []string
	for i := 0; i < 2; i++ {
		wk := cluster.NewWorker(cluster.WorkerConfig{Solves: 2})
		srv := httptest.NewServer(wk.Handler())
		defer srv.Close()
		addrs = append(addrs, srv.URL)
	}

	// Warm the worker caches so iterations measure dispatch, not solving.
	warm := cluster.NewCoordinator(cluster.CoordinatorConfig{Peers: addrs})
	st, err := warm.DispatchWindows(context.Background(), base.Clone(), opts)
	if err != nil {
		b.Fatal(err)
	}
	if st.Windows == 0 {
		b.Fatal("no windows to dispatch")
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coord := cluster.NewCoordinator(cluster.CoordinatorConfig{Peers: addrs})
		if _, err := coord.DispatchWindows(context.Background(), base.Clone(), opts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(st.Windows), "window-dispatch-ns")
}

// BenchmarkUploadParse measures the daemon's ingest: parsing the in-memory
// Bookshelf texts of one serve-mix-sized upload (fft_2 at scale 0.03, about
// 1k cells) into a validated design. The texts are written and read back
// once in setup, so only the parse is timed.
func BenchmarkUploadParse(b *testing.B) {
	d := genBench(b, "fft_2", 0.03)
	files := uploadFiles(b, d)
	texts := bookshelf.Texts{
		Nodes: files["nodes"], Nets: files["nets"], Pl: files["pl"], Scl: files["scl"], Wts: files["wts"],
	}
	size := len(texts.Nodes) + len(texts.Nets) + len(texts.Pl) + len(texts.Scl) + len(texts.Wts)

	b.ReportAllocs()
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := bookshelf.ReadTexts(texts, "upload")
		if err != nil {
			b.Fatal(err)
		}
		if len(got.Cells) != len(d.Cells) {
			b.Fatalf("parsed %d cells, want %d", len(got.Cells), len(d.Cells))
		}
	}
}

// uploadFiles writes d as Bookshelf and reads the component texts back,
// keyed as a /v1/legalize upload's files.
func uploadFiles(b *testing.B, d *design.Design) map[string]string {
	aux := filepath.Join(b.TempDir(), "up.aux")
	if err := bookshelf.Write(d, aux); err != nil {
		b.Fatal(err)
	}
	files := map[string]string{}
	for _, comp := range []string{"nodes", "nets", "pl", "scl", "wts"} {
		raw, err := os.ReadFile(strings.TrimSuffix(aux, "aux") + comp)
		if err != nil {
			b.Fatal(err)
		}
		files[comp] = string(raw)
	}
	return files
}

// BenchmarkRequestDecode measures /v1/legalize's body ingest: one
// serve-mix-sized upload (fft_2 at scale 0.03, about 1k cells) read through
// http.MaxBytesReader into the pooled body buffer and decoded into a
// serve.Request, as the handler does before validating it. The pool is
// primed first, so a -benchtime=1x count reads the steady state: one copy
// of each Bookshelf text and no buffer growth.
func BenchmarkRequestDecode(b *testing.B) {
	files := uploadFiles(b, genBench(b, "fft_2", 0.03))
	body, err := json.Marshal(serve.Request{Files: files, IncludePlacement: true})
	if err != nil {
		b.Fatal(err)
	}
	decode := func() {
		var req serve.Request
		if err := serve.ReadRequest(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), 64<<20), &req); err != nil {
			b.Fatal(err)
		}
		if !maps.Equal(req.Files, files) || !req.IncludePlacement {
			b.Fatal("the upload did not survive the decode")
		}
	}
	primePools(b, decode)
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decode()
	}
}
