package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"mclg/internal/core"
	"mclg/internal/design"
	"mclg/internal/regress"
	"mclg/internal/tetris"
)

// batchDesigns is one round of batch-cold: distinct suite families that
// span densities 0.14–0.91 and about 0.6k–3.4k movable cells, smallest
// first. Every round draws fresh generator seeds, so no two ops legalize
// the same design. Larger designs are left out: their heavy-tailed MMSIM
// iteration counts made CPU per design swing between seeds by more than
// any bound allows, and smaller ones let a run average twelve rounds
// (README.md).
var batchDesigns = []suiteDesign{
	{"pci_bridge32_b", 0.02}, // ~580 cells, density 0.14
	{"fft_a", 0.02},          // ~610, 0.25
	{"des_perf_1", 0.008},    // ~900, 0.91
	{"fft_2", 0.03},          // ~970, 0.50
	{"fft_1", 0.04},          // ~1.3k, 0.84
	{"des_perf_a", 0.015},    // ~1.6k, 0.43
	{"edit_dist_a", 0.015},   // ~1.9k, 0.46
	{"matrix_mult_b", 0.015}, // ~2.2k, 0.31
	{"superblue14", 0.005},   // ~3.0k, 0.56
	{"matrix_mult_1", 0.02},  // ~3.1k, 0.80
	{"des_perf_b", 0.03},     // ~3.4k, 0.50
}

// batchRoundSeconds is the op time of one batch-cold round at the commit
// that introduced the benchmark, on a 2-vCPU VM. A run legalizes
// seconds/batchRoundSeconds rounds, at least two: the work is a function
// of the seed and the run length only, so two commits legalize the same
// designs and a faster program finishes sooner.
const batchRoundSeconds = 1.7

// roundsFor sizes a run in whole rounds.
func roundsFor(seconds time.Duration, roundSeconds float64) int {
	return max(2, int(math.Round(seconds.Seconds()/roundSeconds)))
}

// designRounds lists a run's designs in run order: round by round, each
// round in its family list's order.
type designRounds struct {
	designs []*design.Design
	round   int // designs per round
}

// setupRounds generates rounds × len(list) designs and runs warmup on a
// clone of the first (smallest) one, so lazy runtime set-up is paid before
// timing.
func setupRounds(seed int64, list []suiteDesign, rounds int, warmup func(*design.Design) error) (*designRounds, error) {
	b := &designRounds{round: len(list)}
	for round := 0; round < rounds; round++ {
		for j, sd := range list {
			d, err := generate(seed, round*len(list)+j, sd)
			if err != nil {
				return nil, err
			}
			b.designs = append(b.designs, d)
		}
	}
	if err := warmup(b.designs[0].Clone()); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return b, nil
}

// checkLegal is the untimed correctness check of a committed placement.
func checkLegal(d *design.Design) error {
	if rep := design.CheckLegal(d); !rep.Legal() {
		return fmt.Errorf("%s: placement is illegal: %s", d.Name, rep)
	}
	return nil
}

// legalizeCold is the batch-cold op: a fresh legalizer with the default
// options, as mclg runs it.
func legalizeCold(d *design.Design) error {
	_, err := core.New(core.Options{}).LegalizeContext(context.Background(), d)
	return err
}

func runBatchCold(cfg runConfig, r *report) error {
	b, setupS, err := repeatSetup(func() (*designRounds, error) {
		return setupRounds(cfg.seed, batchDesigns, roundsFor(cfg.seconds, batchRoundSeconds), legalizeCold)
	}, func(*designRounds) {})
	if err != nil {
		return err
	}
	if cfg.trace {
		return traceBatchCold(cfg, b, r)
	}
	r.set("setup_s", setupS)
	runDesigns(cfg, r, b, legalizeCold)
	return nil
}

// runDesigns is the timed phase shared by the design-at-a-time workloads:
// it runs op once on a fresh clone of every design. Only op itself is
// timed; cloning and the legality check are not.
func runDesigns(cfg runConfig, r *report, b *designRounds, op func(*design.Design) error) {
	ph := beginPhase()
	var (
		c     cost
		lat   []float64
		cells int
		q     quality
		ok    int
	)
	for i, src := range b.designs {
		d := src.Clone()
		u0 := readUsage()
		err := op(d)
		u1 := readUsage()
		c.add(u0, u1, 1)
		r.attempted++
		lat = append(lat, u1.wall.Sub(u0.wall).Seconds())
		if err == nil {
			err = checkLegal(d)
		}
		if err != nil {
			r.opFailed("op %d: %v", i, err)
			continue
		}
		ok++
		cells += d.NumMovable()
		q.addDesign(d)
	}
	ph.health(r, "")
	r.set("ok_frac", float64(ok)/float64(r.attempted))
	r.printed("cpu_ms_per_op", "ms", c.cpuMSPerOp(), "")
	r.set("alloc_mb_per_op", c.allocMBPerOp())
	q.set(r)
	r.note("%s: %d designs (%d rounds of %d), %d ok, timed %.2fs", cfg.workload, r.attempted, len(b.designs)/b.round, b.round, ok, c.wall.Seconds())
	r.printed("cells_per_s", "cells/s", float64(cells)/c.wall.Seconds(), "")
	noteLatency(r, lat)
}

// noteLatency prints the latency percentiles with their sample counts; the
// tail percentile appears only under the ten-beyond rule.
func noteLatency(r *report, lat []float64) {
	p50, beyond := percentile(lat, 0.5)
	r.printed("latency_p50_s", "s", p50, fmt.Sprintf("n=%d, %d beyond", len(lat), beyond))
	if p90, ok := tailPercentile(lat, 0.9); ok {
		r.printed("latency_p90_s", "s", p90, fmt.Sprintf("n=%d", len(lat)))
	} else {
		r.note("metric %-24s %14s s (n=%d; needs %d samples beyond it; not gated)", "latency_p90_s", "n/a", len(lat), minBeyond)
	}
}

// stagedRun is the per-layer outcome of legalizing one design stage by
// stage, in the order core.Legalizer.LegalizeContext runs the stages.
type stagedRun struct {
	iterations int
	warmSeeded bool
	illegal    int
	problem    *core.Problem
}

// legalizeStaged runs the legalizer's exported stages with a span around
// each, under a root span for the op.
func legalizeStaged(ctx context.Context, t *tracer, trace int, prefix string, d *design.Design, workers int) (*stagedRun, error) {
	l := core.New(core.Options{Workers: workers})
	opts := l.Opts
	root := t.begin(trace, 0, prefix+"op")
	defer t.end(root)
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	var err error
	t.call(trace, root, prefix+"core.AssignRowsP", func() { err = core.AssignRowsP(d, opts.Workers) })
	if err != nil {
		return nil, err
	}
	var p *core.Problem
	t.call(trace, root, prefix+"core.BuildProblemBounded", func() {
		p, err = core.BuildProblemBounded(d, opts.Lambda, opts.BoundRight)
	})
	if err != nil {
		return nil, err
	}
	var (
		x  []float64
		st *core.SolveStats
	)
	t.call(trace, root, prefix+"core.SolveMMSIMContext", func() { x, st, err = core.SolveMMSIMContext(ctx, p, opts) })
	if err != nil {
		return nil, err
	}
	t.call(trace, root, prefix+"core.Restore", func() { core.Restore(p, x) })
	var tres *tetris.Result
	t.call(trace, root, prefix+"tetris.AllocateContextP", func() { tres, err = tetris.AllocateContextP(ctx, d, opts.Workers) })
	if err != nil {
		return nil, err
	}
	return &stagedRun{iterations: st.Iterations, warmSeeded: st.WarmSeeded, illegal: tres.Illegal, problem: p}, nil
}

// lcpBytesPerIter is the computed memory traffic of one fused MMSIM
// iteration over an LCP with the given nnz and dimension n: the CSR's
// column indices and values (8 bytes each per nonzero) and row pointers,
// plus nine length-n float64 streams (rhs read and write, Ω, |s|, q in the
// rhs pass; z, zPrev, s, |s| in the z pass). It is a model, not a
// measurement.
func lcpBytesPerIter(nnz, n int) float64 {
	return 16*float64(nnz) + 8*float64(n+1) + 9*8*float64(n)
}

func traceBatchCold(cfg runConfig, b *designRounds, r *report) error {
	ctx := context.Background()
	ph := beginPhase()
	defer ph.health(r, "")
	// The first third of the run's rounds, at least one.
	n := b.round * max(1, len(b.designs)/b.round/3)
	op := func(i int) *design.Design { return b.designs[i%len(b.designs)] }

	// Untraced reference pass: the same call as the untraced run.
	var ref cost
	var hashes []string
	for i := 0; i < n; i++ {
		d := op(i).Clone()
		u0 := readUsage()
		err := legalizeCold(d)
		u1 := readUsage()
		ref.add(u0, u1, 1)
		r.attempted++
		if err == nil {
			err = checkLegal(d)
		}
		if err != nil {
			r.opFailed("reference op %d: %v", i, err)
		}
		hashes = append(hashes, regress.PositionHash(d))
	}

	t := newTracer()
	var (
		iters, illegal, warm int
		nnzSum               float64
		bytesIter            float64
		tracedWall           float64
	)
	for i := 0; i < n; i++ {
		d := op(i).Clone()
		u0 := readUsage()
		sr, err := legalizeStaged(ctx, t, i+1, "", d, 0)
		tracedWall += readUsage().wall.Sub(u0.wall).Seconds()
		if err != nil {
			r.opFailed("traced op %d: %v", i, err)
			continue
		}
		if h := regress.PositionHash(d); h != hashes[i] {
			r.opFailed("traced op %d: placement hash %s differs from the untraced run's %s", i, h, hashes[i])
		}
		t.call(i+1, 0, "design.CheckLegal", func() { err = checkLegal(d) })
		if err != nil {
			r.opFailed("traced op %d: %v", i, err)
		}
		iters += sr.iterations
		illegal += sr.illegal
		if sr.warmSeeded {
			warm++
		}
		a := sr.problem.AssembleLCPMatrix()
		nnzSum += float64(a.NNZ())
		bytesIter += lcpBytesPerIter(a.NNZ(), a.Rows) * float64(sr.iterations)
	}

	// The same problems at Workers 1, for the parallel speed-up.
	for i := 0; i < n; i++ {
		d := op(i).Clone()
		if _, err := legalizeStaged(ctx, t, n+i+1, "workers1/", d, 1); err != nil {
			r.opFailed("workers-1 op %d: %v", i, err)
			continue
		}
		if h := regress.PositionHash(d); h != hashes[i] {
			r.opFailed("workers-1 op %d: placement hash %s differs from the default-workers run's %s", i, h, hashes[i])
		}
	}

	self := selfTimes(t.spans)
	per := func(name string) float64 { return self[name] / float64(n) }
	r.set("core.assign_s", per("core.AssignRowsP"))
	r.set("core.build_s", per("core.BuildProblemBounded"))
	r.set("core.solve_s", per("core.SolveMMSIMContext"))
	r.set("core.restore_s", per("core.Restore"))
	r.set("core.warm_seeded_frac", float64(warm)/float64(n))
	r.set("lcp.iterations", float64(iters)/float64(n))
	if iters > 0 {
		r.set("lcp.us_per_iter", 1e6*self["core.SolveMMSIMContext"]/float64(iters))
		r.set("sparse.mb_per_iter", bytesIter/float64(iters)/1e6)
	}
	r.set("sparse.nnz", nnzSum/float64(n))
	if s := self["core.SolveMMSIMContext"]; s > 0 {
		r.set("par.speedup", self["workers1/core.SolveMMSIMContext"]/s)
	}
	r.set("tetris.s", per("tetris.AllocateContextP"))
	r.set("tetris.illegal", float64(illegal)/float64(n))
	r.set("design.checklegal_s", per("design.CheckLegal"))
	r.set("go.gc_cpu_s", ref.gcCPU/float64(n))

	// The window and exact layers on the same inputs. The untraced
	// batch-cold never calls them; this pass keeps them measured on a
	// workload the benchmark gates (see README.md, window-exact).
	traceWindowPasses(ctx, r, t, 2*n+1, op, 0, cfg.seconds/6, nil)

	r.note("batch-cold traced: %d designs; untraced %.3fs/op, traced %.3fs/op, tracing overhead %+.1f%%",
		n, ref.wall.Seconds()/float64(n), tracedWall/float64(n), 100*(tracedWall/ref.wall.Seconds()-1))
	noteSelfTimes(r, self, n, func(name string) bool {
		return !strings.HasPrefix(name, "workers1/") && !strings.HasPrefix(name, "window.")
	})
	return writeSpans(cfg, t, r)
}

// noteSelfTimes prints the self time per op of each span name keep
// accepts, and its share of their total.
func noteSelfTimes(r *report, self map[string]float64, ops int, keep func(string) bool) {
	var names []string
	total := 0.0
	for name, s := range self {
		if keep(name) {
			names = append(names, name)
			total += s
		}
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	for _, name := range names {
		share := 0.0
		if total > 0 {
			share = self[name] / total
		}
		r.note("self %-40s %12.6f s/op %6.1f%%", name, self[name]/float64(ops), 100*share)
	}
}

func writeSpans(cfg runConfig, t *tracer, r *report) error {
	path, err := t.write(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err != nil {
		return err
	}
	r.note("spans: %d written to %s", len(t.spans), path)
	return nil
}
