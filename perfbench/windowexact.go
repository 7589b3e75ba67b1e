package main

import (
	"context"
	"fmt"
	"time"

	"mclg/internal/design"
	"mclg/internal/regress"
	"mclg/internal/window"
)

// windowDesigns is one round of window-exact: the batch-cold families up
// to about 2.2k cells.
var windowDesigns = batchDesigns[:8]

// exactK is the number of worst-displacement windows the exact post-pass
// re-solves (mclg -windows -exact 1).
const exactK = 1

// exactTally accumulates the exact post-pass outcome over ops.
type exactTally struct {
	ops, windows, retries, degraded     int
	selected, improved, proven, skipped int
	gapMax                              float64
}

// add checks one windowed run's statistics and tallies them: no window
// may need a retry or degrade, and every measured gap lies in [0, 1].
func (t *exactTally) add(st *window.Stats, k int) error {
	t.ops++
	t.windows += st.Windows
	t.retries += st.Retries
	t.degraded += st.Degraded
	if st.Retries != 0 || st.Degraded != 0 {
		return fmt.Errorf("windowed run needed %d retries and degraded %d windows", st.Retries, st.Degraded)
	}
	if k == 0 {
		return nil
	}
	ex := st.Exact
	if ex == nil {
		return fmt.Errorf("exact post-pass did not run")
	}
	t.selected += ex.Selected
	t.improved += ex.Improved
	t.proven += ex.Proven
	t.skipped += ex.Skipped
	t.gapMax = max(t.gapMax, ex.MaxGap)
	for _, g := range ex.Gaps {
		if !(g.Gap >= 0 && g.Gap <= 1) {
			return fmt.Errorf("window %d: gap %v outside [0, 1]", g.Window, g.Gap)
		}
	}
	if !(ex.MaxGap >= 0 && ex.MaxGap <= 1) {
		return fmt.Errorf("max gap %v outside [0, 1]", ex.MaxGap)
	}
	return nil
}

func (t *exactTally) note(r *report) {
	r.note("exact: %d ops, %d windows, %d retries, %d degraded; %d selected, %d improved, %d proven, %d skipped; gap_max %.6f fraction",
		t.ops, t.windows, t.retries, t.degraded, t.selected, t.improved, t.proven, t.skipped, t.gapMax)
}

// legalizeWindowed is the window-exact op: windowed legalization with the
// exact post-pass on k windows and otherwise default options.
func legalizeWindowed(d *design.Design, k int, tally *exactTally) error {
	st, err := window.Legalize(context.Background(), d, window.Options{ExactWindows: k})
	if err != nil {
		return err
	}
	return tally.add(st, k)
}

// runWindowExact is the window-exact workload. BENCHMARK.json does not
// list it: the exact post-pass costs from 0.02 s to over 20 s per window
// depending on whether its node budget runs out, so a run of a few dozen
// seconds cannot average it out (README.md). Its layers are measured by
// the traced batch-cold run.
func runWindowExact(cfg runConfig, r *report) error {
	var warm exactTally
	b, setupS, err := repeatSetup(func() (*designRounds, error) {
		return setupRounds(cfg.seed, windowDesigns, 1, func(d *design.Design) error {
			return legalizeWindowed(d, exactK, &warm)
		})
	}, func(*designRounds) {})
	if err != nil {
		return err
	}
	if cfg.trace {
		return traceWindowExact(cfg, b, r)
	}
	r.set("setup_s", setupS)
	var tally exactTally
	runDesigns(cfg, r, b, func(d *design.Design) error { return legalizeWindowed(d, exactK, &tally) })
	tally.note(r)
	return nil
}

func traceWindowExact(cfg runConfig, b *designRounds, r *report) error {
	ph := beginPhase()
	defer ph.health(r, "")
	var (
		ref    cost
		hashes []string
		tally  exactTally
	)
	for i, src := range b.designs {
		d := src.Clone()
		u0 := readUsage()
		err := legalizeWindowed(d, exactK, &tally)
		ref.add(u0, readUsage(), 1)
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
	op := func(i int) *design.Design { return b.designs[i] }
	n, traced := traceWindowPasses(context.Background(), r, t, 1, op, len(hashes), 0, hashes)
	self := selfTimes(t.spans)
	r.set("design.checklegal_s", self["design.CheckLegal"]/float64(n))
	r.set("go.gc_cpu_s", ref.gcCPU/float64(n))
	r.note("window-exact traced: %d designs; untraced %.3fs/op, traced %.3fs/op, tracing overhead %+.1f%%",
		n, ref.wall.Seconds()/float64(n), traced.Seconds()/float64(n), 100*(traced.Seconds()/ref.wall.Seconds()-1))
	noteSelfTimes(r, self, n, func(string) bool { return true })
	return writeSpans(cfg, t, r)
}

// traceWindowPasses legalizes each design twice under spans, windowed
// without and with the exact post-pass, and sets the window and exact
// layer metrics: the layer's time is the run without the post-pass, and
// the post-pass's time and allocation are the difference between the two
// runs on the same input. It covers the first count designs, or with
// count 0 whole designs until budget is spent. With hashes set, each
// post-pass placement must hash as the untraced run's did. It returns the
// designs covered and the time of the runs with the post-pass.
func traceWindowPasses(ctx context.Context, r *report, t *tracer, traceBase int, op func(int) *design.Design,
	count int, budget time.Duration, hashes []string) (int, time.Duration) {
	var (
		tally              exactTally
		winS, exS, exAlloc float64
		spent, withExact   time.Duration
		n                  int
	)
	for i := 0; (count > 0 && i < count) || (count == 0 && (i == 0 || spent < budget)); i++ {
		trace := traceBase + i
		d0, dk := op(i).Clone(), op(i).Clone()
		var (
			st0, stk *window.Stats
			err0     error
			errk     error
		)
		u0 := readUsage()
		t.call(trace, 0, "window.Legalize", func() { st0, err0 = window.Legalize(ctx, d0, window.Options{}) })
		u1 := readUsage()
		t.call(trace, 0, "window.Legalize+exact", func() {
			stk, errk = window.Legalize(ctx, dk, window.Options{ExactWindows: exactK})
		})
		u2 := readUsage()
		n++
		spent += u2.wall.Sub(u0.wall)
		withExact += u2.wall.Sub(u1.wall)
		if err0 != nil || errk != nil {
			r.opFailed("windowed op %d: %v / %v", i, err0, errk)
			continue
		}
		var scratch exactTally
		if err := scratch.add(st0, 0); err != nil {
			r.opFailed("windowed op %d: %v", i, err)
		}
		if err := tally.add(stk, exactK); err != nil {
			r.opFailed("windowed op %d: %v", i, err)
		}
		var err error
		t.call(trace, 0, "design.CheckLegal", func() { err = checkLegal(dk) })
		if err != nil {
			r.opFailed("windowed op %d: %v", i, err)
		}
		if hashes != nil && regress.PositionHash(dk) != hashes[i] {
			r.opFailed("windowed op %d: placement hash differs from the untraced run's %s", i, hashes[i])
		}
		t0, tk := u1.wall.Sub(u0.wall).Seconds(), u2.wall.Sub(u1.wall).Seconds()
		winS += t0
		exS += tk - t0
		exAlloc += float64(u2.alloc-u1.alloc) - float64(u1.alloc-u0.alloc)
	}
	per := func(v float64) float64 { return v / float64(n) }
	r.set("window.solve_s", per(winS))
	r.set("window.windows", per(float64(tally.windows)))
	r.set("window.retries", per(float64(tally.retries)))
	r.set("window.degraded", per(float64(tally.degraded)))
	r.set("exact.s", per(exS))
	r.set("exact.alloc_mb", per(exAlloc)/1e6)
	r.set("exact.selected", per(float64(tally.selected)))
	r.set("exact.improved", per(float64(tally.improved)))
	r.set("exact.proven", per(float64(tally.proven)))
	r.set("exact.gap_max", tally.gapMax)
	if hashes == nil {
		r.note("window and exact layers on the first %d batch-cold designs (%.2fs)", n, spent.Seconds())
	}
	tally.note(r)
	return n, withExact
}
