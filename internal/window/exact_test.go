package window

import (
	"context"
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"mclg/internal/design"
	"mclg/internal/mclgerr"
	"mclg/internal/metrics"
	"mclg/internal/regress"
)

func exactOptions(workers int) Options {
	opts := baseOptions(workers)
	opts.ExactWindows = 3
	opts.ExactNodeBudget = 3000
	return opts
}

// TestExactRefineTrioDeterministicAcrossWorkers pins the acceptance
// criteria on the regression trio: with the exact post-pass enabled every
// worker count gives the pinned placement, every measured gap is
// a valid certificate (nonnegative, zero exactly for the proven-optimal
// windows counted in Proven), and the refinement never worsens the
// placement a Tetris-only run commits.
func TestExactRefineTrioDeterministicAcrossWorkers(t *testing.T) {
	for _, tc := range trioCases {
		tc := tc
		t.Run(tc.bench, func(t *testing.T) {
			t.Parallel()

			base := genDesign(t, tc.bench, tc.scale)
			if _, err := Legalize(context.Background(), base, baseOptions(1)); err != nil {
				t.Fatalf("tetris-only run: %v", err)
			}
			baseDisp := metrics.MeasureDisplacement(base)

			wantHash := windowedHashes[tc.bench][1]
			for _, workers := range []int{1, 2, 8} {
				d := genDesign(t, tc.bench, tc.scale)
				st, err := Legalize(context.Background(), d, exactOptions(workers))
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if st.Exact == nil {
					t.Fatalf("workers=%d: Stats.Exact is nil with ExactWindows set", workers)
				}
				if st.Exact.Selected == 0 {
					t.Fatalf("workers=%d: no windows selected for refinement", workers)
				}
				proven, maxGap := 0, 0.0
				for _, wg := range st.Exact.Gaps {
					if wg.Gap < 0 || wg.Gap > 1 {
						t.Fatalf("workers=%d: window %d gap %g outside [0,1]", workers, wg.Window, wg.Gap)
					}
					if wg.Proven && wg.Gap == 0 {
						proven++
					} else if wg.Gap == 0 {
						t.Fatalf("workers=%d: window %d reports Gap == 0 without proof", workers, wg.Window)
					}
					if wg.Gap > maxGap {
						maxGap = wg.Gap
					}
					if wg.MaxDispAfter > wg.MaxDispBefore {
						t.Fatalf("workers=%d: window %d max displacement rose %g -> %g",
							workers, wg.Window, wg.MaxDispBefore, wg.MaxDispAfter)
					}
				}
				if proven != st.Exact.Proven {
					t.Fatalf("workers=%d: Proven = %d, want %d", workers, st.Exact.Proven, proven)
				}
				if maxGap != st.Exact.MaxGap {
					t.Fatalf("workers=%d: MaxGap = %g, want %g", workers, st.Exact.MaxGap, maxGap)
				}
				if rep := design.CheckLegal(d); !rep.Legal() {
					t.Fatalf("workers=%d: refined placement illegal: %s", workers, rep.String())
				}
				if disp := metrics.MeasureDisplacement(d); disp.MaxSites > baseDisp.MaxSites {
					t.Fatalf("workers=%d: refinement worsened max displacement %g -> %g",
						workers, baseDisp.MaxSites, disp.MaxSites)
				}
				if h := regress.PositionHash(d); h != wantHash {
					t.Fatalf("workers=%d: hash %s, pinned %s", workers, h, wantHash)
				}
			}
		})
	}
}

// TestExactRefineImprovesDegradedWindow is the seeded strict-improvement
// case: a persistently faulted window degrades to the greedy fallback,
// whose cell-by-cell placement is measurably worse than the joint optimum;
// the exact pass must then strictly reduce the whole-design max
// displacement versus the Tetris-only (no-exact) run.
func TestExactRefineImprovesDegradedWindow(t *testing.T) {
	check := leakCheck(t)
	p, err := Partition(genDesign(t, "des_perf_1", 0.004), 4, 2)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	template := chaosSpec{PanicFrac: 0.2, MaxAttempt: HedgeAttempt * 2}
	seed := chaosSeed(t, template, len(p.Bands), 1)

	run := func(exactWindows int) (*Stats, *design.Design) {
		d := genDesign(t, "des_perf_1", 0.004)
		opts := baseOptions(2)
		opts.SolveWindow = chaosSolve(template.with(seed), opts.Core)
		opts.RetryBackoff = time.Millisecond
		opts.ExactWindows = exactWindows
		opts.ExactNodeBudget = 3000
		st, err := Legalize(context.Background(), d, opts)
		if err != nil {
			t.Fatalf("Legalize(exact=%d): %v", exactWindows, err)
		}
		if st.Degraded == 0 {
			t.Fatalf("expected a degraded window, stats %+v", st)
		}
		return st, d
	}

	_, tetrisOnly := run(0)
	st, refined := run(3)
	if st.Exact == nil || st.Exact.Improved == 0 {
		t.Fatalf("exact pass improved no window, stats %+v", st.Exact)
	}
	before := metrics.MeasureDisplacement(tetrisOnly).MaxSites
	after := metrics.MeasureDisplacement(refined).MaxSites
	if !(after < before) {
		t.Fatalf("max displacement not strictly reduced: %g -> %g", before, after)
	}
	if rep := design.CheckLegal(refined); !rep.Legal() {
		t.Fatalf("refined placement illegal: %s", rep.String())
	}
	check()
}

// TestStitchCancellationNoPartialCommit cancels the context while the
// stitch allocation runs: stitch must fail with a canceled-class error and
// leave the design byte-for-byte untouched — stitch works on a clone and
// commits atomically only after the legality check.
func TestStitchCancellationNoPartialCommit(t *testing.T) {
	check := leakCheck(t)
	d := genDesign(t, "fft_2", 0.004)
	p, err := Partition(d, 4, 2)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	// Snapshot-quality results: what a degraded run would hand to stitch.
	results := make([]*Result, len(p.Bands))
	for i := range p.Bands {
		b := &p.Bands[i]
		res := &Result{Window: b.Index}
		for _, id := range b.Owned {
			c := d.Cells[id]
			res.Cells = append(res.Cells, CellPos{ID: id, X: c.GX, Y: d.RowY(p.AssignedRow[id])})
		}
		results[i] = res
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	wantHash := regress.PositionHash(d)
	err = stitch(ctx, d, results)
	if err == nil {
		t.Fatal("stitch under a canceled context succeeded")
	}
	if !errors.Is(err, mclgerr.ErrCanceled) {
		t.Fatalf("err = %v, want mclgerr.ErrCanceled", err)
	}
	if h := regress.PositionHash(d); h != wantHash {
		t.Fatalf("design mutated by a canceled stitch: %s != %s", h, wantHash)
	}
	check()
}

// TestCancelBeforeStitchLeavesJournalResumable cancels the job the moment
// the last window solve returns: the run must fail canceled with no partial
// commit while every window result is journaled, and a fresh run over the
// same journal must replay every window (zero re-solves) and land on the
// uninterrupted placement.
func TestCancelBeforeStitchLeavesJournalResumable(t *testing.T) {
	check := leakCheck(t)
	d := genDesign(t, "fft_2", 0.004)
	opts := baseOptions(2)
	p, err := Partition(d, opts.WindowRows, DefaultContextRows)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	windows := len(p.Bands)

	// Reference: the uninterrupted hash.
	ref := genDesign(t, "fft_2", 0.004)
	if _, err := Legalize(context.Background(), ref, baseOptions(2)); err != nil {
		t.Fatalf("reference run: %v", err)
	}
	wantHash := regress.PositionHash(ref)

	path := filepath.Join(t.TempDir(), "cancel.wal")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var (
		mu       sync.Mutex
		returned int
	)
	base := opts.Core
	opts.JournalPath = path
	opts.SolveWindow = func(ctx context.Context, d *design.Design, p *Plan, w, attempt int) (*Result, error) {
		res, err := solveClean(ctx, d, p, w, base)
		mu.Lock()
		returned++
		last := returned == windows
		mu.Unlock()
		if last {
			cancel()
		}
		return res, err
	}

	preHash := regress.PositionHash(d)
	_, err = Legalize(ctx, d, opts)
	if err == nil {
		t.Fatal("Legalize succeeded despite cancellation before stitch")
	}
	if !errors.Is(err, mclgerr.ErrCanceled) {
		t.Fatalf("err = %v, want mclgerr.ErrCanceled", err)
	}
	if h := regress.PositionHash(d); h != preHash {
		t.Fatalf("canceled run partially committed: %s != %s", h, preHash)
	}
	check()

	// Resume: every window replays from the journal, nothing re-solves.
	d2 := genDesign(t, "fft_2", 0.004)
	opts2 := baseOptions(2)
	opts2.JournalPath = path
	st, err := Legalize(context.Background(), d2, opts2)
	if err != nil {
		t.Fatalf("resumed Legalize: %v", err)
	}
	if st.Resumed != windows || st.Solved != 0 {
		t.Fatalf("resumed run stats %+v, want all %d windows replayed", st, windows)
	}
	if h := regress.PositionHash(d2); h != wantHash {
		t.Fatalf("resumed hash %s != uninterrupted hash %s", h, wantHash)
	}
}
