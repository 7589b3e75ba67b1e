package window

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"mclg/internal/core"
	"mclg/internal/design"
	"mclg/internal/faults"
	"mclg/internal/gen"
	"mclg/internal/mclgerr"
	"mclg/internal/regress"
)

// trioCases mirrors the regress golden trio.
var trioCases = []struct {
	bench string
	scale float64
}{
	{"des_perf_1", 0.004},
	{"fft_2", 0.004},
	{"superblue19", 0.002},
}

func genDesign(t *testing.T, bench string, scale float64) *design.Design {
	t.Helper()
	e, err := gen.FindEntry(bench)
	if err != nil {
		t.Fatalf("FindEntry(%s): %v", bench, err)
	}
	d, err := gen.Generate(gen.SuiteSpec(e, scale))
	if err != nil {
		t.Fatalf("Generate(%s): %v", bench, err)
	}
	return d
}

func baseOptions(workers int) Options {
	return Options{
		Core:          core.Options{Workers: workers},
		WindowRows:    4,
		WindowTimeout: 2 * time.Minute,
	}
}

// leakCheck fails the test if goroutines spawned during the checked section
// have not exited.
func leakCheck(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				n := runtime.Stack(buf, true)
				t.Fatalf("goroutine leak: %d before, %d after\n%s",
					before, runtime.NumGoroutine(), buf[:n])
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// TestPartitionCoversEveryMovableCellOnce pins the ownership contract that
// Plan.DirtyRuns' range test relies on: every movable cell has exactly one
// owner band, and each band's sub range holds the owned cells' whole
// spans, SubLo ≤ RowLo ≤ AssignedRow and AssignedRow + RowSpan ≤ SubHi, on
// the default-like partition, on two-row bands whose tall cells overhang
// into the next band, and on triple-height cells.
func TestPartitionCoversEveryMovableCellOnce(t *testing.T) {
	fft := genDesign(t, "fft_2", 0.004)
	triple, err := gen.Generate(gen.Spec{Name: "triple", SingleCells: 300, DoubleCells: 30, TripleCells: 25, Density: 0.55, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name                   string
		d                      *design.Design
		windowRows, marginRows int
	}{
		{"fft_2/4x2", fft, 4, 2},
		{"fft_2/2x1", fft, 2, 1},
		{"triple/2x1", triple, 2, 1},
	} {
		d := tc.d
		p, err := Partition(d, tc.windowRows, tc.marginRows)
		if err != nil {
			t.Fatalf("%s: Partition: %v", tc.name, err)
		}
		seen := make(map[int]int)
		for _, b := range p.Bands {
			if b.SubLo > b.RowLo || b.SubHi < b.RowHi {
				t.Fatalf("%s: band %d: sub range [%d,%d) does not cover owned [%d,%d)",
					tc.name, b.Index, b.SubLo, b.SubHi, b.RowLo, b.RowHi)
			}
			for _, id := range b.Owned {
				seen[id]++
				r := p.AssignedRow[id]
				if r < b.RowLo || r >= b.RowHi {
					t.Fatalf("%s: cell %d: assigned row %d outside band [%d,%d)", tc.name, id, r, b.RowLo, b.RowHi)
				}
				if top := r + d.Cells[id].RowSpan; top > b.SubHi {
					t.Fatalf("%s: cell %d: span top %d exceeds sub range %d", tc.name, id, top, b.SubHi)
				}
			}
		}
		for _, c := range d.Cells {
			if c.Fixed {
				continue
			}
			if seen[c.ID] != 1 {
				t.Fatalf("%s: cell %d owned by %d bands, want exactly 1", tc.name, c.ID, seen[c.ID])
			}
		}
		if len(p.Bands) < 2 {
			t.Fatalf("%s: expected multiple bands, got %d", tc.name, len(p.Bands))
		}
	}
}

// windowedHashes pins the trio's windowed placements under baseOptions,
// without and with exactOptions' post-pass, as recorded before the stitch
// and the exact pass committed through design.CommitLegal.
var windowedHashes = map[string][2]string{
	"des_perf_1":  {"3a264d44a2befb15", "e78f7ac29844a893"},
	"fft_2":       {"3272c82426100a8d", "6bbc71ba9b1a9a4d"},
	"superblue19": {"652b93282c604e8e", "84cb9d7e77db7f90"},
}

// TestWindowedLegalAndDeterministic pins the windowed determinism contract
// on the regress trio: every worker count produces a checker-legal placement
// with the one pinned position hash.
func TestWindowedLegalAndDeterministic(t *testing.T) {
	for _, tc := range trioCases {
		tc := tc
		t.Run(tc.bench, func(t *testing.T) {
			t.Parallel()
			wantHash := windowedHashes[tc.bench][0]
			for _, workers := range []int{1, 2, 8} {
				d := genDesign(t, tc.bench, tc.scale)
				st, err := Legalize(context.Background(), d, baseOptions(workers))
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if rep := design.CheckLegal(d); !rep.Legal() {
					t.Fatalf("workers=%d: illegal placement: %s", workers, rep.String())
				}
				if st.Solved+st.Resumed != st.Windows {
					t.Fatalf("workers=%d: solved %d + resumed %d != windows %d",
						workers, st.Solved, st.Resumed, st.Windows)
				}
				if h := regress.PositionHash(d); h != wantHash {
					t.Fatalf("workers=%d: hash %s, pinned %s", workers, h, wantHash)
				}
			}
		})
	}
}

// chaosSpec is a copyable WindowChaos template (WindowChaos itself carries
// an atomic counter and must not be copied once in use).
type chaosSpec struct {
	PanicFrac, StallFrac, NaNFrac float64
	MaxAttempt                    int
}

func (cs chaosSpec) with(seed uint64) *faults.WindowChaos {
	return &faults.WindowChaos{
		Seed:      seed,
		PanicFrac: cs.PanicFrac, StallFrac: cs.StallFrac, NaNFrac: cs.NaNFrac,
		MaxAttempt: cs.MaxAttempt,
	}
}

// chaosSeed finds a deterministic seed whose faulted window count lies in
// [1, maxFaulted] for the given window count and chaos template.
func chaosSeed(t *testing.T, spec chaosSpec, windows, maxFaulted int) uint64 {
	t.Helper()
	for seed := uint64(1); seed < 10000; seed++ {
		c := spec.with(seed)
		n := 0
		for w := 0; w < windows; w++ {
			if c.Fault(w, 0) != faults.FaultNone {
				n++
			}
		}
		if n >= 1 && n <= maxFaulted {
			return seed
		}
	}
	t.Fatalf("no chaos seed yields 1..%d faulted of %d windows", maxFaulted, windows)
	return 0
}

// TestChaosContainment is the acceptance-criteria test: panics, stalls, and
// NaN poisoning injected into ≤20% of windows must be fully contained — the
// placement is still checker-legal and bit-identical to the fault-free
// windowed run at every worker count, and no goroutine leaks. The subtests
// run one at a time: leakCheck counts every goroutine in the process, so a
// sibling subtest's windows still solving would read as a leak here.
func TestChaosContainment(t *testing.T) {
	for _, tc := range trioCases {
		tc := tc
		t.Run(tc.bench, func(t *testing.T) {
			clean := genDesign(t, tc.bench, tc.scale)
			if _, err := Legalize(context.Background(), clean, baseOptions(1)); err != nil {
				t.Fatalf("fault-free run: %v", err)
			}
			wantHash := regress.PositionHash(clean)

			p, err := Partition(genDesign(t, tc.bench, tc.scale), 4, 2)
			if err != nil {
				t.Fatalf("Partition: %v", err)
			}
			windows := len(p.Bands)
			maxFaulted := windows / 5
			if maxFaulted < 1 {
				maxFaulted = 1
			}
			template := chaosSpec{PanicFrac: 0.07, StallFrac: 0.07, NaNFrac: 0.07}
			seed := chaosSeed(t, template, windows, maxFaulted)

			for _, workers := range []int{1, 2, 8} {
				check := leakCheck(t)
				chaos := template.with(seed)
				d := genDesign(t, tc.bench, tc.scale)
				opts := baseOptions(workers)
				opts.SolveWindow = chaosSolve(chaos, opts.Core)
				opts.WindowTimeout = 2 * time.Second // bound injected stalls
				opts.RetryBackoff = time.Millisecond
				st, err := Legalize(context.Background(), d, opts)
				if err != nil {
					t.Fatalf("workers=%d: chaotic run failed: %v", workers, err)
				}
				if chaos.Injected.Load() == 0 {
					t.Fatalf("workers=%d: chaos harness injected nothing", workers)
				}
				if st.Retries == 0 {
					t.Fatalf("workers=%d: expected supervised retries, got none (stats %+v)", workers, st)
				}
				if st.Degraded != 0 {
					t.Fatalf("workers=%d: transient faults must not degrade windows (stats %+v)", workers, st)
				}
				if rep := design.CheckLegal(d); !rep.Legal() {
					t.Fatalf("workers=%d: illegal placement under chaos: %s", workers, rep.String())
				}
				if h := regress.PositionHash(d); h != wantHash {
					t.Fatalf("workers=%d: chaotic hash %s != fault-free hash %s", workers, h, wantHash)
				}
				check()
			}
		})
	}
}

// TestPersistentFaultDegradesWindow drives one window into permanent panic:
// every attempt fails, the supervisor degrades that window to the greedy
// fallback, and the job still commits a checker-legal placement.
func TestPersistentFaultDegradesWindow(t *testing.T) {
	check := leakCheck(t)
	d := genDesign(t, "fft_2", 0.004)
	p, err := Partition(d, 4, 2)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	template := chaosSpec{PanicFrac: 0.2, MaxAttempt: HedgeAttempt * 2}
	seed := chaosSeed(t, template, len(p.Bands), 1)

	opts := baseOptions(2)
	opts.SolveWindow = chaosSolve(template.with(seed), opts.Core)
	opts.RetryBackoff = time.Millisecond
	st, err := Legalize(context.Background(), d, opts)
	if err != nil {
		t.Fatalf("Legalize: %v", err)
	}
	if st.Degraded == 0 {
		t.Fatalf("expected a degraded window, stats %+v", st)
	}
	if st.Panics == 0 {
		t.Fatalf("expected recovered panics, stats %+v", st)
	}
	if rep := design.CheckLegal(d); !rep.Legal() {
		t.Fatalf("degraded run produced illegal placement: %s", rep.String())
	}
	check()
}

// TestHedgeWinsOverStalledPrimary stalls a window's primary attempts
// persistently; the straggler hedge (which the chaos harness never faults)
// must win, commit the clean result, and promptly cancel the stalled
// primary — with the same hash as a fault-free run and no leaked goroutines.
func TestHedgeWinsOverStalledPrimary(t *testing.T) {
	check := leakCheck(t)
	clean := genDesign(t, "fft_2", 0.004)
	if _, err := Legalize(context.Background(), clean, baseOptions(2)); err != nil {
		t.Fatalf("fault-free run: %v", err)
	}
	wantHash := regress.PositionHash(clean)

	d := genDesign(t, "fft_2", 0.004)
	p, err := Partition(d, 4, 2)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	// Persistent stall on primary attempts only (MaxAttempt ≪ HedgeAttempt).
	template := chaosSpec{StallFrac: 0.2, MaxAttempt: 64}
	seed := chaosSeed(t, template, len(p.Bands), 1)

	opts := baseOptions(4)
	opts.SolveWindow = chaosSolve(template.with(seed), opts.Core)
	opts.WindowTimeout = 30 * time.Second
	opts.MaxRetries = -1 // stalled primaries burn the whole deadline; rely on the hedge
	opts.HedgeQuantile = 0.5
	t0 := time.Now()
	st, err := Legalize(context.Background(), d, opts)
	if err != nil {
		t.Fatalf("Legalize: %v", err)
	}
	if st.HedgesIssued == 0 || st.HedgesWon == 0 {
		t.Fatalf("expected winning hedges, stats %+v", st)
	}
	if elapsed := time.Since(t0); elapsed > 25*time.Second {
		t.Fatalf("hedge did not preempt the stalled primary (took %v)", elapsed)
	}
	if rep := design.CheckLegal(d); !rep.Legal() {
		t.Fatalf("hedged run produced illegal placement: %s", rep.String())
	}
	if h := regress.PositionHash(d); h != wantHash {
		t.Fatalf("hedged hash %s != fault-free hash %s", h, wantHash)
	}
	check()
}

// TestHedgeCancelsStalledLoser pins loser cancellation: when the hedge wins,
// the commit path must cancel the stalled primary attempt immediately — not
// leave it burning its per-attempt deadline. The window timeout here is far
// beyond what the test tolerates, so the run can only finish on time if the
// commit-side cancel (not the deadline) unblocks the stalled loser; the leak
// check then proves the loser's goroutine fully exited.
func TestHedgeCancelsStalledLoser(t *testing.T) {
	check := leakCheck(t)
	clean := genDesign(t, "fft_2", 0.004)
	if _, err := Legalize(context.Background(), clean, baseOptions(2)); err != nil {
		t.Fatalf("fault-free run: %v", err)
	}
	wantHash := regress.PositionHash(clean)

	d := genDesign(t, "fft_2", 0.004)
	p, err := Partition(d, 4, 2)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	template := chaosSpec{StallFrac: 0.2, MaxAttempt: 64}
	seed := chaosSeed(t, template, len(p.Bands), 1)

	opts := baseOptions(4)
	opts.SolveWindow = chaosSolve(template.with(seed), opts.Core)
	opts.WindowTimeout = 10 * time.Minute // the deadline must never be the unblocker
	opts.MaxRetries = -1
	opts.HedgeQuantile = 0.5
	t0 := time.Now()
	st, err := Legalize(context.Background(), d, opts)
	if err != nil {
		t.Fatalf("Legalize: %v", err)
	}
	elapsed := time.Since(t0)
	if st.HedgesWon == 0 {
		t.Fatalf("expected a winning hedge, stats %+v", st)
	}
	if elapsed > 30*time.Second {
		t.Fatalf("stalled loser not canceled at commit: run took %v with a %v window timeout",
			elapsed, opts.WindowTimeout)
	}
	if rep := design.CheckLegal(d); !rep.Legal() {
		t.Fatalf("placement illegal: %s", rep.String())
	}
	if h := regress.PositionHash(d); h != wantHash {
		t.Fatalf("hash %s != fault-free hash %s", h, wantHash)
	}
	check()
}

// solveClean is a SolveWindow hook's clean local solve of window w.
func solveClean(ctx context.Context, d *design.Design, p *Plan, w int, opts core.Options) (*Result, error) {
	sub, idx := BuildSub(d, p, &p.Bands[w])
	return SolveSub(ctx, sub, idx, w, opts)
}

// chaosSolve is a SolveWindow hook that lets chaos sabotage each attempt
// (a panic, a stall until the attempt's context ends, or a NaN in the
// attempt's private sub-design) before the clean local solve.
func chaosSolve(chaos *faults.WindowChaos, opts core.Options) func(context.Context, *design.Design, *Plan, int, int) (*Result, error) {
	return func(ctx context.Context, d *design.Design, p *Plan, w, attempt int) (*Result, error) {
		sub, idx := BuildSub(d, p, &p.Bands[w])
		if err := chaos.Inject(ctx, w, attempt, sub); err != nil {
			return nil, mclgerr.Canceled(err)
		}
		return SolveSub(ctx, sub, idx, w, opts)
	}
}

// TestExhaustedPrimaryAwaitsHedge pins the wait before degradation: window
// 0's primary attempts fail only once its hedge has launched, and the hedge
// succeeds a little later. A primary whose retries run out while its hedge
// is in flight must wait for the hedge instead of degrading, so nothing
// degrades and the placement is the fault-free one.
func TestExhaustedPrimaryAwaitsHedge(t *testing.T) {
	check := leakCheck(t)
	clean := genDesign(t, "fft_2", 0.004)
	if _, err := Legalize(context.Background(), clean, baseOptions(2)); err != nil {
		t.Fatalf("fault-free run: %v", err)
	}
	wantHash := regress.PositionHash(clean)

	opts := baseOptions(2)
	opts.RetryBackoff = time.Millisecond
	opts.HedgeQuantile = 0.5
	base := opts.Core
	hedged := make(chan struct{})
	var once sync.Once
	opts.SolveWindow = func(ctx context.Context, d *design.Design, p *Plan, w, attempt int) (*Result, error) {
		switch {
		case w != 0 && attempt == HedgeAttempt:
			return nil, errors.New("only window 0's hedge may win")
		case w != 0:
			return solveClean(ctx, d, p, w, base)
		case attempt == HedgeAttempt:
			once.Do(func() { close(hedged) })
			select {
			case <-time.After(200 * time.Millisecond):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return solveClean(ctx, d, p, w, base)
		}
		select {
		case <-hedged:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return nil, errors.New("primary fails after its hedge launched")
	}
	d := genDesign(t, "fft_2", 0.004)
	st, err := Legalize(context.Background(), d, opts)
	if err != nil {
		t.Fatalf("Legalize: %v", err)
	}
	if st.Degraded != 0 || st.HedgesWon != 1 {
		t.Fatalf("want the hedge to win window 0 with nothing degraded, stats %+v", st)
	}
	if rep := design.CheckLegal(d); !rep.Legal() {
		t.Fatalf("placement illegal: %s", rep.String())
	}
	if h := regress.PositionHash(d); h != wantHash {
		t.Fatalf("hash %s != fault-free hash %s", h, wantHash)
	}
	check()
}

// TestLateStartingWindowIsHedged pins the start-time hedge: with one worker
// and a threshold the first commit crosses, every later window starts after
// hedging began. Their primaries block until canceled, so only a hedge
// launched when the window starts can finish them.
func TestLateStartingWindowIsHedged(t *testing.T) {
	check := leakCheck(t)
	clean := genDesign(t, "fft_2", 0.004)
	if _, err := Legalize(context.Background(), clean, baseOptions(1)); err != nil {
		t.Fatalf("fault-free run: %v", err)
	}
	wantHash := regress.PositionHash(clean)

	d := genDesign(t, "fft_2", 0.004)
	p, err := Partition(d, 4, 2)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	opts := baseOptions(1)
	opts.WindowTimeout = 10 * time.Minute // the deadline must never unblock a primary
	opts.HedgeQuantile = 0.5 / float64(len(p.Bands))
	base := opts.Core
	opts.SolveWindow = func(ctx context.Context, d *design.Design, p *Plan, w, attempt int) (*Result, error) {
		if w == 0 || attempt == HedgeAttempt {
			return solveClean(ctx, d, p, w, base)
		}
		<-ctx.Done()
		return nil, ctx.Err()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	t0 := time.Now()
	st, err := Legalize(ctx, d, opts)
	if err != nil {
		t.Fatalf("Legalize: %v", err)
	}
	if elapsed := time.Since(t0); elapsed > 10*time.Second {
		t.Fatalf("late windows were not hedged at start: run took %v", elapsed)
	}
	if want := st.Windows - 1; want < 1 || st.HedgesIssued != want || st.HedgesWon != want {
		t.Fatalf("want every window after the first won by its hedge, stats %+v", st)
	}
	if rep := design.CheckLegal(d); !rep.Legal() {
		t.Fatalf("placement illegal: %s", rep.String())
	}
	if h := regress.PositionHash(d); h != wantHash {
		t.Fatalf("hash %s != fault-free hash %s", h, wantHash)
	}
	check()
}
