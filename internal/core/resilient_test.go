package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"mclg/internal/design"
	"mclg/internal/gen"
	"mclg/internal/mclgerr"
)

func genBench(t *testing.T, singles, doubles int, density float64, seed int64) *design.Design {
	t.Helper()
	d, err := gen.Generate(gen.Spec{
		Name:        "resilient-bench",
		SingleCells: singles,
		DoubleCells: doubles,
		Density:     density,
		Seed:        seed,
	})
	if err != nil {
		t.Fatalf("gen: %v", err)
	}
	return d
}

// The dual-LCP PGS and the primal MMSIM solve the same strictly convex QP,
// so away from the x = 0 boundary their subcell solutions must coincide.
func TestSolvePGSMatchesMMSIM(t *testing.T) {
	d := genBench(t, 40, 6, 0.5, 7)
	if err := AssignRows(d); err != nil {
		t.Fatalf("AssignRows: %v", err)
	}
	p, err := BuildProblemBounded(d, 1000, false)
	if err != nil {
		t.Fatalf("build: %v", err)
	}

	opts := New(Options{Eps: 1e-9}).Opts
	xm, st, err := SolveMMSIM(p, opts)
	if err != nil {
		t.Fatalf("MMSIM: %v", err)
	}
	if !st.Converged {
		t.Fatalf("MMSIM did not converge in %d iterations", st.Iterations)
	}

	xp, sweeps, err := SolvePGS(context.Background(), p, 1e-10, 200000)
	if err != nil {
		t.Fatalf("PGS: %v (after %d sweeps)", err, sweeps)
	}

	maxDiff := 0.0
	for i := range xm {
		if diff := math.Abs(xm[i] - xp[i]); diff > maxDiff {
			maxDiff = diff
		}
	}
	if maxDiff > 0.05 {
		t.Fatalf("PGS and MMSIM solutions differ by %g sites (want < 0.05)", maxDiff)
	}
}

func TestResilientFirstRungSucceeds(t *testing.T) {
	d := genBench(t, 150, 20, 0.7, 11)
	rs, err := NewResilient(ResilientOptions{}).Legalize(d)
	if err != nil {
		t.Fatalf("resilient: %v", err)
	}
	if rs.Rung != RungMMSIM {
		t.Fatalf("rung = %q, want %q", rs.Rung, RungMMSIM)
	}
	if len(rs.Attempts) != 1 || rs.Attempts[0].Err != nil {
		t.Fatalf("attempts = %+v, want one clean attempt", rs.Attempts)
	}
	if rep := design.CheckLegal(d); !rep.Legal() {
		t.Fatalf("placement illegal: %v", rep)
	}
}

// A starved iteration budget fails the MMSIM rung with ErrIterBudget and the
// cascade degrades to the PGS rung, which must still deliver a legal result.
func TestResilientDegradesToPGS(t *testing.T) {
	d := genBench(t, 120, 15, 0.7, 3)
	rs, err := NewResilient(ResilientOptions{
		Base:       Options{MaxIter: 1, Eps: 1e-12},
		MaxRetunes: -1,
	}).Legalize(d)
	if err != nil {
		t.Fatalf("resilient: %v", err)
	}
	if rs.Rung != RungPGS {
		t.Fatalf("rung = %q, want %q", rs.Rung, RungPGS)
	}
	if len(rs.Attempts) != 2 {
		t.Fatalf("got %d attempts, want 2", len(rs.Attempts))
	}
	if !errors.Is(rs.Attempts[0].Err, mclgerr.ErrIterBudget) {
		t.Fatalf("first attempt error = %v, want ErrIterBudget", rs.Attempts[0].Err)
	}
	if rep := design.CheckLegal(d); !rep.Legal() {
		t.Fatalf("placement illegal: %v", rep)
	}
}

func TestResilientDegradesToGreedy(t *testing.T) {
	d := genBench(t, 120, 15, 0.7, 5)
	rs, err := NewResilient(ResilientOptions{
		Base:       Options{MaxIter: 1, Eps: 1e-12},
		MaxRetunes: -1,
		DisablePGS: true,
	}).Legalize(d)
	if err != nil {
		t.Fatalf("resilient: %v", err)
	}
	if rs.Rung != RungGreedy {
		t.Fatalf("rung = %q, want %q", rs.Rung, RungGreedy)
	}
	if rep := design.CheckLegal(d); !rep.Legal() {
		t.Fatalf("placement illegal: %v", rep)
	}
}

// The retuned rung must recover from a hostile base configuration (tiny
// budget) once the backoff raises the budget and re-clamps the constants.
func TestResilientRetuneRecovers(t *testing.T) {
	d := genBench(t, 100, 12, 0.6, 9)
	rs, err := NewResilient(ResilientOptions{
		Base:          Options{MaxIter: 2, Eps: 1e-6, Beta: 1.9, Theta: 1.9},
		MaxRetunes:    3,
		DisablePGS:    true,
		DisableGreedy: true,
	}).Legalize(d)
	if err != nil {
		t.Fatalf("resilient: %v", err)
	}
	if rs.Rung != RungMMSIMRetuned {
		t.Fatalf("rung = %q, want %q", rs.Rung, RungMMSIMRetuned)
	}
	if rep := design.CheckLegal(d); !rep.Legal() {
		t.Fatalf("placement illegal: %v", rep)
	}
}

// When every rung fails, the input placement must be untouched and the
// joined error must still match the taxonomy.
func TestResilientTotalFailureLeavesDesignUnchanged(t *testing.T) {
	d := genBench(t, 80, 10, 0.7, 13)
	type pos struct{ x, y float64 }
	before := make([]pos, len(d.Cells))
	for i, c := range d.Cells {
		before[i] = pos{c.X, c.Y}
	}

	rs, err := NewResilient(ResilientOptions{
		Base:          Options{MaxIter: 1, Eps: 1e-12},
		MaxRetunes:    -1,
		DisablePGS:    true,
		DisableGreedy: true,
	}).Legalize(d)
	if err == nil {
		t.Fatal("want an error when every rung fails")
	}
	if !errors.Is(err, mclgerr.ErrIterBudget) {
		t.Fatalf("error = %v, want ErrIterBudget in the chain", err)
	}
	if !mclgerr.IsTaxonomy(err) {
		t.Fatalf("error %v does not match the taxonomy", err)
	}
	if rs == nil || rs.Rung != "" {
		t.Fatalf("stats = %+v, want attempt trace with no successful rung", rs)
	}
	for i, c := range d.Cells {
		if c.X != before[i].x || c.Y != before[i].y {
			t.Fatalf("cell %d moved from (%g,%g) to (%g,%g) despite total failure",
				i, before[i].x, before[i].y, c.X, c.Y)
		}
	}
}

// panicOnIter panics inside every MMSIM rung (the iteration calls OnIter);
// the PGS and greedy rungs never call it.
func panicOnIter(int, float64) { panic("injected rung panic") }

// A rung body that panics is contained: its attempt records an
// ErrPanic-matching error and the next rung runs.
func TestResilientPanickingRungDegrades(t *testing.T) {
	d := genBench(t, 120, 15, 0.7, 3)
	rs, err := NewResilient(ResilientOptions{Base: Options{OnIter: panicOnIter}}).Legalize(d)
	if err != nil {
		t.Fatalf("resilient: %v", err)
	}
	if rs.Rung != RungPGS {
		t.Fatalf("rung = %q, want %q", rs.Rung, RungPGS)
	}
	want := []Rung{RungMMSIM, RungMMSIMRetuned, RungMMSIMRetuned, RungPGS}
	if len(rs.Attempts) != len(want) {
		t.Fatalf("got %d attempts, want %d", len(rs.Attempts), len(want))
	}
	for i, a := range rs.Attempts {
		if a.Rung != want[i] {
			t.Fatalf("attempt %d rung = %q, want %q", i, a.Rung, want[i])
		}
		if last := i == len(want)-1; last != (a.Err == nil) {
			t.Fatalf("attempt %d (%s) error = %v", i, a.Rung, a.Err)
		}
		if a.Err != nil && !errors.Is(a.Err, mclgerr.ErrPanic) {
			t.Fatalf("attempt %d error = %v, want ErrPanic", i, a.Err)
		}
	}
	if rep := design.CheckLegal(d); !rep.Legal() {
		t.Fatalf("placement illegal: %v", rep)
	}
}

// A cascade whose every rung panics fails with ErrPanic and leaves the
// caller's design untouched.
func TestResilientAllRungsPanicLeaveDesignUnchanged(t *testing.T) {
	d := genBench(t, 80, 10, 0.7, 13)
	before := d.CloneCells()
	rs, err := NewResilient(ResilientOptions{
		Base:          Options{OnIter: panicOnIter},
		DisablePGS:    true,
		DisableGreedy: true,
	}).Legalize(d)
	if !errors.Is(err, mclgerr.ErrPanic) {
		t.Fatalf("error = %v, want ErrPanic", err)
	}
	if rs == nil || rs.Rung != "" || len(rs.Attempts) != 3 {
		t.Fatalf("stats = %+v, want three failed attempts and no successful rung", rs)
	}
	for i, c := range d.Cells {
		if b := before.Cells[i]; *c != *b {
			t.Fatalf("cell %d changed from %+v to %+v despite total failure", i, *b, *c)
		}
	}
}

func TestResilientCanceledContextShortCircuits(t *testing.T) {
	d := genBench(t, 80, 10, 0.7, 17)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := NewResilient(ResilientOptions{}).LegalizeContext(ctx, d)
	if !errors.Is(err, mclgerr.ErrCanceled) {
		t.Fatalf("error = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled in the chain", err)
	}
}

func TestResilientRejectsInvalidOptions(t *testing.T) {
	d := genBench(t, 20, 2, 0.5, 19)
	_, err := NewResilient(ResilientOptions{Base: Options{Beta: 2.5}}).Legalize(d)
	if !errors.Is(err, mclgerr.ErrInvalidInput) {
		t.Fatalf("error = %v, want ErrInvalidInput", err)
	}
}
