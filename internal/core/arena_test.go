package core_test

import (
	"context"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"mclg/internal/core"
	"mclg/internal/design"
	"mclg/internal/gen"
	"mclg/internal/regress"
)

// fresh runs f after emptying the pools' slots and two collections, which
// empty every sync.Pool, so the solve in f builds its arena and working copy
// into new storage. Tetris's scratch slot is out of reach here; its own
// TestScratchReuseMatchesFresh pins that reuse.
func fresh(f func()) {
	core.EmptySlots()
	runtime.GC()
	runtime.GC()
	f()
}

func genDesign(t *testing.T, spec gen.Spec) *design.Design {
	t.Helper()
	d, err := gen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// arenaSequence is a run of legalizations whose sizes and shapes change from
// one to the next, so each reuses storage sized and filled by a different
// problem: big, small, big again, triple-height cells, the exact right
// boundary, and fixed macros.
func arenaSequence(t *testing.T) []struct {
	d    *design.Design
	opts core.Options
} {
	big := genDesign(t, gen.Spec{Name: "big", SingleCells: 900, DoubleCells: 120, Density: 0.7, Seed: 1})
	small := genDesign(t, gen.Spec{Name: "small", SingleCells: 60, DoubleCells: 8, Density: 0.5, Seed: 2})
	triple := genDesign(t, gen.Spec{Name: "triple", SingleCells: 300, DoubleCells: 30, TripleCells: 25, Density: 0.55, Seed: 3})
	macros := genDesign(t, gen.Spec{Name: "macros", SingleCells: 400, DoubleCells: 40, FixedMacros: 3, Density: 0.5, Seed: 4})
	return []struct {
		d    *design.Design
		opts core.Options
	}{
		{big, core.Options{}},
		{small, core.Options{}},
		{big, core.Options{Workers: 2}},
		{triple, core.Options{}},
		{big, core.Options{BoundRight: true}},
		{macros, core.Options{}},
	}
}

// TestPooledSequenceMatchesFresh legalizes one sequence through pooled
// storage and each of its steps on fresh storage: every placement and every
// reported count must be identical, so no step reads what an earlier,
// differently sized problem left in the buffers it reuses.
func TestPooledSequenceMatchesFresh(t *testing.T) {
	seq := arenaSequence(t)
	type result struct {
		hash  string
		stats core.Stats
	}
	legalize := func(i int) result {
		d := seq[i].d.Clone()
		st, err := core.New(seq[i].opts).Legalize(d)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		st.BuildTime, st.SolveTime, st.TetrisTime = 0, 0, 0
		return result{regress.PositionHash(d), *st}
	}
	want := make([]result, len(seq))
	for i := range seq {
		fresh(func() { want[i] = legalize(i) })
	}
	for i := range seq {
		if got := legalize(i); got != want[i] {
			t.Errorf("step %d: pooled %+v, fresh %+v", i, got, want[i])
		}
	}
}

// TestResultsOutlivePooledSolves checks that nothing a caller gets back
// points into pooled storage: a returned z, a built Problem and a Stats are
// unchanged by later pooled solves of a smaller and a larger design, which
// overwrite the storage in place and regrow it.
func TestResultsOutlivePooledSolves(t *testing.T) {
	a := genDesign(t, gen.Spec{Name: "a", SingleCells: 300, DoubleCells: 40, Density: 0.6, Seed: 21})
	later := []*design.Design{
		genDesign(t, gen.Spec{Name: "smaller", SingleCells: 150, DoubleCells: 20, TripleCells: 5, Density: 0.7, Seed: 22}),
		genDesign(t, gen.Spec{Name: "larger", SingleCells: 400, DoubleCells: 50, TripleCells: 10, Density: 0.7, Seed: 23}),
	}
	if err := core.AssignRows(a); err != nil {
		t.Fatal(err)
	}
	p, err := core.BuildProblemBounded(a, 1000, false)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := core.BuildProblemBounded(a, 1000, false)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.New(core.Options{}).Opts
	z, solveSt, err := core.SolveMMSIMFull(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	zWant, solveWant := slices.Clone(z), *solveSt
	st, err := core.New(core.Options{}).Legalize(a.Clone())
	if err != nil {
		t.Fatal(err)
	}
	stWant := *st

	// Pooled solves of other designs, through both entry points.
	for _, b := range later {
		if _, err := core.New(core.Options{}).Legalize(b.Clone()); err != nil {
			t.Fatal(err)
		}
		db := b.Clone()
		if err := core.AssignRows(db); err != nil {
			t.Fatal(err)
		}
		pb, err := core.BuildProblemBounded(db, 1000, true)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := core.SolveMMSIMFull(context.Background(), pb, opts); err != nil {
			t.Fatal(err)
		}
	}

	if !slices.Equal(z, zWant) {
		t.Error("a returned z changed after later pooled solves")
	}
	if *solveSt != solveWant || *st != stWant {
		t.Error("returned stats changed after later pooled solves")
	}
	if !reflect.DeepEqual(p, twin) {
		t.Error("a built Problem changed after later pooled solves")
	}
}

// TestFailedCascadeLeavesCallerUntouched runs the cascade on a design whose
// every rung fails, after a successful cascade on a larger design primed the
// pooled working copy: the caller's cells and netlist must be exactly as
// they were, and a later successful cascade must still move only positions.
func TestFailedCascadeLeavesCallerUntouched(t *testing.T) {
	big := genDesign(t, gen.Spec{Name: "big", SingleCells: 600, DoubleCells: 60, Density: 0.6, Seed: 31})
	d := genDesign(t, gen.Spec{Name: "d", SingleCells: 200, DoubleCells: 20, Density: 0.7, Seed: 32})
	snapshot := func(d *design.Design) ([]design.Cell, []design.Net) {
		cells := make([]design.Cell, len(d.Cells))
		for i, c := range d.Cells {
			cells[i] = *c
		}
		nets := make([]design.Net, len(d.Nets))
		for i, n := range d.Nets {
			nets[i] = n
			nets[i].Pins = slices.Clone(n.Pins)
		}
		return cells, nets
	}
	cells, nets := snapshot(d)
	if _, err := core.NewResilient(core.ResilientOptions{}).Legalize(big.Clone()); err != nil {
		t.Fatal(err)
	}
	failing := core.ResilientOptions{
		Base:       core.Options{MaxIter: 1, Eps: 1e-12, MMSIMOnly: true},
		MaxRetunes: -1, DisablePGS: true, DisableGreedy: true,
	}
	if _, err := core.NewResilient(failing).Legalize(d); err == nil {
		t.Fatal("want every rung to fail")
	}
	gotCells, gotNets := snapshot(d)
	if !reflect.DeepEqual(gotCells, cells) || !reflect.DeepEqual(gotNets, nets) {
		t.Fatal("a failed cascade changed the caller's cells or netlist")
	}

	if _, err := core.NewResilient(core.ResilientOptions{}).Legalize(d); err != nil {
		t.Fatal(err)
	}
	gotCells, gotNets = snapshot(d)
	for i := range gotCells {
		gotCells[i].X, gotCells[i].Y, gotCells[i].Flipped = cells[i].X, cells[i].Y, cells[i].Flipped
	}
	if !reflect.DeepEqual(gotCells, cells) || !reflect.DeepEqual(gotNets, nets) {
		t.Fatal("a successful cascade changed more than the caller's positions")
	}
}

// TestConcurrentPooledSolves runs cascades over designs of different sizes
// from several goroutines at once, as windows and the serve pool do, so the
// solves share the slots and the pools behind them: every placement must
// equal the same design's solve on its own.
func TestConcurrentPooledSolves(t *testing.T) {
	seq := arenaSequence(t)
	solve := func(i int) (string, error) {
		d := seq[i].d.Clone()
		if _, err := core.NewResilient(core.ResilientOptions{Base: seq[i].opts}).Legalize(d); err != nil {
			return "", err
		}
		return regress.PositionHash(d), nil
	}
	want := make([]string, len(seq))
	for i := range seq {
		h, err := solve(i)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = h
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 2*len(seq); k++ {
				i := (g + k) % len(seq)
				if h, err := solve(i); err != nil || h != want[i] {
					t.Errorf("goroutine %d, design %d: hash %s, err %v; want %s", g, i, h, err, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}
