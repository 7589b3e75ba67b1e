package design_test

import (
	"errors"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"mclg/internal/core"
	"mclg/internal/design"
	"mclg/internal/gen"
	"mclg/internal/mclgerr"
)

// commit runs design.CommitLegal and checks that the working copy it lent
// run no longer holds d's netlist once it returns: the copy goes back to a
// pool, where it must not keep the caller's netlist alive.
func commit(t *testing.T, d *design.Design, stage string, run func(w *design.Design) error) error {
	t.Helper()
	var work *design.Design
	err := design.CommitLegal(d, stage, func(w *design.Design) error {
		work = w
		return run(w)
	})
	if work == nil {
		t.Fatalf("%s: CommitLegal never called run", stage)
	}
	if work.Nets != nil {
		t.Errorf("%s: the working copy still holds the netlist after CommitLegal returned", stage)
	}
	return err
}

// snapshot deep-copies d's cells and netlist.
func snapshot(d *design.Design) ([]design.Cell, []design.Net) {
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

func unchanged(t *testing.T, d *design.Design, cells []design.Cell, nets []design.Net) {
	t.Helper()
	gotCells, gotNets := snapshot(d)
	if !reflect.DeepEqual(gotCells, cells) || !reflect.DeepEqual(gotNets, nets) {
		t.Fatal("a refused commit changed the design's cells or netlist")
	}
}

// scramble moves every movable cell off its legal spot and flips the odd
// spans, which leaves any suite design illegal.
func scramble(w *design.Design) {
	for _, c := range w.Cells {
		if !c.Fixed {
			c.X, c.Y = c.GX+0.37*w.SiteW, c.GY+0.41*w.RowHeight
			c.Flipped = !c.Flipped
		}
	}
}

func legalize(w *design.Design) error {
	_, err := core.New(core.Options{}).Legalize(w)
	return err
}

// TestCommitLegalRefusesIllegal: an illegal result leaves d's positions,
// flips and netlist as they were and comes back as an ErrUnplacedCells
// stage error named by the caller, carrying CheckLegal's report.
func TestCommitLegalRefusesIllegal(t *testing.T) {
	d := generate(t, "fft_2", 0.004, 0)
	if err := legalize(d); err != nil {
		t.Fatal(err)
	}
	cells, nets := snapshot(d)
	var report string
	err := commit(t, d, "probe", func(w *design.Design) error {
		scramble(w)
		report = design.CheckLegal(w).String()
		return nil
	})
	unchanged(t, d, cells, nets)
	var se *mclgerr.StageError
	if !errors.Is(err, mclgerr.ErrUnplacedCells) || !errors.As(err, &se) || se.Stage != "probe" {
		t.Fatalf("err = %v, want an ErrUnplacedCells stage error named probe", err)
	}
	if !strings.HasSuffix(se.Detail, ": "+report) {
		t.Fatalf("detail %q does not carry the checker's report %q", se.Detail, report)
	}
}

// TestCommitLegalPassesRunError: run's own error comes back unchanged, and
// whatever run did to the copy before failing stays out of d.
func TestCommitLegalPassesRunError(t *testing.T) {
	d := generate(t, "fft_2", 0.004, 0)
	cells, nets := snapshot(d)
	boom := errors.New("boom")
	err := commit(t, d, "probe", func(w *design.Design) error {
		scramble(w)
		return boom
	})
	if err != boom {
		t.Fatalf("err = %v, want run's own error", err)
	}
	unchanged(t, d, cells, nets)
}

// TestCommitLegalCommitsOnlyPositions: a legal result reaches d as its
// positions and flips and nothing else — not the other fields run changed
// on the copy, and not the netlist.
func TestCommitLegalCommitsOnlyPositions(t *testing.T) {
	d := generate(t, "superblue19", 0.004, 4)
	cells, nets := snapshot(d)
	netsAt := &d.Nets[0]
	var solved []design.Cell
	err := commit(t, d, "probe", func(w *design.Design) error {
		if err := legalize(w); err != nil {
			return err
		}
		solved, _ = snapshot(w)
		for _, c := range w.Cells {
			c.GX, c.GY, c.Name = c.GX+1, c.GY+1, "renamed"
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !design.IsLegal(d) {
		t.Fatal("the committed placement is illegal")
	}
	for i := range cells {
		cells[i].X, cells[i].Y, cells[i].Flipped = solved[i].X, solved[i].Y, solved[i].Flipped
	}
	unchanged(t, d, cells, nets)
	if &d.Nets[0] != netsAt {
		t.Fatal("a commit replaced the design's netlist")
	}
}

// TestCommitLegalReuseMatchesFresh commits a run of designs whose sizes and
// shapes change from one to the next, refused and accepted, through the
// pooled working copy and each on a fresh copy: every outcome must be
// identical, so no commit reads what an earlier one left in the copy.
func TestCommitLegalReuseMatchesFresh(t *testing.T) {
	spec := func(name string, single, double, triple, macros int, seed int64) *design.Design {
		d, err := gen.Generate(gen.Spec{Name: name, SingleCells: single, DoubleCells: double,
			TripleCells: triple, FixedMacros: macros, Density: 0.55, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	big := spec("big", 900, 120, 0, 0, 1)
	seq := []struct {
		d     *design.Design
		legal bool
	}{
		{big, true},
		{spec("small", 60, 8, 0, 0, 2), true},
		{big, false},
		{spec("triple", 300, 30, 25, 0, 3), true},
		{spec("macros", 400, 40, 0, 3, 4), false},
		{big, true},
	}
	step := func(i int) string {
		d := seq[i].d.Clone()
		err := commit(t, d, "seq", func(w *design.Design) error {
			if !seq[i].legal {
				scramble(w)
				return nil
			}
			return legalize(w)
		})
		if (err == nil) != seq[i].legal {
			t.Fatalf("step %d: err %v, want legal %v", i, err, seq[i].legal)
		}
		return design.PositionHash(d)
	}
	want := make([]string, len(seq))
	for i := range seq {
		design.EmptyWorks()
		runtime.GC()
		runtime.GC()
		want[i] = step(i)
	}
	for i := range seq {
		if got := step(i); got != want[i] {
			t.Errorf("step %d: pooled copy gives %s, fresh copy %s", i, got, want[i])
		}
	}
}

// TestCommitLegalConcurrent commits on distinct designs from several
// goroutines at once, as windows, cascades and stitches do, so they share
// the pool: each accepted commit must equal the same design's commit on its
// own, and each refused one must leave its design untouched.
func TestCommitLegalConcurrent(t *testing.T) {
	bases := []*design.Design{
		generate(t, "fft_2", 0.004, 0),
		generate(t, "des_perf_1", 0.004, 0),
		generate(t, "superblue19", 0.002, 0),
	}
	want := make([]string, len(bases))
	for i, b := range bases {
		d := b.Clone()
		if err := design.CommitLegal(d, "solo", legalize); err != nil {
			t.Fatal(err)
		}
		want[i] = design.PositionHash(d)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 2*len(bases); k++ {
				i := (g + k) % len(bases)
				d := bases[i].Clone()
				before := design.PositionHash(d)
				if k%2 == 1 {
					err := design.CommitLegal(d, "scrambled", func(w *design.Design) error { scramble(w); return nil })
					if !errors.Is(err, mclgerr.ErrUnplacedCells) || design.PositionHash(d) != before {
						t.Errorf("goroutine %d, design %d: refused commit err %v moved the design", g, i, err)
						return
					}
					continue
				}
				if err := design.CommitLegal(d, "concurrent", legalize); err != nil || design.PositionHash(d) != want[i] {
					t.Errorf("goroutine %d, design %d: hash %s, err %v; want %s", g, i, design.PositionHash(d), err, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}
