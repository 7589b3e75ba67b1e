package faults

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mclg/internal/bookshelf"
	"mclg/internal/core"
	"mclg/internal/design"
	"mclg/internal/gen"
	"mclg/internal/mclgerr"
)

func healthy(t *testing.T, seed int64) *design.Design {
	t.Helper()
	d, err := gen.Generate(gen.Spec{
		Name:        "faults-bench",
		SingleCells: 90,
		DoubleCells: 12,
		Density:     0.7,
		Seed:        seed,
	})
	if err != nil {
		t.Fatalf("gen: %v", err)
	}
	return d
}

// legalize runs the full resilient pipeline under a hard deadline with a
// panic guard, and checks the core invariant: a nil error means a placement
// the legality checker accepts; a non-nil error matches the taxonomy.
func legalize(t *testing.T, d *design.Design) error {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("pipeline panicked: %v", p)
		}
	}()
	_, err := core.NewResilient(core.Options{}).LegalizeContext(ctx, d)
	if err == nil {
		if rep := design.CheckLegal(d); !rep.Legal() {
			t.Fatalf("pipeline reported success but the placement is illegal: %v", rep)
		}
		return nil
	}
	if !mclgerr.IsTaxonomy(err) {
		t.Fatalf("error %v does not match the mclgerr taxonomy", err)
	}
	return err
}

// TestInjectedFaultsNeverPanic is the harness's core table: every in-memory
// corruptor, three seeds each, asserting legal-or-typed-error.
func TestInjectedFaultsNeverPanic(t *testing.T) {
	for _, c := range Corruptors() {
		for seed := int64(1); seed <= 3; seed++ {
			c, seed := c, seed
			t.Run(c.Name, func(t *testing.T) {
				d := healthy(t, seed)
				c.Apply(rand.New(rand.NewSource(seed)), d)
				err := legalize(t, d)
				switch c.Expectation {
				case "reject":
					if err == nil {
						t.Fatalf("corruption %q was accepted without error", c.Name)
					}
					if !errors.Is(err, mclgerr.ErrInvalidInput) {
						t.Fatalf("corruption %q: error %v, want ErrInvalidInput", c.Name, err)
					}
				case "recover":
					if err != nil {
						t.Fatalf("pipeline failed to recover from %q: %v", c.Name, err)
					}
				case "either":
					// legalize already asserted the invariant.
				default:
					t.Fatalf("corruptor %q has unknown expectation %q", c.Name, c.Expectation)
				}
			})
		}
	}
}

// TestCorruptedBookshelfFilesNeverPanic round-trips a healthy design through
// the Bookshelf writer, corrupts the bytes, and feeds them back: the reader
// must reject or the pipeline must uphold legal-or-typed-error.
func TestCorruptedBookshelfFilesNeverPanic(t *testing.T) {
	for _, fc := range FileCorruptors() {
		for seed := int64(1); seed <= 3; seed++ {
			fc, seed := fc, seed
			t.Run(fc.Name, func(t *testing.T) {
				d := healthy(t, seed)
				dir := t.TempDir()
				aux := filepath.Join(dir, "bench.aux")
				if err := bookshelf.Write(d, aux); err != nil {
					t.Fatalf("write: %v", err)
				}
				files := map[string][]byte{}
				for _, ext := range []string{"nodes", "pl", "scl", "nets"} {
					b, err := os.ReadFile(filepath.Join(dir, "bench."+ext))
					if err != nil {
						t.Fatal(err)
					}
					files[ext] = b
				}
				fc.Apply(rand.New(rand.NewSource(seed)), files)
				for ext, b := range files {
					if err := os.WriteFile(filepath.Join(dir, "bench."+ext), b, 0o644); err != nil {
						t.Fatal(err)
					}
				}

				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("reader panicked: %v", p)
					}
				}()
				rd, err := bookshelf.Read(aux)
				if err != nil {
					// Parse errors must be typed; I/O never happens here.
					if !mclgerr.IsTaxonomy(err) {
						t.Fatalf("reader error %v does not match the taxonomy", err)
					}
					return
				}
				legalize(t, rd)
			})
		}
	}
}

// TestCancellationAbortsMidSolve cancels a context while the MMSIM is in its
// hot loop and requires the typed cancellation error to surface promptly —
// the pipeline must not run to completion or hang. The solve runs the MMSIM
// alone (MMSIMOnly): the default active-set finish ends this design in about
// as long as the deadline, so the deadline would race the finish instead of
// landing in the hot loop.
func TestCancellationAbortsMidSolve(t *testing.T) {
	d, err := gen.Generate(gen.Spec{
		Name:        "cancel-bench",
		SingleCells: 4000,
		DoubleCells: 500,
		Density:     0.8,
		Seed:        21,
	})
	if err != nil {
		t.Fatalf("gen: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, lerr := core.New(core.Options{Eps: 1e-12, MaxIter: 2000000, MMSIMOnly: true}).LegalizeContext(ctx, d)
	elapsed := time.Since(start)
	if lerr == nil {
		t.Skip("solve finished before the deadline; machine too fast for this budget")
	}
	if !errors.Is(lerr, mclgerr.ErrCanceled) {
		t.Fatalf("error = %v, want ErrCanceled", lerr)
	}
	if !errors.Is(lerr, context.DeadlineExceeded) {
		t.Fatalf("error = %v, want context.DeadlineExceeded in the chain", lerr)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v to surface, want well under 5s", elapsed)
	}
}

// TestCorruptorsAreDeterministic guards the "seedable" contract: the same
// seed must produce the same corruption.
func TestCorruptorsAreDeterministic(t *testing.T) {
	for _, c := range Corruptors() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			d1, d2 := healthy(t, 5), healthy(t, 5)
			c.Apply(rand.New(rand.NewSource(9)), d1)
			c.Apply(rand.New(rand.NewSource(9)), d2)
			if len(d1.Cells) != len(d2.Cells) {
				t.Fatalf("cell counts diverged: %d vs %d", len(d1.Cells), len(d2.Cells))
			}
			for i := range d1.Cells {
				a, b := d1.Cells[i], d2.Cells[i]
				if a.W != b.W || a.H != b.H ||
					(a.GX != b.GX && !(a.GX != a.GX && b.GX != b.GX)) ||
					(a.GY != b.GY && !(a.GY != a.GY && b.GY != b.GY)) {
					t.Fatalf("cell %d diverged between runs", i)
				}
			}
		})
	}
}
