package baselines

import (
	"context"
	"errors"
	"testing"

	"mclg/internal/design"
	"mclg/internal/gen"
	"mclg/internal/mclgerr"
)

// Every listed method produces a legal placement, and an unknown name is
// rejected as invalid input.
func TestLegalizeDispatch(t *testing.T) {
	base, err := gen.Generate(gen.Spec{Name: "b", SingleCells: 200, DoubleCells: 20, Density: 0.6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, m := range Methods {
		d := base.Clone()
		if err := Legalize(ctx, m, d); err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if rep := design.CheckLegal(d); !rep.Legal() {
			t.Fatalf("%s: illegal placement: %v", m, rep)
		}
	}
	if err := Legalize(ctx, "ours", base.Clone()); !errors.Is(err, mclgerr.ErrInvalidInput) {
		t.Fatalf("unknown method: err = %v, want ErrInvalidInput", err)
	}
}

// The suite runs at scale 0.01 that reach the eviction search of
// design.PlaceNearest keep their placements: the hashes pin where the
// evicted cells land.
func TestEvictingSuiteRunsPinned(t *testing.T) {
	for _, tc := range []struct{ bench, method, hash string }{
		{"des_perf_1", "dac16", "6ecd55f209491459"},
		{"des_perf_1", "dac16imp", "f74eb8b142609fce"},
		{"fft_1", "dac16", "23985df0de5ad14c"},
		{"fft_1", "dac16imp", "23985df0de5ad14c"},
	} {
		e, err := gen.FindEntry(tc.bench)
		if err != nil {
			t.Fatal(err)
		}
		d, err := gen.Generate(gen.SuiteSpec(e, 0.01))
		if err != nil {
			t.Fatal(err)
		}
		if err := Legalize(context.Background(), tc.method, d); err != nil {
			t.Fatalf("%s %s: %v", tc.bench, tc.method, err)
		}
		if h := design.PositionHash(d); h != tc.hash {
			t.Errorf("%s %s: placement hash %s, want %s", tc.bench, tc.method, h, tc.hash)
		}
	}
}
