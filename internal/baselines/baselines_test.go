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
