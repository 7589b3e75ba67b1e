// Section 5.3 replication: on single-row-height designs, the MMSIM solver
// and Abacus's PlaceRow are both optimal once cells are assigned to rows
// and ordered — so they must produce the same total displacement.
//
//	go run ./examples/singlerow
package main

import (
	"fmt"
	"log"
	"math"
	"time"

	"mclg/internal/abacus"
	"mclg/internal/core"
	"mclg/internal/gen"
)

func main() {
	spec := gen.Spec{
		Name:        "singlerow-demo",
		SingleCells: 2000,
		Density:     0.6,
		Seed:        42,
	}
	d, err := gen.Generate(spec)
	if err != nil {
		log.Fatal(err)
	}
	if err := core.AssignRows(d); err != nil {
		log.Fatal(err)
	}
	mmsim := d.Clone()
	placerow := d.Clone()

	// MMSIM path (relaxed right boundary, like the paper's experiment),
	// stopped before the Tetris snapping.
	t0 := time.Now()
	st, err := core.New(core.Options{Eps: 1e-8, SkipTetris: true}).Legalize(mmsim)
	if err != nil {
		log.Fatal(err)
	}
	tMMSIM := time.Since(t0)

	// Abacus PlaceRow path on the identical row assignment and ordering.
	t1 := time.Now()
	if err := abacus.PlaceRowsAssigned(placerow, true); err != nil {
		log.Fatal(err)
	}
	tPlaceRow := time.Since(t1)

	objM, objP := 0.0, 0.0
	maxDiff := 0.0
	for i := range mmsim.Cells {
		dm := mmsim.Cells[i].X - mmsim.Cells[i].GX
		dp := placerow.Cells[i].X - placerow.Cells[i].GX
		objM += dm * dm
		objP += dp * dp
		if diff := math.Abs(mmsim.Cells[i].X - placerow.Cells[i].X); diff > maxDiff {
			maxDiff = diff
		}
	}

	fmt.Printf("cells: %d, MMSIM iterations: %d (converged %v)\n",
		len(d.Cells), st.Iterations, st.Converged)
	fmt.Printf("Σ(x−x′)²  MMSIM:    %.3f  (%v)\n", objM, tMMSIM)
	fmt.Printf("Σ(x−x′)²  PlaceRow: %.3f  (%v)\n", objP, tPlaceRow)
	fmt.Printf("max per-cell position difference: %.2e\n", maxDiff)
	if rel := math.Abs(objM-objP) / math.Max(1, objP); rel < 1e-6 {
		fmt.Println("=> identical displacement: the MMSIM optimality of Theorem 2 holds")
	} else {
		fmt.Printf("=> objectives differ by %.2e — unexpected\n", math.Abs(objM-objP))
	}
}
