package core_test

import (
	"fmt"

	"mclg/internal/core"
	"mclg/internal/design"
)

// ExampleLegalizer_Legalize shows the minimal end-to-end use of the
// legalizer: two overlapping cells are separated with minimal movement. The
// relaxed optimum is x = 3.5 and 7.5, half a site either way; the snap to
// sites rounds the tie up, to 4 and 8 (3 sites of displacement, as 3 and 7
// would be).
func ExampleLegalizer_Legalize() {
	d := design.NewDesign(design.Config{
		NumRows: 2, NumSites: 20, RowHeight: 10, SiteW: 1,
	})
	for _, gx := range []float64{5, 6} { // both want x≈5 in row 0
		c := d.AddCell("c", 4, 10, design.VSS)
		c.GX, c.GY = gx, 0
		c.X, c.Y = gx, 0
	}
	stats, err := core.New(core.Options{}).Legalize(d)
	if err != nil {
		panic(err)
	}
	fmt.Println("converged:", stats.Converged)
	fmt.Printf("cell 0 at x=%.0f, cell 1 at x=%.0f\n", d.Cells[0].X, d.Cells[1].X)
	fmt.Println("legal:", design.CheckLegal(d).Legal())
	// Output:
	// converged: true
	// cell 0 at x=4, cell 1 at x=8
	// legal: true
}

// ExampleAssignRows demonstrates the power-rail-aware row assignment:
// a double-height VSS-bottom cell near a VDD row must move to a VSS row.
func ExampleAssignRows() {
	d := design.NewDesign(design.Config{
		NumRows: 4, NumSites: 20, RowHeight: 10, SiteW: 1,
	})
	c := d.AddCell("dff", 4, 20, design.VSS)
	c.GX, c.GY = 0, 12 // nearest row is 1 (VDD) — incompatible
	if err := core.AssignRows(d); err != nil {
		panic(err)
	}
	fmt.Printf("assigned to row %d (y=%.0f)\n", d.RowAt(c.Y+1), c.Y)
	// Output:
	// assigned to row 2 (y=20)
}
