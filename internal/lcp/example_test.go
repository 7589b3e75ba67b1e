package lcp_test

import (
	"context"
	"fmt"

	"mclg/internal/lcp"
	"mclg/internal/sparse"
)

// ExampleMMSIMContext solves the textbook LCP with A = I, q = (−3, 2):
// complementarity forces z = (3, 0), w = (0, 2).
func ExampleMMSIMContext() {
	p := &lcp.Problem{A: sparse.Identity(2), Q: []float64{-3, 2}}
	sp, err := lcp.NewDiagSplitting(p.A, 1)
	if err != nil {
		panic(err)
	}
	res, err := lcp.MMSIMContext(context.Background(), p, sp, lcp.Options{Eps: 1e-12})
	if err != nil {
		panic(err)
	}
	fmt.Printf("z = (%.2f, %.2f), converged in %d iterations\n",
		res.Z[0], res.Z[1], res.Iterations)
	fmt.Printf("residual: %.1e\n", p.Residual(res.Z))
	// Output:
	// z = (3.00, 0.00), converged in 2 iterations
	// residual: 0.0e+00
}
