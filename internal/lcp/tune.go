package lcp

import (
	"math"

	"mclg/internal/sparse"
)

// ProbeContraction scores a candidate splitting by running a short real
// MMSIM probe against a synthetic right-hand side: a fixed Weyl-sequence q
// and start (pure functions of the dimension, same recipe as
// sparse.PowerIteration's seed), iters modulus iterations, returning the
// final ‖Δz‖∞. Smaller is better; a stalled or divergent candidate returns
// a large or +Inf score. This is deliberately not a ρ(T) power-iteration
// estimate: with a small budget the power method can badly underestimate a
// spectral radius near 1 (clustered eigenvalues), ranking a non-contracting
// candidate above a convergent one, whereas the probe exercises the true
// nonlinear iteration. The synthetic q keeps the score independent of cell
// positions, so structure-keyed caches can replay the decision exactly.
func ProbeContraction(a *sparse.CSR, sp Splitting, iters int) float64 {
	n := a.Rows
	if n == 0 || iters <= 0 {
		return 0
	}
	q := make([]float64, n)
	s0 := make([]float64, n)
	seedFrac := 0.0
	for i := range q {
		seedFrac += 0.6180339887498949
		seedFrac -= math.Floor(seedFrac)
		q[i] = seedFrac - 0.5
		s0[i] = 0.5 - seedFrac
	}
	sv, err := NewSolver(&Problem{A: a, Q: q}, sp, Options{MaxIter: iters + 1, S0: s0})
	if err != nil {
		return math.Inf(1)
	}
	defer sv.Close()
	last := math.Inf(1)
	for k := 0; k < iters; k++ {
		dz, err := sv.Step()
		if err != nil || math.IsNaN(dz) {
			return math.Inf(1)
		}
		last = dz
	}
	return last
}
