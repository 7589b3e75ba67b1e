package core

import (
	"mclg/internal/lcp"
	"mclg/internal/lru"
	"mclg/internal/sparse"
)

// Structure-keyed splitting-parameter auto-tuning (Options.AutoTune).
//
// Tuning runs once per problem structure: a budgeted power iteration
// estimates the Theorem-2 bound on θ*, and a fixed candidate grid of θ*
// values inside that bound is ranked by a short real-iteration probe
// (lcp.ProbeContraction: a few MMSIM iterations against a synthetic
// structure-derived right-hand side — the final ‖Δz‖∞ exposes stalling or
// divergent candidates that a budgeted ρ(T) power-iteration estimate can
// rank incorrectly). The winner is cached under the same signature that
// licenses warm reuse. Every step is a deterministic function of the
// structure signature — the probe's q and start are fixed Weyl sequences
// and ties break toward the smaller θ* — so a cache hit and a fresh tune
// produce the same parameters, and with them bit-identical placements.

const (
	// autoTuneBoundIters/Tol budget the Theorem-2 bound estimate. The
	// certification-grade ThetaBound budget (200, 1e-8) is overkill for
	// ranking: a few dozen loose iterations locate μmax to well under the
	// safety margin below.
	autoTuneBoundIters = 32
	autoTuneBoundTol   = 1e-3

	// autoTuneProbeIters budgets the per-candidate real-iteration probe.
	// Long enough to leave the transient and expose stalling (the probe's
	// final ‖Δz‖∞ separates contracting from non-contracting candidates
	// by orders of magnitude), short enough that tuning all candidates
	// costs less than a typical cold solve; the cache amortizes it to
	// once per structure.
	autoTuneProbeIters = 40

	// autoTuneSafety keeps the tuned θ* strictly inside the Theorem-2
	// region despite the budgeted (under-converged, hence bound-
	// overestimating) μmax estimate.
	autoTuneSafety = 0.9

	// tunerCacheCap bounds the shared cache; the least recently used entry
	// is evicted past it. A long-running server cycling through more than
	// this many distinct topologies re-tunes evicted ones — correctness is
	// unaffected because tuning is deterministic per structure.
	tunerCacheCap = 512
)

type tunerEntry struct {
	theta float64 // tuned θ*
	bound float64 // budgeted Theorem-2 bound estimate
	score float64 // probe ‖Δz‖∞ of the winning candidate (smaller = faster)
}

// sharedTuner memoizes tuned parameters by structure+options signature.
var sharedTuner = lru.New[uint64, tunerEntry](tunerCacheCap)

// ResetTunerCache drops all memoized tuning results. Tuning is deterministic
// per structure, so this never changes solver output — it only restores the
// one-time tuning cost, which the determinism tests rely on.
func ResetTunerCache() { sharedTuner.Clear() }

// tuneTheta ranks a fixed grid of θ* candidates — multiples of the
// configured value, clamped under the safety-factored Theorem-2 bound — by
// a short real-iteration probe on the assembled LCP matrix, and returns the
// winner with its already-built splitting. sp0 is the splitting built for
// the configured θ* and is reused when that candidate wins. Ties (within
// 1e-12) break toward the smaller θ*, keeping the choice deterministic.
func tuneTheta(p *Problem, opts *Options, aMat *sparse.CSR, sp0 *StructuredSplitting,
	build func(theta float64) (*StructuredSplitting, error),
) (tunerEntry, *StructuredSplitting, error) {
	bound, err := sp0.ThetaBoundBudget(autoTuneBoundIters, autoTuneBoundTol)
	if err != nil {
		return tunerEntry{}, nil, err
	}
	limit := 0.0
	if bound > 0 {
		limit = autoTuneSafety * bound
	}
	mults := [...]float64{0.5, 1, 2, 4}
	cands := make([]float64, 0, len(mults))
	for _, m := range mults {
		c := opts.Theta * m
		if limit > 0 && c > limit {
			c = limit
		}
		dup := false
		for _, e := range cands {
			if e == c {
				dup = true
				break
			}
		}
		if !dup {
			cands = append(cands, c)
		}
	}
	var best tunerEntry
	var bestSp *StructuredSplitting
	for i, cand := range cands {
		spc := sp0
		if cand != opts.Theta {
			spc, err = build(cand)
			if err != nil {
				return tunerEntry{}, nil, err
			}
		}
		r := lcp.ProbeContraction(aMat, spc, autoTuneProbeIters)
		if i == 0 || r < best.score-1e-12 {
			best = tunerEntry{theta: cand, bound: bound, score: r}
			bestSp = spc
		}
	}
	return best, bestSp, nil
}
