package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"mclg/internal/baselines/chow"
	"mclg/internal/design"
	"mclg/internal/mclgerr"
)

// Rung identifies one level of the fallback cascade.
type Rung string

const (
	// RungMMSIM is the paper's structured MMSIM with the configured options.
	RungMMSIM Rung = "mmsim"
	// RungMMSIMRetuned is the MMSIM with backoff-retuned splitting constants
	// (shrunk β*/θ*, AutoTheta, cold start, larger iteration budget).
	RungMMSIMRetuned Rung = "mmsim-retuned"
	// RungPGS is projected Gauss–Seidel on the dual Schur-complement LCP —
	// slower than the MMSIM but with no splitting constants to misconfigure.
	RungPGS Rung = "pgs"
	// RungGreedy is the terminal rung: greedy legalization from the global
	// placement, bypassing the LCP machinery entirely.
	RungGreedy Rung = "greedy"
)

// Attempt records one rung of a resilient run.
type Attempt struct {
	Rung    Rung
	Err     error // nil for the successful rung
	Elapsed time.Duration
}

// ResilientStats extends Stats with the cascade trace: which rung produced
// the accepted placement and every attempt that preceded it.
type ResilientStats struct {
	Stats
	Rung     Rung
	Attempts []Attempt
}

// The cascade's fixed shape: how many retuned MMSIM attempts follow the
// first, and the PGS rung's sweep budget.
const (
	maxRetunes = 2
	pgsMaxIter = 30000
)

// ResilientLegalizer runs the legalization flow through a cascade of
// progressively more conservative solvers until one produces a placement
// that passes the design legality checker:
//
//	mmsim → mmsim-retuned (×2) → pgs → greedy
//
// The rungs run in order on the calling goroutine, each through
// design.CommitLegal: on a copy of the design's cells that shares its
// netlist, which no rung writes, committed to the input only when the
// legality checker passes it, so a failed cascade leaves the caller's
// placement untouched. A silently illegal result becomes an
// ErrUnplacedCells-matching error — success always means "verified legal",
// never "the solver said so".
//
// Context cancellation short-circuits the cascade: a canceled rung
// surfaces ErrCanceled immediately instead of degrading further.
type ResilientLegalizer struct {
	Opts Options
}

// NewResilient returns a resilient legalizer whose first rung uses the
// given options (zero fields filled with the paper defaults, as in New).
func NewResilient(opts Options) *ResilientLegalizer {
	return &ResilientLegalizer{Opts: New(opts).Opts}
}

// Legalize runs the cascade without cancellation.
func (r *ResilientLegalizer) Legalize(d *design.Design) (*ResilientStats, error) {
	return r.LegalizeContext(context.Background(), d)
}

// LegalizeContext runs the cascade. On success the returned stats carry the
// successful rung and the full attempt trace; on total failure the design is
// unchanged and the error joins every rung's failure (still matching the
// taxonomy via errors.Is).
func (r *ResilientLegalizer) LegalizeContext(ctx context.Context, d *design.Design) (*ResilientStats, error) {
	return r.cascade(ctx, d, r.rungs(ctx))
}

// cascade runs the given rungs in order and commits the first verified-legal
// result.
func (r *ResilientLegalizer) cascade(ctx context.Context, d *design.Design, rungs []rung) (*ResilientStats, error) {
	if err := r.Opts.Validate(); err != nil {
		return nil, mclgerr.Stage("validate", err)
	}
	if err := d.Validate(); err != nil {
		return nil, mclgerr.Stage("validate", err)
	}

	rs := &ResilientStats{}
	for _, rg := range rungs {
		if err := mclgerr.FromContext(ctx); err != nil {
			return nil, err
		}
		t0 := time.Now()
		var st *Stats
		err := design.CommitLegal(d, string(rg.name), func(w *design.Design) (err error) {
			st, err = runRecovered(rg.run, w)
			return err
		})
		rs.Attempts = append(rs.Attempts, Attempt{Rung: rg.name, Err: err, Elapsed: time.Since(t0)})
		if err != nil {
			// Cancellation must not cascade; any other failure degrades to
			// the next rung.
			if errors.Is(err, mclgerr.ErrCanceled) {
				return nil, err
			}
			continue
		}
		if st != nil {
			rs.Stats = *st
		}
		rs.Rung = rg.name
		return rs, nil
	}

	errs := make([]error, 0, len(rs.Attempts))
	for _, a := range rs.Attempts {
		if a.Err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", a.Rung, a.Err))
		}
	}
	return rs, fmt.Errorf("core: every fallback rung failed: %w", errors.Join(errs...))
}

// rung is one level of the cascade with its body.
type rung struct {
	name Rung
	run  func(w *design.Design) (*Stats, error)
}

// rungs lists the rungs in cascade order: the MMSIM as configured;
// the retuned MMSIMs (shrinking β* widens the Theorem-1 convergence region;
// AutoTheta re-clamps θ* under the Theorem-2 bound for the new β*; the cold
// start discards the GP start that may have seeded the divergence; the
// budget grows since smaller constants converge slower); PGS on the dual
// LCP; and greedy legalization from the global placement.
func (r *ResilientLegalizer) rungs(ctx context.Context) []rung {
	out := []rung{{RungMMSIM, func(w *design.Design) (*Stats, error) {
		return runMMSIMRung(ctx, w, r.Opts)
	}}}
	for k := 1; k <= maxRetunes; k++ {
		opts := retune(r.Opts, k)
		out = append(out, rung{RungMMSIMRetuned, func(w *design.Design) (*Stats, error) {
			return runMMSIMRung(ctx, w, opts)
		}})
	}
	return append(out,
		rung{RungPGS, func(w *design.Design) (*Stats, error) {
			return r.runPGSRung(ctx, w)
		}},
		rung{RungGreedy, func(w *design.Design) (*Stats, error) {
			w.ResetToGlobal()
			if err := chow.LegalizeContext(ctx, w); err != nil {
				return nil, err
			}
			return &Stats{}, nil
		}})
}

// runMMSIMRung runs the standard flow and converts non-convergence, which
// the plain legalizer tolerates, into a typed error so the cascade degrades
// instead of accepting a low-quality result.
func runMMSIMRung(ctx context.Context, d *design.Design, opts Options) (*Stats, error) {
	st, err := New(opts).LegalizeContext(ctx, d)
	if err != nil {
		return nil, err
	}
	if !st.Converged {
		return st, &mclgerr.StageError{
			Stage:      "mmsim",
			Err:        mclgerr.ErrIterBudget,
			Iterations: st.Iterations,
			Detail:     fmt.Sprintf("no convergence within %d iterations", opts.MaxIter),
		}
	}
	return st, nil
}

// retune derives the k-th backoff parameter set from the base options.
func retune(base Options, k int) Options {
	o := base
	scale := math.Pow(0.5, float64(k))
	o.Beta = math.Max(base.Beta*scale, 0.05)
	o.Theta = math.Max(base.Theta*scale, 0.05)
	o.AutoTheta = true
	o.ColdStart = true
	// Recover from a starved base budget as well as from divergence: back
	// off from at least the default budget, growing with each attempt since
	// smaller splitting constants converge more slowly.
	budget := base.MaxIter
	if def := DefaultOptions().MaxIter; budget < def {
		budget = def
	}
	o.MaxIter = budget * (k + 1)
	return o
}

// runPGSRung runs the pipeline with the dual-LCP projected Gauss–Seidel as
// its solve, on the relaxed right boundary. An exhausted sweep budget is
// tolerated — the PGS iterate improves monotonically, so the partial
// solution is still worth legalizing — while divergence and cancellation
// abort the rung.
func (r *ResilientLegalizer) runPGSRung(ctx context.Context, d *design.Design) (*Stats, error) {
	opts := r.Opts
	opts.BoundRight = false
	return legalize(ctx, d, opts, "pgs", solvePGS)
}

// solvePGS is the PGS rung's solve, with the tolerance floored at 1e-7.
func solvePGS(ctx context.Context, _ *arena, p *Problem, opts Options, st *Stats) ([]float64, error) {
	x, sweeps, err := SolvePGS(ctx, p, max(opts.Eps, 1e-7), pgsMaxIter)
	st.Iterations = sweeps
	if err != nil && !errors.Is(err, mclgerr.ErrIterBudget) {
		return nil, err
	}
	st.Converged = err == nil
	return x, nil
}

// runRecovered executes one rung body with panic containment: a panicking
// rung becomes an ErrPanic-matching error and the cascade degrades to the
// next rung instead of crashing the caller.
func runRecovered(run func(*design.Design) (*Stats, error), work *design.Design) (st *Stats, err error) {
	defer func() {
		if r := recover(); r != nil {
			st, err = nil, mclgerr.Panicked(r)
		}
	}()
	return run(work)
}
