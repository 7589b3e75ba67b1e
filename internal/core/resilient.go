package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"mclg/internal/baselines/chow"
	"mclg/internal/design"
	"mclg/internal/mclgerr"
	"mclg/internal/par"
	"mclg/internal/tetris"
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

// ResilientOptions configures the fallback cascade.
type ResilientOptions struct {
	// Base is the first-rung legalizer configuration (zero fields filled
	// with the paper defaults, as in New).
	Base Options

	// MaxRetunes is how many retuned-MMSIM attempts run after the base
	// attempt fails; 0 means 2, negative disables the retune rung.
	MaxRetunes int

	// DisablePGS / DisableGreedy skip the corresponding rungs.
	DisablePGS    bool
	DisableGreedy bool

	// PGSMaxIter bounds the PGS sweeps; 0 means 30000.
	PGSMaxIter int
}

// ResilientLegalizer runs the legalization flow through a cascade of
// progressively more conservative solvers until one produces a placement
// that passes the design legality checker:
//
//	mmsim → mmsim-retuned (×MaxRetunes) → pgs → greedy
//
// Every rung runs on a copy of the design's cells that shares its netlist,
// which no rung writes (sequential rungs reuse pooled copies); the input is
// mutated only when a rung's output is verified fully legal with zero
// unplaced cells, so a failed cascade leaves the caller's placement
// untouched. A silently illegal result is converted to an
// ErrUnplacedCells-matching error — success always means "verified legal",
// never "the solver said so".
//
// Context cancellation short-circuits the cascade: a canceled rung
// surfaces ErrCanceled immediately instead of degrading further.
type ResilientLegalizer struct {
	Opts ResilientOptions
}

// NewResilient returns a resilient legalizer whose first rung uses the
// given base options (zero fields filled with the paper defaults).
func NewResilient(opts ResilientOptions) *ResilientLegalizer {
	opts.Base = New(opts.Base).Opts
	if opts.MaxRetunes == 0 {
		opts.MaxRetunes = 2
	}
	if opts.PGSMaxIter == 0 {
		opts.PGSMaxIter = 30000
	}
	return &ResilientLegalizer{Opts: opts}
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
	if err := r.Opts.Base.Validate(); err != nil {
		return nil, mclgerr.Stage("validate", err)
	}
	if err := d.Validate(); err != nil {
		return nil, mclgerr.Stage("validate", err)
	}

	rs := &ResilientStats{}

	// try runs one rung on a clone, verifies legality, and commits the
	// positions on success. It returns (done, err): done on success, err
	// only for cancellation (which must not cascade).
	try := func(rung Rung, run func(work *design.Design) (*Stats, error)) (bool, error) {
		if err := mclgerr.FromContext(ctx); err != nil {
			return false, err
		}
		t0 := time.Now()
		work := workPool.Get().(*design.Design)
		defer func() {
			work.Nets = nil // shared with d
			workPool.Put(work)
		}()
		d.CopyCellsTo(work)
		st, err := runRecovered(run, work)
		if err == nil {
			if rep := design.CheckLegal(work); !rep.Legal() {
				err = &mclgerr.StageError{
					Stage:  string(rung),
					Err:    mclgerr.ErrUnplacedCells,
					Detail: "rung reported success but the placement is illegal: " + rep.String(),
				}
			}
		}
		rs.Attempts = append(rs.Attempts, Attempt{Rung: rung, Err: err, Elapsed: time.Since(t0)})
		if err != nil {
			if errors.Is(err, mclgerr.ErrCanceled) {
				return false, err
			}
			return false, nil
		}
		commitPlacement(d, work)
		if st != nil {
			rs.Stats = *st
		}
		rs.Rung = rung
		return true, nil
	}

	// Rung 1: the MMSIM as configured.
	if done, err := try(RungMMSIM, func(w *design.Design) (*Stats, error) {
		return runMMSIMRung(ctx, w, r.Opts.Base)
	}); err != nil {
		return nil, err
	} else if done {
		return rs, nil
	}

	// Rungs 2–3: retuned MMSIM (shrinking β* widens the Theorem-1
	// convergence region; AutoTheta re-clamps θ* under the Theorem-2 bound
	// for the new β*; the cold start discards a warm start that may have
	// seeded the divergence; the budget grows since smaller constants
	// converge slower) followed by PGS on the dual LCP. With Workers > 1 the
	// rungs race concurrently on independent clones; the committed rung is
	// always the lowest-priority-index success, so the accepted placement,
	// rung, and attempt trace match the sequential cascade exactly.
	type fallbackRung struct {
		rung Rung
		run  func(ctx context.Context, w *design.Design) (*Stats, error)
	}
	var fallbacks []fallbackRung
	for k := 1; k <= r.Opts.MaxRetunes; k++ {
		opts := retune(r.Opts.Base, k)
		fallbacks = append(fallbacks, fallbackRung{RungMMSIMRetuned, func(c context.Context, w *design.Design) (*Stats, error) {
			return runMMSIMRung(c, w, opts)
		}})
	}
	if !r.Opts.DisablePGS {
		fallbacks = append(fallbacks, fallbackRung{RungPGS, func(c context.Context, w *design.Design) (*Stats, error) {
			return r.runPGSRung(c, w)
		}})
	}

	if par.Resolve(r.Opts.Base.Workers) > 1 && len(fallbacks) > 1 {
		type rungOut struct {
			work    *design.Design
			st      *Stats
			elapsed time.Duration
		}
		tasks := make([]func(context.Context) (rungOut, error), len(fallbacks))
		for i, fb := range fallbacks {
			fb := fb
			tasks[i] = func(tctx context.Context) (rungOut, error) {
				t0 := time.Now()
				work := d.CloneCells()
				st, err := fb.run(tctx, work)
				if err == nil {
					if rep := design.CheckLegal(work); !rep.Legal() {
						err = &mclgerr.StageError{
							Stage:  string(fb.rung),
							Err:    mclgerr.ErrUnplacedCells,
							Detail: "rung reported success but the placement is illegal: " + rep.String(),
						}
					}
				}
				return rungOut{work, st, time.Since(t0)}, err
			}
		}
		winner, results := par.Race(ctx, r.Opts.Base.Workers, tasks)
		// The trace covers the same prefix a sequential cascade would have
		// run: every rung up to and including the winner (all of them on
		// total failure). Rungs canceled because a higher-priority rung won
		// never appear, exactly as if the cascade had stopped there.
		last := winner
		if last < 0 {
			last = len(fallbacks) - 1
		}
		for i := 0; i <= last; i++ {
			rs.Attempts = append(rs.Attempts, Attempt{
				Rung: fallbacks[i].rung, Err: results[i].Err, Elapsed: results[i].Value.elapsed,
			})
		}
		if winner >= 0 {
			commitPlacement(d, results[winner].Value.work)
			if st := results[winner].Value.st; st != nil {
				rs.Stats = *st
			}
			rs.Rung = fallbacks[winner].rung
			return rs, nil
		}
		if err := mclgerr.FromContext(ctx); err != nil {
			return nil, err
		}
	} else {
		for _, fb := range fallbacks {
			fb := fb
			if done, err := try(fb.rung, func(w *design.Design) (*Stats, error) {
				return fb.run(ctx, w)
			}); err != nil {
				return nil, err
			} else if done {
				return rs, nil
			}
		}
	}

	// Rung 4: greedy from the global placement.
	if !r.Opts.DisableGreedy {
		if done, err := try(RungGreedy, func(w *design.Design) (*Stats, error) {
			w.ResetToGlobal()
			if err := chow.LegalizeContext(ctx, w); err != nil {
				return nil, err
			}
			return &Stats{}, nil
		}); err != nil {
			return nil, err
		} else if done {
			return rs, nil
		}
	}

	errs := make([]error, 0, len(rs.Attempts))
	for _, a := range rs.Attempts {
		if a.Err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", a.Rung, a.Err))
		}
	}
	if len(errs) == 0 {
		// Every rung was disabled.
		return rs, mclgerr.Invalidf("core: resilient legalizer has no enabled rungs")
	}
	return rs, fmt.Errorf("core: every fallback rung failed: %w", errors.Join(errs...))
}

// runMMSIMRung runs the standard flow and converts soft failures the plain
// legalizer tolerates (non-convergence, unplaced cells) into typed errors so
// the cascade degrades instead of accepting a low-quality result.
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
	if st.Unplaced > 0 {
		return st, &mclgerr.StageError{
			Stage:  "tetris",
			Err:    mclgerr.ErrUnplacedCells,
			Detail: fmt.Sprintf("%d cells left unplaced", st.Unplaced),
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
	o.S0 = nil
	// Fallback rungs always run cold: the retuned constants invalidate the
	// cached splitting, and a rescue attempt must not inherit state from
	// the configuration that just failed.
	o.Warm = nil
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

// runPGSRung solves the relaxed QP with the dual-LCP projected Gauss–Seidel
// and finishes with the usual restoration + allocation. An exhausted sweep
// budget is tolerated — the PGS iterate improves monotonically, so the
// partial solution is still worth legalizing — while divergence and
// cancellation abort the rung.
func (r *ResilientLegalizer) runPGSRung(ctx context.Context, d *design.Design) (*Stats, error) {
	base := r.Opts.Base
	stats := &Stats{}
	t0 := time.Now()
	if err := AssignRows(d); err != nil {
		return nil, mclgerr.Stage("assign-rows", err)
	}
	p, err := BuildProblemBounded(d, base.Lambda, false)
	if err != nil {
		return nil, mclgerr.Stage("build", err)
	}
	stats.NumVars, stats.NumCons = p.NumVars, p.NumCons
	stats.BuildTime = time.Since(t0)

	t1 := time.Now()
	eps := base.Eps
	if eps < 1e-7 {
		eps = 1e-7
	}
	x, sweeps, err := SolvePGS(ctx, p, eps, r.Opts.PGSMaxIter)
	stats.Iterations = sweeps
	stats.SolveTime = time.Since(t1)
	if err != nil && !errors.Is(err, mclgerr.ErrIterBudget) {
		return stats, mclgerr.Stage("pgs", err)
	}
	stats.Converged = err == nil
	if x != nil {
		stats.MaxSubcellMismatch = Restore(p, x)
	}

	t2 := time.Now()
	tres, err := tetris.AllocateContext(ctx, d)
	if err != nil {
		return stats, mclgerr.Stage("tetris", err)
	}
	stats.Illegal = tres.Illegal
	stats.Unplaced = tres.Unplaced
	stats.TetrisTime = time.Since(t2)
	if tres.Unplaced > 0 {
		return stats, &mclgerr.StageError{
			Stage:  "tetris",
			Err:    mclgerr.ErrUnplacedCells,
			Detail: fmt.Sprintf("%d cells left unplaced", tres.Unplaced),
		}
	}
	return stats, nil
}

// runRecovered executes one rung body with panic containment: a panicking
// rung becomes an ErrPanic-matching error and the cascade degrades to the
// next rung instead of crashing the caller. The racing path gets the same
// guarantee from par.Race's own recovery.
func runRecovered(run func(*design.Design) (*Stats, error), work *design.Design) (st *Stats, err error) {
	defer func() {
		if r := recover(); r != nil {
			st, err = nil, mclgerr.Panicked(r)
		}
	}()
	return run(work)
}

// workPool recycles the sequential rungs' working copies.
var workPool = sync.Pool{New: func() any { return &design.Design{} }}

// commitPlacement copies the solved positions from a rung's working clone
// back into the caller's design.
func commitPlacement(dst, src *design.Design) {
	for i, c := range src.Cells {
		dc := dst.Cells[i]
		dc.X, dc.Y, dc.Flipped = c.X, c.Y, c.Flipped
	}
}
