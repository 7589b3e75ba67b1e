package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"mclg/internal/design"
	"mclg/internal/lcp"
	"mclg/internal/mclgerr"
	"mclg/internal/recycle"
	"mclg/internal/tetris"
)

// Options configures the legalizer. The zero value plus DefaultOptions()
// reproduces the paper's experimental setup (Section 5: λ = 1000,
// β* = θ* = 0.5).
type Options struct {
	Lambda  float64 // subcell-equality penalty λ
	Beta    float64 // β* splitting constant
	Theta   float64 // θ* splitting constant
	Gamma   float64 // MMSIM γ constant
	Eps     float64 // MMSIM convergence tolerance on ||Δz||∞
	MaxIter int

	// ResidualTol is the LCP residual bound that must additionally hold at
	// termination (guards against spurious ||Δz|| convergence). 0 means
	// 0.5 — half a site width of constraint violation, absorbed by the
	// Tetris snapping. Negative disables the check.
	ResidualTol float64

	// AutoTheta clamps θ* below the Theorem-2 bound 2(2−β*)/(β*·μmax)
	// when the configured value would violate it.
	AutoTheta bool

	// OmegaR sets the Ω diagonal on the multiplier block (0 means 1, the
	// paper's choice). Any positive value yields the same LCP fixed
	// point; the Ω ablation bench explores the convergence-speed
	// trade-off.
	OmegaR float64

	// ScaledOmegaX uses Ω_x = diag(H) instead of I (ablation only; it is
	// slower in practice).
	ScaledOmegaX bool

	// BoundRight adds exact right-boundary constraints to the LCP instead
	// of relaxing them (extension beyond the paper; see
	// BuildProblemBounded). The MMSIM optimum then has no
	// out-of-boundary cells at all.
	BoundRight bool

	// SkipTetris stops after multi-row restoration, leaving real-valued
	// positions (used by experiments that inspect the raw MMSIM optimum).
	SkipTetris bool

	// ColdStart starts the MMSIM from s⁽⁰⁾ = 0, a literal reading of
	// Algorithm 1, instead of the default start at the global-placement
	// positions, which converges much faster because most of the relaxed
	// optimum coincides with the GP; used by the warm-start ablation bench.
	ColdStart bool

	// OnIter forwards MMSIM per-iteration progress.
	OnIter func(k int, dz float64)

	// Workers bounds how many windows a windowed run (window.Legalize)
	// solves at once; 0 means GOMAXPROCS and larger counts are taken
	// literally. Every other path, and each window's own solve, runs one
	// legalization on the calling goroutine, so the worker count never
	// changes a placement.
	Workers int

	// MMSIMOnly runs the MMSIM to its own convergence test, without the
	// active-set finish (finish.go). The finish lands on the same optimum
	// in a few rounds; this switch keeps the paper's iteration for studies
	// of the iteration itself (convergence traces, the Ω, β*/θ*, λ and
	// warm-start ablations, Table 1) and for the audit's independent tight
	// re-solve.
	MMSIMOnly bool
}

// DefaultOptions returns the paper's parameters.
func DefaultOptions() Options {
	return Options{
		Lambda:  1000,
		Beta:    0.5,
		Theta:   0.5,
		Gamma:   1,
		Eps:     1e-4,
		MaxIter: 20000,
	}
}

// Validate rejects parameter values outside the domains the convergence
// theory (Theorems 1–2) and the pipeline assume. It is called on the
// *post-default* options (New zero-fills before validating), so zero values
// never reach it; explicit nonsense does. Returned errors match
// mclgerr.ErrInvalidInput.
func (o Options) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"Lambda", o.Lambda}, {"Beta", o.Beta}, {"Theta", o.Theta},
		{"Gamma", o.Gamma}, {"Eps", o.Eps}, {"ResidualTol", o.ResidualTol},
		{"OmegaR", o.OmegaR},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return mclgerr.Invalidf("options: %s = %g must be finite", f.name, f.v)
		}
	}
	if o.Lambda < 0 {
		return mclgerr.Invalidf("options: Lambda = %g must be non-negative", o.Lambda)
	}
	if o.Beta != 0 && (o.Beta <= 0 || o.Beta >= 2) {
		return mclgerr.Invalidf("options: Beta = %g must lie in (0, 2)", o.Beta)
	}
	if o.Theta < 0 {
		return mclgerr.Invalidf("options: Theta = %g must be non-negative", o.Theta)
	}
	if o.Gamma < 0 {
		return mclgerr.Invalidf("options: Gamma = %g must be non-negative", o.Gamma)
	}
	if o.Eps < 0 {
		return mclgerr.Invalidf("options: Eps = %g must be non-negative", o.Eps)
	}
	if o.MaxIter < 0 {
		return mclgerr.Invalidf("options: MaxIter = %d must be non-negative", o.MaxIter)
	}
	if o.OmegaR < 0 {
		return mclgerr.Invalidf("options: OmegaR = %g must be non-negative", o.OmegaR)
	}
	if o.Workers < 0 {
		return mclgerr.Invalidf("options: Workers = %d must be non-negative", o.Workers)
	}
	return nil
}

// Stats reports what a legalization run did.
type Stats struct {
	NumVars, NumCons int
	Iterations       int
	Converged        bool
	ThetaUsed        float64
	ThetaBound       float64 // 0 when not computed

	// MaxSubcellMismatch is the largest spread (max − min) of the subcell
	// x solutions of any multi-row cell before restoration, in database
	// units; large values indicate λ is too small.
	MaxSubcellMismatch float64

	Illegal int // illegal cells repaired by the Tetris stage

	// Finish reports the active-set finish; its Outcome is empty when the
	// finish did not run (MMSIMOnly, or the MMSIM stopped first).
	Finish FinishStats

	BuildTime  time.Duration
	SolveTime  time.Duration
	TetrisTime time.Duration
}

// Legalizer runs the full flow of Figure 4 on a design.
type Legalizer struct {
	Opts Options
}

// New returns a legalizer with the given options (zero fields filled with
// defaults).
func New(opts Options) *Legalizer {
	def := DefaultOptions()
	if opts.Lambda == 0 {
		opts.Lambda = def.Lambda
	}
	if opts.Beta == 0 {
		opts.Beta = def.Beta
	}
	if opts.Theta == 0 {
		opts.Theta = def.Theta
	}
	if opts.Gamma == 0 {
		opts.Gamma = def.Gamma
	}
	if opts.Eps == 0 {
		opts.Eps = def.Eps
	}
	if opts.MaxIter == 0 {
		opts.MaxIter = def.MaxIter
	}
	return &Legalizer{Opts: opts}
}

// Legalize runs row assignment, the MMSIM solve, multi-row restoration, and
// the Tetris-like allocation, mutating the design's cell positions.
func (l *Legalizer) Legalize(d *design.Design) (*Stats, error) {
	return l.LegalizeContext(context.Background(), d)
}

// LegalizeContext is Legalize with input validation at entry and cooperative
// cancellation: the options and design are gated before any stage runs, and
// a canceled ctx aborts the MMSIM hot loop and the allocation stage with an
// mclgerr.ErrCanceled-matching error.
func (l *Legalizer) LegalizeContext(ctx context.Context, d *design.Design) (*Stats, error) {
	return legalize(ctx, d, l.Opts, "mmsim", solveMMSIM)
}

// solveFunc is the solve stage of the pipeline: it returns the subcell x
// solution of the built problem p (nil when p has no variables), may solve
// in ar's storage, and records its iterations and convergence in st.
type solveFunc func(ctx context.Context, ar *arena, p *Problem, opts Options, st *Stats) ([]float64, error)

// legalize is the flow of Figure 4 with the given solve, whose errors carry
// the stage label: validate the options and the design, assign rows,
// balance them under BoundRight, build the problem into an arena, solve,
// restore multi-row cells, and run the Tetris allocation unless SkipTetris.
func legalize(ctx context.Context, d *design.Design, opts Options, stage string, solve solveFunc) (*Stats, error) {
	if err := opts.Validate(); err != nil {
		return nil, mclgerr.Stage("validate", err)
	}
	if err := d.Validate(); err != nil {
		return nil, mclgerr.Stage("validate", err)
	}
	if err := mclgerr.FromContext(ctx); err != nil {
		return nil, err
	}
	stats := &Stats{}
	t0 := time.Now()

	if err := AssignRows(d); err != nil {
		return nil, mclgerr.Stage("assign-rows", err)
	}
	if opts.BoundRight {
		// Boundary constraints require per-row capacity feasibility.
		if err := BalanceRows(d); err != nil {
			return nil, mclgerr.Stage("balance-rows", err)
		}
	}
	// One arena serves the whole run.
	ar := arenas.Get()
	defer ar.release()
	p := &ar.p
	if err := p.build(d, opts.Lambda, opts.BoundRight); err != nil {
		return nil, mclgerr.Stage("build", err)
	}
	stats.NumVars, stats.NumCons = p.NumVars, p.NumCons
	stats.BuildTime = time.Since(t0)

	t1 := time.Now()
	x, err := solve(ctx, ar, p, opts, stats)
	if err != nil {
		return nil, mclgerr.Stage(stage, err)
	}
	stats.SolveTime = time.Since(t1)

	stats.MaxSubcellMismatch = Restore(p, x)

	if !opts.SkipTetris {
		t2 := time.Now()
		tres, err := tetris.AllocateContext(ctx, d)
		if err != nil {
			return nil, mclgerr.Stage("tetris", err)
		}
		stats.Illegal = tres.Illegal
		stats.TetrisTime = time.Since(t2)
	}
	return stats, nil
}

// solveMMSIM is the paper's solve: the structured MMSIM, paused for the
// active-set finish unless MMSIMOnly.
func solveMMSIM(ctx context.Context, ar *arena, p *Problem, opts Options, st *Stats) ([]float64, error) {
	x, ss, err := ar.solve(ctx, p, opts)
	if err != nil {
		return nil, err
	}
	st.Iterations = ss.Iterations
	st.Converged = ss.Converged
	st.ThetaUsed = ss.ThetaUsed
	st.ThetaBound = ss.ThetaBound
	st.Finish = ss.Finish
	return x, nil
}

// SolveStats reports the MMSIM solve outcome.
type SolveStats struct {
	Iterations int
	Converged  bool
	ThetaUsed  float64
	ThetaBound float64

	WarmSeeded bool // always false; kept only because perfbench/batch.go reads it

	// Finish reports the active-set finish. Iterations counts MMSIM
	// iterations only: with an accepted finish, the ones before it.
	Finish FinishStats
}

// SolveMMSIMContext assembles the LCP for an already-built problem and runs
// the structured MMSIM, with cooperative cancellation in its hot loop. It
// returns the subcell x solution (length p.NumVars, relative to the core's
// left edge).
func SolveMMSIMContext(ctx context.Context, p *Problem, opts Options) ([]float64, *SolveStats, error) {
	z, st, err := SolveMMSIMFull(ctx, p, opts)
	if err != nil || z == nil {
		return nil, st, err
	}
	return z[:p.NumVars], st, nil
}

// SolveMMSIMFull is SolveMMSIMContext returning the complete LCP solution
// z = [x; μ] (length NumVars+NumCons) instead of just the position head: the
// multiplier tail is what the audit layer needs to recompute KKT/LCP
// residuals independently of the solver's own convergence flag. The caller
// owns the returned slice.
func SolveMMSIMFull(ctx context.Context, p *Problem, opts Options) ([]float64, *SolveStats, error) {
	ar := arenas.Get()
	defer ar.release()
	z, st, err := ar.solve(ctx, p, opts)
	if err != nil || z == nil {
		return nil, st, err
	}
	return append([]float64(nil), z...), st, nil
}

// solve is SolveMMSIMFull returning z in ar's storage, valid until ar is
// released. The splitting, A, q and the start vector are built into ar too.
func (ar *arena) solve(ctx context.Context, p *Problem, opts Options) ([]float64, *SolveStats, error) {
	st := &SolveStats{ThetaUsed: opts.Theta}
	if p.NumVars == 0 {
		st.Converged = true
		return nil, st, nil
	}
	n := p.NumVars + p.NumCons

	sp := &ar.sp
	theta := opts.Theta
	omegaR := opts.OmegaR
	if omegaR == 0 {
		omegaR = 1
	}
	build := func(theta float64) error {
		if opts.ScaledOmegaX {
			return sp.build(p, opts.Beta, theta, true, 1)
		}
		return sp.build(p, opts.Beta, theta, false, omegaR)
	}
	if err := build(theta); err != nil {
		return nil, nil, err
	}
	if opts.AutoTheta {
		bound, err := sp.ThetaBound()
		if err != nil {
			return nil, nil, err
		}
		st.ThetaBound = bound
		if bound > 0 && theta >= bound {
			theta = 0.95 * bound
			if err := build(theta); err != nil {
				return nil, nil, err
			}
		}
		st.ThetaUsed = theta
	}
	p.assembleLCP(&ar.a)
	ar.q = p.lcpVector(ar.q)

	gamma := opts.Gamma
	if gamma == 0 {
		gamma = 1
	}
	var s0 []float64
	if !opts.ColdStart {
		// Start at the global-placement positions with zero multipliers:
		// for z > 0 the modulus substitution gives s = γ·z/2, and most of
		// the relaxed optimum stays near the GP.
		s0 = recycle.Grow(ar.s0, n)
		clear(s0[p.NumVars:])
		for i, sc := range p.Subcells {
			s0[i] = gamma * sc.Target / 2
		}
		ar.s0 = s0
	}
	resTol := opts.ResidualTol
	if resTol == 0 {
		resTol = 0.5
	}
	ar.lp = lcp.Problem{A: &ar.a, Q: ar.q}
	sv, err := lcp.NewSolver(&ar.lp, sp, lcp.Options{
		Gamma:       opts.Gamma,
		Eps:         opts.Eps,
		MaxIter:     opts.MaxIter,
		S0:          s0,
		ResidualTol: resTol,
		OnIter:      opts.OnIter,
		Workspace:   &ar.ws,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("core: MMSIM: %w", err)
	}
	defer sv.Close()
	z, err := ar.runSolve(ctx, sv, p, st, opts.MMSIMOnly)
	if err != nil {
		return nil, nil, err
	}
	return z, st, nil
}

// runSolve drives sv, the MMSIM on ar's LCP of p, and, unless mmsimOnly,
// pauses it after finishPause iterations for ar's active-set finish. A
// rejected finish resumes the paused solver, which reproduces the MMSIM-only
// iterates bit for bit. The returned z aliases ar.
func (ar *arena) runSolve(ctx context.Context, sv *lcp.Solver, p *Problem, st *SolveStats, mmsimOnly bool) ([]float64, error) {
	if !mmsimOnly {
		res, err := sv.RunTo(ctx, finishPause)
		if err != nil {
			return nil, fmt.Errorf("core: MMSIM: %w", err)
		}
		if !res.Paused {
			st.Iterations, st.Converged = res.Iterations, res.Converged
			return res.Z, nil
		}
		z, fs, err := ar.f.solve(ctx, p, &ar.sp, &ar.lp, sv.Z())
		st.Finish = fs
		if err != nil {
			return nil, err
		}
		if z != nil {
			st.Iterations, st.Converged = sv.Iterations(), true
			return z, nil
		}
	}
	res, err := sv.Run(ctx)
	if err != nil {
		return nil, fmt.Errorf("core: MMSIM: %w", err)
	}
	st.Iterations, st.Converged = res.Iterations, res.Converged
	return res.Z, nil
}

// Restore writes the solved subcell positions back to the design's cells:
// each cell's x is the mean of its subcells' solutions (which coincide up
// to solver precision when λ is large). Returns the maximum subcell spread
// observed.
func Restore(p *Problem, x []float64) float64 {
	maxSpread := 0.0
	for cellID, vars := range p.CellVars {
		if len(vars) == 0 {
			continue
		}
		lo, hi, sum := x[vars[0]], x[vars[0]], 0.0
		for _, v := range vars {
			xv := x[v]
			sum += xv
			if xv < lo {
				lo = xv
			}
			if xv > hi {
				hi = xv
			}
		}
		if s := hi - lo; s > maxSpread {
			maxSpread = s
		}
		p.D.Cells[cellID].X = p.D.Core.Lo.X + sum/float64(len(vars))
	}
	return maxSpread
}
