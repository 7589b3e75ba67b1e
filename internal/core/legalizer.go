package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"mclg/internal/design"
	"mclg/internal/lcp"
	"mclg/internal/mclgerr"
	"mclg/internal/sparse"
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

	// PaperOmega forces the paper's Ω = I in Algorithm 1, overriding
	// OmegaR and ScaledOmegaX. Used by fidelity experiments and the Ω
	// ablation bench.
	PaperOmega bool

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

	// S0 supplies a custom MMSIM starting vector (length NumVars+NumCons).
	// Nil selects the default warm start from the global-placement
	// positions, which converges much faster than the zero vector because
	// most of the relaxed optimum coincides with the GP.
	S0 []float64

	// ColdStart disables the warm start (s⁽⁰⁾ = 0), matching a literal
	// reading of Algorithm 1; used by the warm-start ablation bench.
	ColdStart bool

	// OnIter forwards MMSIM per-iteration progress.
	OnIter func(k int, dz float64)

	// Workers shards the coarse stages (row assignment, the Tetris
	// allocation's per-cell and per-row scans, the resilient cascade's
	// fallback race, and the windows a windowed job solves at once) across
	// goroutines; 0 means GOMAXPROCS, 1 means serial and larger counts are
	// taken literally. The MMSIM iteration and the active-set finish always
	// run serially on the calling goroutine. Any worker count produces
	// bit-identical placements — see internal/par.
	Workers int

	// MMSIMOnly runs the MMSIM to its own convergence test, without the
	// active-set finish (finish.go). The finish lands on the same optimum
	// in a few rounds; this switch keeps the paper's iteration for studies
	// of the iteration itself (convergence traces, the Ω, β*/θ*, λ and
	// warm-start ablations, Table 1) and for the audit's independent tight
	// re-solve.
	MMSIMOnly bool

	// Warm, when non-nil, carries cached solver state across repeated
	// solves: when the problem's structure signature matches the cached
	// one, the solve reuses the assembled LCP matrix and splitting
	// factorizations and seeds the MMSIM from the previous solution (see
	// WarmState). The fallback rungs of the resilient cascade always run
	// cold — retuned parameters invalidate the cached splitting, and a
	// rescue solve must not inherit state from the configuration that just
	// failed.
	Warm *WarmState
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
	for i, v := range o.S0 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return mclgerr.Invalidf("options: S0[%d] = %g must be finite", i, v)
		}
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

	Illegal  int // illegal cells repaired by the Tetris stage
	Unplaced int // cells the Tetris stage could not place (should be 0)

	// Finish reports the active-set finish; its Outcome is empty when the
	// finish did not run (MMSIMOnly, or the MMSIM stopped first).
	Finish FinishStats

	// WarmReused reports that the solve reused cached factorizations from
	// Options.Warm (structure signature match); WarmSeeded additionally
	// reports that the MMSIM started from the previous solution's
	// modulus-transform seed.
	WarmReused bool
	WarmSeeded bool

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
	if err := l.Opts.Validate(); err != nil {
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

	if err := AssignRowsP(d, l.Opts.Workers); err != nil {
		return nil, mclgerr.Stage("assign-rows", err)
	}
	if l.Opts.BoundRight {
		// Boundary constraints require per-row capacity feasibility.
		if err := BalanceRows(d); err != nil {
			return nil, mclgerr.Stage("balance-rows", err)
		}
	}
	// One arena serves the whole run. A warm state keeps the splitting,
	// which points at the problem, so then the problem is fresh too.
	ar := getArena()
	defer ar.release()
	p := &ar.p
	if l.Opts.Warm != nil {
		p = &Problem{}
	}
	if err := p.build(d, l.Opts.Lambda, l.Opts.BoundRight); err != nil {
		return nil, mclgerr.Stage("build", err)
	}
	stats.NumVars, stats.NumCons = p.NumVars, p.NumCons
	stats.BuildTime = time.Since(t0)

	t1 := time.Now()
	x, solveStats, err := ar.solve(ctx, p, l.Opts)
	if err != nil {
		return nil, mclgerr.Stage("mmsim", err)
	}
	stats.Iterations = solveStats.Iterations
	stats.Converged = solveStats.Converged
	stats.ThetaUsed = solveStats.ThetaUsed
	stats.ThetaBound = solveStats.ThetaBound
	stats.WarmReused = solveStats.WarmReused
	stats.WarmSeeded = solveStats.WarmSeeded
	stats.Finish = solveStats.Finish
	stats.SolveTime = time.Since(t1)

	stats.MaxSubcellMismatch = Restore(p, x)

	if !l.Opts.SkipTetris {
		t2 := time.Now()
		tres, err := tetris.AllocateContextP(ctx, d, l.Opts.Workers)
		if err != nil {
			return nil, mclgerr.Stage("tetris", err)
		}
		stats.Illegal = tres.Illegal
		stats.Unplaced = tres.Unplaced
		stats.TetrisTime = time.Since(t2)
	}
	return stats, nil
}

// SolveStats reports the MMSIM solve outcome.
type SolveStats struct {
	Iterations int
	Converged  bool
	ThetaUsed  float64
	ThetaBound float64

	// WarmReused: the cached LCP matrix and splitting from Options.Warm
	// were reused (structure signature match). WarmSeeded: the iteration
	// additionally started from the previous solution's modulus-transform
	// seed rather than the GP warm start.
	WarmReused bool
	WarmSeeded bool

	// Finish reports the active-set finish. Iterations counts MMSIM
	// iterations only: with an accepted finish, the ones before it.
	Finish FinishStats
}

// SolveMMSIM assembles the LCP for an already-built problem and runs the
// structured MMSIM. It returns the subcell x solution (length p.NumVars,
// relative to the core's left edge).
func SolveMMSIM(p *Problem, opts Options) ([]float64, *SolveStats, error) {
	return SolveMMSIMContext(context.Background(), p, opts)
}

// SolveMMSIMContext is SolveMMSIM with cooperative cancellation in the
// MMSIM hot loop. With opts.Warm set, consecutive solves of
// structure-identical problems reuse the cached LCP matrix, splitting
// factorizations, and resolved θ*, and seed the iteration from the
// previous solution (see WarmState); the warm path changes only the
// starting iterate, never the fixed point the iteration converges to.
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
	ar := getArena()
	defer ar.release()
	z, st, err := ar.solve(ctx, p, opts)
	if err != nil || z == nil {
		return nil, st, err
	}
	return append([]float64(nil), z...), st, nil
}

// solve is SolveMMSIMFull returning z in ar.z, valid until ar is released.
// Without opts.Warm the splitting, A and q are built into ar as well; a warm
// state keeps its own, built into fresh storage.
func (ar *arena) solve(ctx context.Context, p *Problem, opts Options) ([]float64, *SolveStats, error) {
	st := &SolveStats{ThetaUsed: opts.Theta}
	if p.NumVars == 0 {
		st.Converged = true
		return nil, st, nil
	}
	n := p.NumVars + p.NumCons
	s0 := opts.S0
	if s0 != nil && len(s0) != n {
		return nil, nil, mclgerr.Invalidf("core: S0 has length %d, want NumVars+NumCons = %d",
			len(s0), n)
	}

	warm := opts.Warm
	if warm != nil {
		warm.mu.Lock()
		defer warm.mu.Unlock()
	}

	var sp *StructuredSplitting
	var aMat *sparse.CSR
	var q []float64
	if warm != nil && warm.valid && warm.sig == warmSig(p, &opts) {
		// Structure match: the cached matrix, splitting, and resolved θ*
		// are all position-independent; only the linear term −target in
		// q's head changes between solves.
		sp, aMat, q = warm.sp, warm.a, warm.q
		copy(q[:p.NumVars], p.P)
		st.ThetaUsed = warm.thetaUsed
		st.ThetaBound = warm.thetaBound
		st.WarmReused = true
	} else {
		sp, aMat, q = &ar.sp, &ar.a, ar.q
		if warm != nil {
			sp, aMat, q = &StructuredSplitting{}, &sparse.CSR{}, nil
		}
		theta := opts.Theta
		omegaR := opts.OmegaR
		if omegaR == 0 {
			omegaR = 1
		}
		build := func(theta float64) error {
			switch {
			case opts.PaperOmega:
				return sp.build(p, opts.Beta, theta, false, 1)
			case opts.ScaledOmegaX:
				return sp.build(p, opts.Beta, theta, true, 1)
			default:
				return sp.build(p, opts.Beta, theta, false, omegaR)
			}
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
		p.assembleLCP(aMat)
		q = p.lcpVector(q)
		if warm == nil {
			ar.q = q
		} else {
			// Prime (or re-prime after a mismatch) the structure caches;
			// the previous solution, if any, belonged to a different
			// structure and must not seed this solve.
			warm.sig = warmSig(p, &opts)
			warm.valid = true
			warm.sp, warm.a, warm.q = sp, aMat, q
			warm.thetaUsed, warm.thetaBound = st.ThetaUsed, st.ThetaBound
			warm.haveZ = false
		}
	}

	gamma := opts.Gamma
	if gamma == 0 {
		gamma = 1
	}
	if s0 == nil && !opts.ColdStart && st.WarmReused && warm.haveZ {
		// Seed from the previous solution via the modulus transform
		// s = γ/2·(z − Ω⁻¹w) with w = A·z + q evaluated against the NEW
		// q, so components whose constraints tightened start from their
		// updated complementary value. MMSIM converges from any seed, so
		// a stale or imperfect seed costs iterations, never correctness.
		warm.wbuf = grow(warm.wbuf, n)
		warm.seed = grow(warm.seed, n)
		aMat.MulVec(warm.wbuf, warm.prevZ)
		sparse.Axpy(warm.wbuf, 1, q)
		lcp.WarmSeed(warm.seed, warm.prevZ, warm.wbuf, gamma, sp.Omega())
		s0 = warm.seed
		st.WarmSeeded = true
	}
	if s0 == nil && !opts.ColdStart {
		// Warm start at the global-placement positions with zero
		// multipliers: for z > 0 the modulus substitution gives
		// s = γ·z/2, and most of the relaxed optimum stays near the GP.
		s0 = grow(ar.s0, n)
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
	ar.lp = lcp.Problem{A: aMat, Q: q}
	lo := lcp.Options{
		Gamma:       opts.Gamma,
		Eps:         opts.Eps,
		MaxIter:     opts.MaxIter,
		S0:          s0,
		ResidualTol: resTol,
		OnIter:      opts.OnIter,
	}
	// The arena's workspace holds the finish's scratch, and the iterate too
	// unless a warm state brings its own.
	lo.Workspace = &ar.ws
	if warm != nil {
		if warm.ws == nil {
			warm.ws = lcp.NewWorkspace(n)
		}
		lo.Workspace = warm.ws
	}
	sv, err := lcp.NewSolver(&ar.lp, sp, lo)
	if err != nil {
		return nil, nil, fmt.Errorf("core: MMSIM: %w", err)
	}
	defer sv.Close()
	z, err := runSolve(ctx, sv, &ar.ws, p, sp, &ar.lp, st, opts.MMSIMOnly, warm)
	if err != nil {
		return nil, nil, err
	}
	if warm != nil {
		// Retain the solution for the next seed.
		warm.prevZ = append(warm.prevZ[:0], z...)
		warm.haveZ = true
		if !st.WarmSeeded {
			warm.coldIters = st.Iterations
		}
	}
	// Detach z from the workspaces before the warm state's mutex is released.
	ar.z = append(ar.z[:0], z...)
	return ar.z, st, nil
}

// runSolve drives the MMSIM and, unless mmsimOnly, pauses it for the
// active-set finish, whose buffers come from scratch: after finishPause
// iterations of a cold solve, or at iteration 0 of a warm-seeded one, whose
// guess then comes from the previous solution. A rejected finish resumes the
// paused solver, which reproduces the MMSIM-only iterates bit for bit. The
// returned z aliases a workspace.
func runSolve(ctx context.Context, sv *lcp.Solver, scratch *lcp.Workspace, p *Problem, sp *StructuredSplitting, prob *lcp.Problem, st *SolveStats, mmsimOnly bool, warm *WarmState) ([]float64, error) {
	if !mmsimOnly {
		pause, z0, w0 := finishPause, []float64(nil), []float64(nil)
		if st.WarmSeeded {
			pause, z0, w0 = 0, warm.prevZ, warm.wbuf
		}
		res, err := sv.RunTo(ctx, pause)
		if err != nil {
			return nil, fmt.Errorf("core: MMSIM: %w", err)
		}
		if !res.Paused {
			st.Iterations, st.Converged = res.Iterations, res.Converged
			return res.Z, nil
		}
		if z0 == nil {
			z0 = sv.Z()
		}
		z, fs, err := finishSolve(ctx, p, sp, prob, scratch, z0, w0)
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
