package lcp

import (
	"context"
	"fmt"
	"math"
	"runtime/pprof"

	"mclg/internal/mclgerr"
	"mclg/internal/sparse"
)

// Splitting supplies the pieces of the MMSIM iteration for A = M − N with a
// positive diagonal Ω:
//
//	(M + Ω) s⁽ᵏ⁺¹⁾ = N s⁽ᵏ⁾ + (Ω − A)|s⁽ᵏ⁾| − γ q          (Eq. 3)
//	z⁽ᵏ⁺¹⁾ = (|s⁽ᵏ⁺¹⁾| + s⁽ᵏ⁺¹⁾) / γ                        (Eq. 4)
//
// Implementations provide the two operator applications the iteration needs;
// SolveMOmega must solve against the fixed matrix M + Ω, so implementations
// typically factor it once.
type Splitting interface {
	// SolveMOmega computes dst with (M + Ω) dst = rhs. dst and rhs do not alias.
	SolveMOmega(dst, rhs []float64)
	// ApplyN computes dst = N * src. dst and src do not alias.
	ApplyN(dst, src []float64)
	// Omega returns the positive diagonal Ω as a vector (nil means identity).
	Omega() []float64
}

// Options controls the MMSIM iteration.
type Options struct {
	Gamma   float64 // positive constant γ; 0 means 1
	Eps     float64 // stop when ||z⁽ᵏ⁾ − z⁽ᵏ⁻¹⁾||∞ < Eps; 0 means 1e-6
	MaxIter int     // 0 means 10000
	S0      []float64

	// ResidualTol, when positive, additionally requires the LCP residual
	// (Problem.Residual) to drop below it before the iteration is declared
	// converged. The ||Δz|| criterion alone can fire spuriously when the
	// iteration takes small steps far from the solution (e.g. with a badly
	// scaled Ω); the residual check makes termination sound at the cost of
	// one extra matrix-vector product per candidate stop.
	ResidualTol float64

	// CheckEvery strides the residual verification: after a candidate stop
	// (dz < Eps) fails its residual check, the next check runs only once
	// CheckEvery further iterations have passed, instead of on every
	// subsequent candidate. The first candidate stop is always checked, and
	// convergence is never declared without a passing residual check, so
	// striding can only delay the stop — it can never accept an iterate the
	// per-iteration check would reject. 0 derives the stride from the
	// problem structure (the residual-to-iteration cost ratio, a pure
	// function of n and nnz(A)); 1 reproduces the legacy check-every-
	// candidate behavior.
	CheckEvery int
	// OnIter, if non-nil, is invoked after every iteration with the
	// iteration index and the current z-step norm; used by convergence
	// studies and progress reporting.
	OnIter func(k int, dz float64)

	// Workspace supplies the solve's iterate buffers so repeated solves
	// allocate nothing per iteration (and nothing per solve beyond the
	// Result struct). Nil borrows a pooled workspace for the duration of
	// the solve; in that case Result.Z is detached (copied) before the
	// workspace returns to the pool. With an explicit Workspace, Result.Z
	// aliases the workspace's z buffer and is valid only until the
	// workspace is reused.
	Workspace *Workspace
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.Gamma == 0 {
		out.Gamma = 1
	}
	if out.Eps == 0 {
		out.Eps = 1e-6
	}
	if out.MaxIter == 0 {
		out.MaxIter = 10000
	}
	return out
}

// Result reports the outcome of an MMSIM run.
type Result struct {
	Z          []float64
	Iterations int
	FinalStep  float64 // last ||z⁽ᵏ⁾ − z⁽ᵏ⁻¹⁾||∞
	Converged  bool

	// Paused reports that Solver.RunTo stopped at its iteration limit before
	// the iterate converged or exhausted MaxIter; Z is nil and the solver
	// can resume (see RunTo).
	Paused bool
}

// ErrDiverged is returned when the iteration produced non-finite values. It
// matches mclgerr.ErrDiverged via errors.Is.
var ErrDiverged = fmt.Errorf("lcp: MMSIM diverged (non-finite iterate): %w", mclgerr.ErrDiverged)

// MMSIM runs Algorithm 1 of the paper: the modulus-based matrix splitting
// iteration for LCP(q, A) with the caller-supplied splitting.
func MMSIM(p *Problem, sp Splitting, opts Options) (*Result, error) {
	return MMSIMContext(context.Background(), p, sp, opts)
}

// cancelCheckEvery is how many MMSIM iterations pass between context polls:
// rare enough to stay off the profile, frequent enough that cancellation
// lands within a few milliseconds even on large instances.
const cancelCheckEvery = 16

// MMSIMContext is MMSIM with cooperative cancellation: the hot loop polls
// ctx every few iterations and aborts with an mclgerr.ErrCanceled-matching
// error when the context is done.
func MMSIMContext(ctx context.Context, p *Problem, sp Splitting, opts Options) (*Result, error) {
	sv, err := NewSolver(p, sp, opts)
	if err != nil {
		return nil, err
	}
	defer sv.Close()
	return sv.Run(ctx)
}

// Solver is one MMSIM run unrolled into explicit steps: NewSolver binds the
// problem, splitting, and workspace; Step advances one iteration of
// Algorithm 1; Run drives Step to convergence with cancellation and
// divergence checks. The stepping form exists so callers (and the
// steady-state allocation gate) can drive the per-iteration hot path
// directly — a Step performs zero heap allocations.
type Solver struct {
	p     *Problem
	sp    Splitting
	o     Options
	ws    *Workspace
	ownWS bool // workspace borrowed from the pool, returned by Close

	omega []float64
	n     int
	k     int // completed iterations

	// needAbs marks that absS does not yet hold |s| for the upcoming
	// iteration: true before the first step (and after reseeding), false
	// afterwards because the fused z-update pass writes |s| as a
	// by-product.
	needAbs bool

	resStride int // iterations between residual checks after a failed one
	lastResK  int // iteration count at the last residual check (0 = never)
}

// NewSolver validates the instance and prepares a solver positioned before
// the first iteration. A non-nil Options.S0 must have exactly the problem
// dimension; a mismatch is rejected with an mclgerr.ErrInvalidInput-matching
// error rather than silently truncating or zero-padding the seed.
func NewSolver(p *Problem, sp Splitting, opts Options) (*Solver, error) {
	o := opts.withDefaults()
	n := p.N()
	if p.A.Rows != n || p.A.Cols != n {
		return nil, fmt.Errorf("lcp: A is %dx%d but q has length %d", p.A.Rows, p.A.Cols, n)
	}
	if o.S0 != nil && len(o.S0) != n {
		return nil, mclgerr.Invalidf("lcp: S0 has length %d, want problem dimension %d", len(o.S0), n)
	}
	sv := &Solver{p: p, sp: sp, o: o, n: n, omega: sp.Omega(), needAbs: true}
	if o.CheckEvery > 0 {
		sv.resStride = o.CheckEvery
	} else {
		sv.resStride = residualStride(p)
	}
	if opts.Workspace != nil {
		sv.ws = opts.Workspace
		sv.ws.Ensure(n)
	} else {
		sv.ws = GetWorkspace(n)
		sv.ownWS = true
	}
	// Pooled (and caller-reused) buffers are dirty: the seed and the dz
	// predecessor are the only state read before being written.
	ws := sv.ws
	for i := range ws.s {
		ws.s[i] = 0
	}
	if o.S0 != nil {
		copy(ws.s, o.S0)
	}
	for i := range ws.zPrev {
		ws.zPrev[i] = 0
	}
	return sv, nil
}

// Close releases a pooled workspace. After Close the solver must not be
// stepped; a Result.Z obtained from an explicit Options.Workspace remains
// owned by that workspace.
func (sv *Solver) Close() {
	if sv.ownWS {
		PutWorkspace(sv.ws)
		sv.ownWS = false
	}
	sv.ws = nil
}

// Iterations returns how many steps have completed.
func (sv *Solver) Iterations() int { return sv.k }

// Z returns the current z iterate (aliasing the workspace).
func (sv *Solver) Z() []float64 { return sv.ws.z }

// Step advances one MMSIM iteration (Eqs. 3–4) and returns the step norm
// ||z⁽ᵏ⁾ − z⁽ᵏ⁻¹⁾||∞. It performs no allocations.
//
// The iteration body is fused into three sweeps (plus the splitting's own
// solves): the modulus rhs pass folds the Ω|s|, −A|s|, and −γq updates into
// one traversal of A's rows; the z pass folds the modulus
// back-transform, the finiteness scan, the ‖Δz‖∞ reduction, and the capture
// of |s| for the NEXT iteration's rhs pass into one traversal; and the
// zPrev bookkeeping is a buffer swap instead of a copy. Every per-element
// operation keeps the unfused sequence's order, so iterates are
// bit-identical to stepUnfused (pinned by TestFusedStepBitIdentical).
func (sv *Solver) Step() (float64, error) {
	ws, o := sv.ws, &sv.o
	if sv.needAbs {
		// First iteration (or fresh seed): |s| has not been captured by a
		// previous fused z pass yet.
		sparse.Abs(ws.absS, ws.s)
		sv.needAbs = false
	}
	// rhs = N s + Ω|s| − A|s| − γ q
	sv.sp.ApplyN(ws.rhs, ws.s)
	sv.p.A.FusedModulusRHS(ws.rhs, sv.omega, ws.absS, sv.p.Q, o.Gamma)

	sv.sp.SolveMOmega(ws.sNext, ws.rhs)
	ws.s, ws.sNext = ws.sNext, ws.s

	// Ping-pong z/zPrev: the previous iterate stays in place and the new one
	// is written into the other buffer, replacing the full-length copy the
	// unfused step paid. Contents after the swap are identical to
	// copy-then-overwrite.
	zNew, zOld := ws.z, ws.zPrev
	if sv.k > 0 {
		zNew, zOld = ws.zPrev, ws.z
	}
	dz, ok := sparse.FusedZUpdate(zNew, zOld, ws.s, ws.absS, o.Gamma)
	if sv.k > 0 {
		ws.z, ws.zPrev = zNew, zOld
	}
	if !ok {
		return 0, ErrDiverged
	}
	sv.k++
	return dz, nil
}

// stepUnfused is the pre-fusion iteration body, kept verbatim as the
// executable specification of one MMSIM step: the property tests drive a
// solver through it and require the fused Step to reproduce the z history
// bit for bit. It maintains the same workspace invariants as Step
// (including the |s| capture for the fused rhs pass, so the two can even be
// interleaved on one solver).
func (sv *Solver) stepUnfused() (float64, error) {
	ws, o, n := sv.ws, &sv.o, sv.n
	if sv.k > 0 {
		copy(ws.zPrev, ws.z)
	}

	sparse.Abs(ws.absS, ws.s)
	// rhs = N s + Ω|s| − A|s| − γ q
	sv.sp.ApplyN(ws.rhs, ws.s)
	if sv.omega == nil {
		sparse.Axpy(ws.rhs, 1, ws.absS)
	} else {
		rhs, omega, absS := ws.rhs, sv.omega, ws.absS
		for i := 0; i < n; i++ {
			rhs[i] += omega[i] * absS[i]
		}
	}
	sv.p.A.AddMulVec(ws.rhs, ws.absS, -1)
	sparse.Axpy(ws.rhs, -o.Gamma, sv.p.Q)

	sv.sp.SolveMOmega(ws.sNext, ws.rhs)
	ws.s, ws.sNext = ws.sNext, ws.s

	gamma := o.Gamma
	z, s := ws.z, ws.s
	for i := 0; i < n; i++ {
		z[i] = (math.Abs(s[i]) + s[i]) / gamma
	}
	// Maintain Step's workspace invariant: absS holds |s| of the new
	// iterate so a following fused Step needs no standalone Abs pass.
	sparse.Abs(ws.absS, ws.s)
	sv.needAbs = false
	if !finite(ws.z) {
		return 0, ErrDiverged
	}
	dz := sparse.DiffNormInf(ws.z, ws.zPrev)
	sv.k++
	return dz, nil
}

// residualStride derives the K between residual verifications from the
// problem structure alone: one residual costs about one SpMV over A plus a
// 3n scan, an iteration costs about two SpMV-equivalents plus the splitting
// solves and three vector passes. K is chosen so strided checking adds at
// most ~25% to the convergence tail (K ≈ ⌈4·resCost/iterCost⌉ + 1) and is
// clamped to [2, 8]. Deterministic in (n, nnz), so every run strides
// identically.
func residualStride(p *Problem) int {
	n := p.N()
	if n == 0 {
		return 2
	}
	nnz := p.A.NNZ()
	resCost := nnz + 3*n
	iterCost := 3*nnz + 10*n
	k := 1 + (4*resCost+iterCost-1)/iterCost
	if k < 2 {
		k = 2
	}
	if k > 8 {
		k = 8
	}
	return k
}

// pprof labels attributing CPU samples to the solve stages. Visible via
// mclgd -pprof.
var (
	labelsIterate  = pprof.Labels("mclg_stage", "mmsim-fused")
	labelsResidual = pprof.Labels("mclg_stage", "mmsim-residual")
)

// Run drives Step until convergence, divergence, iteration exhaustion, or
// cancellation, reproducing the classic MMSIMContext loop bit for bit. When
// the solver owns a pooled workspace, Result.Z is detached from it before
// the workspace can return to the pool; with an explicit Options.Workspace,
// Result.Z aliases the workspace.
//
// Residual verification is strided (Options.CheckEvery): the first candidate
// stop always runs the check, but after a failed check the next one waits
// for resStride further iterations instead of firing on every candidate in
// the convergence tail. Convergence is never declared without a passing
// residual check when ResidualTol > 0, so the stride can delay termination
// but never weaken it.
func (sv *Solver) Run(ctx context.Context) (*Result, error) {
	return sv.RunTo(ctx, sv.o.MaxIter)
}

// RunTo is Run paused once limit iterations have completed: if the iterate
// has neither converged nor exhausted MaxIter by then, it returns a Result
// with Paused set and a nil Z (Solver.Z reads the iterate). A later Run or
// RunTo resumes from exactly that state — the iterate, the residual-check
// stride and the cancellation cadence all carry over — so a paused and
// resumed solve reproduces an uninterrupted one bit for bit. A limit at or
// below the completed count pauses without stepping.
func (sv *Solver) RunTo(ctx context.Context, limit int) (res *Result, err error) {
	pprof.Do(ctx, labelsIterate, func(ctx context.Context) {
		res, err = sv.run(ctx, min(limit, sv.o.MaxIter))
	})
	return res, err
}

func (sv *Solver) run(ctx context.Context, limit int) (*Result, error) {
	o := &sv.o
	res := &Result{Iterations: sv.k}
	for sv.k < limit {
		if sv.k%cancelCheckEvery == 0 {
			if err := mclgerr.FromContext(ctx); err != nil {
				return nil, fmt.Errorf("lcp: MMSIM aborted at iteration %d: %w", sv.k, err)
			}
		}
		k := sv.k
		dz, err := sv.Step()
		if err != nil {
			return nil, err
		}
		res.Iterations = sv.k
		res.FinalStep = dz
		if o.OnIter != nil {
			o.OnIter(k, dz)
		}
		if k > 0 && dz < o.Eps {
			if o.ResidualTol <= 0 {
				res.Converged = true
				break
			}
			if sv.lastResK == 0 || sv.k-sv.lastResK >= sv.resStride {
				sv.lastResK = sv.k
				var rv float64
				pprof.Do(ctx, labelsResidual, func(context.Context) {
					rv = sv.p.ResidualInto(sv.ws.w, sv.ws.z)
				})
				if rv < o.ResidualTol {
					res.Converged = true
					break
				}
			}
		}
	}
	if !res.Converged && sv.k < o.MaxIter {
		res.Paused = true
		return res, nil
	}
	if sv.ownWS {
		res.Z = append([]float64(nil), sv.ws.z...)
	} else {
		res.Z = sv.ws.z
	}
	return res, nil
}

func finite(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// DiagSplitting is the textbook splitting M = (1/α)·diag(A), N = M − A,
// with Ω = diag(A). For strictly diagonally dominant A (an H₊-matrix) and
// α in (0, 1] the modulus iteration contracts, which makes this the
// reference splitting in tests; the legalizer uses the structured block
// splitting in internal/core instead.
type DiagSplitting struct {
	a     *sparse.CSR
	alpha float64
	diag  []float64 // diag(A) = Ω
	inv   []float64 // 1 / (M_ii + Ω_ii)
}

// NewDiagSplitting builds the diagonal splitting for A with relaxation
// parameter alpha in (0, 2). A must have positive diagonal entries.
func NewDiagSplitting(a *sparse.CSR, alpha float64) (*DiagSplitting, error) {
	if alpha <= 0 {
		return nil, fmt.Errorf("lcp: alpha must be positive, got %g", alpha)
	}
	n := a.Rows
	d := &DiagSplitting{a: a, alpha: alpha, diag: make([]float64, n), inv: make([]float64, n)}
	for i := 0; i < n; i++ {
		aii := a.At(i, i)
		if aii <= 0 {
			return nil, fmt.Errorf("lcp: DiagSplitting requires positive diagonal, A[%d][%d] = %g", i, i, aii)
		}
		d.diag[i] = aii
		d.inv[i] = 1 / (aii/alpha + aii)
	}
	return d, nil
}

// SolveMOmega solves ((1/α)diag(A) + Ω) dst = rhs with Ω = diag(A).
func (d *DiagSplitting) SolveMOmega(dst, rhs []float64) {
	for i := range dst {
		dst[i] = rhs[i] * d.inv[i]
	}
}

// ApplyN computes dst = ((1/α)diag(A) − A) src.
func (d *DiagSplitting) ApplyN(dst, src []float64) {
	for i := range dst {
		dst[i] = d.diag[i] / d.alpha * src[i]
	}
	d.a.AddMulVec(dst, src, -1)
}

// Omega returns diag(A).
func (d *DiagSplitting) Omega() []float64 { return d.diag }
