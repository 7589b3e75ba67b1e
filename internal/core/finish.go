package core

import (
	"context"
	"fmt"

	"mclg/internal/lcp"
	"mclg/internal/mclgerr"
	"mclg/internal/sparse"
)

// The active-set finish. Theorem 2 makes the MMSIM's fixed point the relaxed
// optimum, but the iteration needs hundreds to thousands of steps to get
// there, while the set of tight constraints is usually right after a handful.
// The finish takes that guess and runs the primal-dual active-set method
// (Hintermüller, Ito and Kunisch, SIAM J. Optim. 2002): each round treats the
// guessed active rows as equalities, solves the resulting equality QP
// exactly, and re-guesses from the new primal-dual pair. A round's solution
// is accepted only when the LCP residual recomputed from A and q is at most
// finishTol — the solution-polishing rule of OSQP (Stellato et al., Math.
// Prog. Comp. 2020) — so an accepted finish is as verified as a converged
// MMSIM. When no round passes, the paused MMSIM resumes from its own iterate
// as if the finish had never run.
const (
	// finishPause is how many MMSIM iterations a solve runs before the
	// finish guesses the active set.
	finishPause = 5
	// finishRounds caps the active-set rounds.
	finishRounds = 6
	// finishTol is the LCP residual an accepted finish must reach.
	finishTol = 1e-6
	// finishPCGTol is the ∞-norm a round's PCG residual must reach. It is the
	// worst violation of an active row, so it sits well inside finishTol.
	finishPCGTol = 1e-8
	// finishPCGMax caps one round's PCG iterations.
	finishPCGMax = 500
)

// Finish outcomes reported in SolveStats.Finish and Stats.Finish.
const (
	FinishAccepted = "accepted" // the finish's solution was returned
	FinishFallback = "fallback" // no round passed; the MMSIM resumed
)

// FinishStats reports one active-set finish.
type FinishStats struct {
	Rounds  int    // active-set rounds run
	PCG     int    // PCG iterations summed over the rounds
	Outcome string // FinishAccepted, FinishFallback, or "" when it did not run
}

// finishForceFallback makes every finish reject its solution; tests use it
// to show that a fallback reproduces the MMSIM-only solve.
var finishForceFallback bool

// Workspace buffer slots (lcp.Workspace.Floats / Ints) used by the finish.
const (
	fbZ   = iota // candidate z, length N = NumVars+NumCons
	fbW          // w = A z + q of the candidate
	fbT          // H⁻¹ operand, length NumVars
	fbY          // H⁻¹ result, length NumVars
	fbLam        // PCG iterate: active multipliers, length K ≤ N
	fbR          // PCG residual
	fbZP         // preconditioned residual
	fbP          // search direction
	fbAP         // S·p
	fbRHS        // right-hand side of S λ = rhs
	fbOff        // preconditioner coupling of active row k with k−1
	fbLow        // preconditioner LU multipliers
	fbPiv        // preconditioner pivots (constraints), H⁻¹ diagonal (pins)
)

const (
	fiState = iota // per LCP row: 1 if active (pinned variable, tight constraint)
	fiComp         // per variable: leftmost variable of its active chain
	fiMark         // per variable: chain already anchored
	fiRows         // active rows: constraint indices, then pinned variables
)

// finisher is one finish attempt; every slice lives in the workspace.
type finisher struct {
	p  *Problem
	sp *StructuredSplitting
	lp *lcp.Problem
	n  int

	state, comp, mark []int
	cons, pins        []int // views of the active-row buffer
	rows              []int

	z, w, t, y              []float64
	lam, r, zp, pd, ap, rhs []float64
	off, low, piv           []float64
}

// finishSolve runs the active-set finish from the guess z0 and its
// w = A z0 + q. On acceptance it returns the solution, which aliases the
// workspace; otherwise nil. An error is returned only for cancellation.
func finishSolve(ctx context.Context, p *Problem, sp *StructuredSplitting, lp *lcp.Problem, ws *lcp.Workspace, z0 []float64) ([]float64, FinishStats, error) {
	n, m := p.NumVars, p.NumCons
	N := n + m
	f := finisher{
		p: p, sp: sp, lp: lp, n: n,
		state: ws.Ints(fiState, N),
		comp:  ws.Ints(fiComp, n),
		mark:  ws.Ints(fiMark, n),
		rows:  ws.Ints(fiRows, N),
		z:     ws.Floats(fbZ, N),
		w:     ws.Floats(fbW, N),
		t:     ws.Floats(fbT, n),
		y:     ws.Floats(fbY, n),
		lam:   ws.Floats(fbLam, N),
		r:     ws.Floats(fbR, N),
		zp:    ws.Floats(fbZP, N),
		pd:    ws.Floats(fbP, N),
		ap:    ws.Floats(fbAP, N),
		rhs:   ws.Floats(fbRHS, N),
		off:   ws.Floats(fbOff, N),
		low:   ws.Floats(fbLow, N),
		piv:   ws.Floats(fbPiv, N),
	}
	var fs FinishStats
	lp.ResidualInto(f.w, z0)
	f.guess(z0, f.w)
	zc, wc := z0, f.w // the pair the multiplier warm start reads
	for fs.Rounds < finishRounds {
		if err := mclgerr.FromContext(ctx); err != nil {
			return nil, fs, fmt.Errorf("core: active-set finish aborted: %w", err)
		}
		fs.Rounds++
		iters, ok, err := f.round(ctx, zc, wc)
		fs.PCG += iters
		if err != nil {
			return nil, fs, fmt.Errorf("core: active-set finish aborted: %w", err)
		}
		if !ok {
			break
		}
		if lp.ResidualInto(f.w, f.z) <= finishTol && !finishForceFallback {
			fs.Outcome = FinishAccepted
			return f.z, fs, nil
		}
		zc, wc = f.z, f.w
		if f.guess(f.z, f.w) == 0 {
			break // the active set is a fixed point, yet the residual is too large
		}
	}
	fs.Outcome = FinishFallback
	return nil, fs, nil
}

// guess sets the active rows from a primal-dual pair (z, w = A z + q): a
// constraint is active when its multiplier exceeds its slack, a variable is
// pinned at zero when its reduced cost exceeds its value. It returns how many
// rows changed state.
func (f *finisher) guess(z, w []float64) int {
	n, changed := f.n, 0
	for i, st := range f.state {
		a := 0
		if i < n && w[i] > z[i] || i >= n && z[i] > w[i] {
			a = 1
		}
		if a != st {
			changed++
		}
		f.state[i] = a
	}
	return changed
}

// round solves the equality QP of the current active set and writes the
// primal-dual solution into f.z. It returns its PCG iterations, and false
// when it cannot produce a solution (a singular preconditioner or PCG out of
// budget); an error only for cancellation.
func (f *finisher) round(ctx context.Context, zc, wc []float64) (int, bool, error) {
	p, n := f.p, f.n
	f.anchor()

	// Collect the active rows: constraints first, in index order, so the
	// preconditioner's tridiagonal couplings are between neighbours.
	k := 0
	for i := range p.Cons {
		if f.state[n+i] == 1 {
			f.rows[k] = i
			k++
		}
	}
	nc := k
	for j := 0; j < n; j++ {
		if f.state[j] == 1 {
			f.rows[k] = j
			k++
		}
	}
	f.cons, f.pins = f.rows[:nc], f.rows[nc:k]
	lam, rhs := f.lam[:k], f.rhs[:k]

	// S λ = r + R H⁻¹ p, where R stacks the active rows of B and the pinned
	// unit rows and r = [b_C; 0]. The multipliers start from the pair the
	// guess came from.
	copy(f.t, p.P)
	p.SolveHShifted(1, p.Lambda, f.y, f.t)
	for a, i := range f.cons {
		rhs[a] = p.Bv[i] + f.rowB(i, f.y)
		lam[a] = zc[n+i]
	}
	for a, j := range f.pins {
		rhs[nc+a] = f.y[j]
		lam[nc+a] = wc[j]
	}
	if !f.factorPrecond() {
		return 0, false, nil
	}
	iters, ok, err := f.pcg(ctx, lam, rhs)
	if !ok {
		return iters, false, err
	}

	// x = H⁻¹ (Rᵀ λ − p); the inactive multipliers are zero.
	f.applyRT(lam)
	for j := 0; j < n; j++ {
		f.t[j] -= p.P[j]
	}
	p.SolveHShifted(1, p.Lambda, f.z[:n], f.t)
	mu := f.z[n:]
	clear(mu)
	for a, i := range f.cons {
		mu[i] = lam[a]
	}
	return iters, true, nil
}

// anchor keeps at most one anchor per chain of active constraints — a pinned
// variable or an active right-boundary row — so R keeps full row rank and S
// stays nonsingular. Extra anchors are released for this round; the next
// guess re-adds them if the solution violates them.
func (f *finisher) anchor() {
	p, n := f.p, f.n
	for j := range f.comp {
		f.comp[j] = j
		f.mark[j] = 0
	}
	// Constraints run left to right within a row, so a chain's left
	// variable has its final component before the chain reaches its right.
	for i := range p.Cons {
		if c := &p.Cons[i]; f.state[n+i] == 1 && c.Right >= 0 {
			f.comp[c.Right] = f.comp[c.Left]
		}
	}
	for j := 0; j < n; j++ {
		if f.state[j] == 1 {
			if f.mark[f.comp[j]] == 1 {
				f.state[j] = 0
			}
			f.mark[f.comp[j]] = 1
		}
	}
	for i := range p.Cons {
		if c := &p.Cons[i]; f.state[n+i] == 1 && c.Right < 0 {
			if f.mark[f.comp[c.Left]] == 1 {
				f.state[n+i] = 0
			}
			f.mark[f.comp[c.Left]] = 1
		}
	}
}

// rowB returns (B v)_i: v[Right] − v[Left], or −v[Left] for a boundary row.
func (f *finisher) rowB(i int, v []float64) float64 {
	c := &f.p.Cons[i]
	s := -v[c.Left]
	if c.Right >= 0 {
		s += v[c.Right]
	}
	return s
}

// applyRT sets f.t = Rᵀ λ.
func (f *finisher) applyRT(lam []float64) {
	t, nc := f.t, len(f.cons)
	clear(t)
	for a, i := range f.cons {
		c := &f.p.Cons[i]
		t[c.Left] -= lam[a]
		if c.Right >= 0 {
			t[c.Right] += lam[a]
		}
	}
	for a, j := range f.pins {
		t[j] += lam[nc+a]
	}
}

// applyS computes dst = R H⁻¹ Rᵀ src through B and the per-cell H⁻¹ block
// solve.
func (f *finisher) applyS(dst, src []float64) {
	f.applyRT(src)
	f.p.SolveHShifted(1, f.p.Lambda, f.y, f.t)
	nc := len(f.cons)
	for a, i := range f.cons {
		dst[a] = f.rowB(i, f.y)
	}
	for a, j := range f.pins {
		dst[nc+a] = f.y[j]
	}
}

// factorPrecond factors the preconditioner: the splitting's D = tridiag(B
// H⁻¹ Bᵀ) restricted to the active constraints, which is exact for chains of
// single-row cells, and Jacobi on the pinned variables. It reports false on a
// nonpositive pivot.
func (f *finisher) factorPrecond() bool {
	d := f.sp.D()
	nc := len(f.cons)
	off, low, piv := f.off, f.low, f.piv
	for a, i := range f.cons {
		off[a] = 0
		if a > 0 && f.cons[a-1] == i-1 {
			off[a] = d.Sub[i]
		}
		piv[a] = d.Diag[i]
		if a > 0 {
			low[a] = off[a] / piv[a-1]
			piv[a] -= low[a] * off[a]
		}
		if !(piv[a] > 0) {
			return false
		}
	}
	for a, j := range f.pins {
		piv[nc+a] = f.p.hInvDiag(j)
	}
	return true
}

// precond applies the factored preconditioner: dst = P⁻¹ src.
func (f *finisher) precond(dst, src []float64) {
	nc := len(f.cons)
	low, off, piv := f.low, f.off, f.piv
	if nc > 0 {
		dst[0] = src[0]
		for a := 1; a < nc; a++ {
			dst[a] = src[a] - low[a]*dst[a-1]
		}
		dst[nc-1] /= piv[nc-1]
		for a := nc - 2; a >= 0; a-- {
			dst[a] = (dst[a] - off[a+1]*dst[a+1]) / piv[a]
		}
	}
	for a := nc; a < len(dst); a++ {
		dst[a] = src[a] / piv[a]
	}
}

// pcg solves S λ = rhs in place from the given λ by preconditioned conjugate
// gradients. It returns its iteration count and whether the residual reached
// finishPCGTol within finishPCGMax iterations; an error only for
// cancellation, which it polls every 16 iterations.
func (f *finisher) pcg(ctx context.Context, lam, rhs []float64) (int, bool, error) {
	k := len(lam)
	r, zp, pd, ap := f.r[:k], f.zp[:k], f.pd[:k], f.ap[:k]
	f.applyS(r, lam)
	for a := range r {
		r[a] = rhs[a] - r[a]
	}
	f.precond(zp, r)
	copy(pd, zp)
	rz := sparse.Dot(r, zp)
	for it := 0; ; it++ {
		if sparse.NormInf(r) <= finishPCGTol {
			return it, true, nil
		}
		if it == finishPCGMax {
			return it, false, nil
		}
		if it%16 == 15 {
			if err := mclgerr.FromContext(ctx); err != nil {
				return it, false, err
			}
		}
		f.applyS(ap, pd)
		pap := sparse.Dot(pd, ap)
		if !(pap > 0) {
			return it, false, nil
		}
		alpha := rz / pap
		for a := range lam {
			lam[a] += alpha * pd[a]
			r[a] -= alpha * ap[a]
		}
		f.precond(zp, r)
		rzNew := sparse.Dot(r, zp)
		beta := rzNew / rz
		rz = rzNew
		for a := range pd {
			pd[a] = zp[a] + beta*pd[a]
		}
	}
}
