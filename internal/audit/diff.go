package audit

import (
	"context"
	"fmt"
	"math"

	"mclg/internal/abacus"
	"mclg/internal/baselines/chow"
	"mclg/internal/core"
	"mclg/internal/dense"
	"mclg/internal/design"
	"mclg/internal/lcp"
	"mclg/internal/metrics"
	"mclg/internal/qp"
	"mclg/internal/sparse"
)

// crossCheck solves the relaxed QP with an independently coded reference and
// returns the max |Δx| against the MMSIM solution. Small instances get the
// dense active-set method; large ones a projected Gauss–Seidel on the dual
// of the *full* constraint set G = [B; I] — unlike core.SolvePGS, which
// documents dropping the x ≥ 0 complementarity, the audit reference keeps
// it, because a dropped bound is exactly the kind of discrepancy a
// differential check exists to catch.
func crossCheck(ctx context.Context, p *core.Problem, x []float64) *Reference {
	ref := &Reference{Tol: diffTol}
	var xr []float64
	var err error
	if p.NumVars <= maxDenseVars {
		ref.Method = "dense-qp"
		xr, err = solveDenseQP(p)
	} else {
		ref.Method = "dual-pgs"
		xr, ref.Iters, err = solveDualPGS(ctx, p, refEps, refMaxIter)
	}
	if err != nil {
		ref.Err = err.Error()
		return ref
	}
	for v := range x {
		if d := math.Abs(x[v] - xr[v]); d > ref.MaxDX {
			ref.MaxDX = d
		}
	}
	ref.Pass = ref.MaxDX <= ref.Tol
	return ref
}

// solveDenseQP solves min ½xᵀHx + pᵀx s.t. Bx ≥ b, x ≥ 0 with the dense
// active-set method, assembling H = I + λEᵀE and G = [B; I] from scratch.
func solveDenseQP(p *core.Problem) ([]float64, error) {
	n, m := p.NumVars, p.NumCons
	h := dense.New(n, n)
	for i := 0; i < n; i++ {
		h.Set(i, i, 1)
	}
	for _, vars := range p.CellVars {
		for k := 0; k+1 < len(vars); k++ {
			lo, hi := vars[k], vars[k+1]
			h.Set(lo, lo, h.At(lo, lo)+p.Lambda)
			h.Set(hi, hi, h.At(hi, hi)+p.Lambda)
			h.Set(lo, hi, h.At(lo, hi)-p.Lambda)
			h.Set(hi, lo, h.At(hi, lo)-p.Lambda)
		}
	}
	g := dense.New(m+n, n)
	hv := make([]float64, m+n)
	for i, c := range p.Cons {
		g.Set(i, c.Left, -1)
		if c.Right >= 0 {
			g.Set(i, c.Right, 1)
		}
		hv[i] = p.Bv[i]
	}
	for v := 0; v < n; v++ {
		g.Set(m+v, v, 1) // x_v ≥ 0
	}
	x0, err := packLeft(p)
	if err != nil {
		return nil, err
	}
	return qp.Solve(&qp.Problem{H: h, P: append([]float64(nil), p.P...), G: g, Hv: hv}, x0)
}

// packLeft builds a feasible starting point: every row chain packed against
// the left edge with exact gap spacing. Constraints are row-major and
// left-to-right, so a single forward pass settles each chain.
func packLeft(p *core.Problem) ([]float64, error) {
	x0 := make([]float64, p.NumVars)
	for _, c := range p.Cons {
		if c.Right >= 0 {
			if v := x0[c.Left] + c.Gap; v > x0[c.Right] {
				x0[c.Right] = v
			}
		} else if -x0[c.Left] < c.Gap {
			// Boundary constraint −x ≥ Gap unsatisfiable even packed left:
			// the row is overfull, the QP is infeasible.
			return nil, fmt.Errorf("audit: row %d overfull, no feasible start", c.Row)
		}
	}
	return x0, nil
}

// solveDualPGS solves the same QP through its dual LCP over the full
// constraint set G = [B; I]:
//
//	S = G H⁻¹ Gᵀ,  q̃ = −G H⁻¹ p − h,  h = [b; 0]
//	find μ ≥ 0 with S μ + q̃ ≥ 0, μᵀ(S μ + q̃) = 0
//	x = H⁻¹ (Gᵀ μ − p)
//
// The assembly mirrors core.SolvePGS's column-by-column Schur construction
// but over the augmented constraint set, so the two implementations share no
// relaxation decisions.
func solveDualPGS(ctx context.Context, p *core.Problem, eps float64, maxIter int) ([]float64, int, error) {
	n, m := p.NumVars, p.NumCons
	// hp = H⁻¹ p.
	hp := make([]float64, n)
	p.SolveHShifted(1, p.Lambda, hp, p.P)

	// touch[v]: the augmented constraints with a nonzero at variable v.
	type gEntry struct {
		con  int
		sign float64
	}
	touch := make([][]gEntry, n)
	for i, c := range p.Cons {
		touch[c.Left] = append(touch[c.Left], gEntry{i, -1})
		if c.Right >= 0 {
			touch[c.Right] = append(touch[c.Right], gEntry{i, 1})
		}
	}
	for v := 0; v < n; v++ {
		touch[v] = append(touch[v], gEntry{m + v, 1})
	}

	// S column i = G · (H⁻¹ Gᵀ e_i); Gᵀ e_i has one or two nonzeros.
	sb := sparse.NewBuilder(m+n, m+n)
	idx := make([]int, 0, 2)
	val := make([]float64, 0, 2)
	col := func(i int) {
		p.ApplyHInvSparse(idx, val, func(v int, hv float64) {
			for _, e := range touch[v] {
				sb.Add(e.con, i, e.sign*hv)
			}
		})
	}
	for i, c := range p.Cons {
		idx, val = idx[:0], val[:0]
		idx = append(idx, c.Left)
		val = append(val, -1)
		if c.Right >= 0 {
			idx = append(idx, c.Right)
			val = append(val, 1)
		}
		col(i)
	}
	for v := 0; v < n; v++ {
		idx, val = idx[:0], val[:0]
		idx = append(idx, v)
		val = append(val, 1)
		col(m + v)
	}
	s := sb.Build()

	// q̃ = −G hp − h with h = [Bv; 0].
	qd := make([]float64, m+n)
	for i, c := range p.Cons {
		gh := -hp[c.Left]
		if c.Right >= 0 {
			gh += hp[c.Right]
		}
		qd[i] = -gh - p.Bv[i]
	}
	for v := 0; v < n; v++ {
		qd[m+v] = -hp[v]
	}

	mu, sweeps, err := lcp.PGSSparse(ctx, s, qd, nil, eps, maxIter)
	if mu == nil {
		return nil, sweeps, err
	}

	// x = H⁻¹ (Gᵀ μ − p).
	rhs := make([]float64, n)
	for i, c := range p.Cons {
		rhs[c.Left] -= mu[i]
		if c.Right >= 0 {
			rhs[c.Right] += mu[i]
		}
	}
	for v := 0; v < n; v++ {
		rhs[v] += mu[m+v]
		rhs[v] -= p.P[v]
	}
	x := make([]float64, n)
	p.SolveHShifted(1, p.Lambda, x, rhs)
	return x, sweeps, err
}

// baselineChecks legalizes fresh clones with the baseline legalizers and
// compares total displacement. A baseline that errors (abacus cannot place
// multi-row designs) is recorded but never fails the audit; a baseline that
// runs records Pass = ours ≤ baselineFactor × theirs (checked by the caller
// against the ratio).
func baselineChecks(ctx context.Context, d *design.Design, oursLegal bool, oursDisp float64) []Baseline {
	run := func(name string, fn func(*design.Design) error) Baseline {
		b := Baseline{Name: name}
		c := d.Clone()
		c.ResetToGlobal()
		if err := fn(c); err != nil {
			b.Err = err.Error()
			return b
		}
		b.Legal = design.IsLegal(c)
		b.Displacement = metrics.MeasureDisplacement(c).TotalSites
		if b.Displacement > 0 {
			b.Ratio = oursDisp / b.Displacement
		}
		// Quality sanity: when the baseline produced a legal result, ours
		// must not be drastically worse. An illegal baseline result carries
		// no quality information.
		b.Pass = !b.Legal || !oursLegal || b.Displacement == 0 ||
			b.Ratio <= baselineFactor
		return b
	}
	out := []Baseline{
		run("chow", func(c *design.Design) error { return chow.LegalizeContext(ctx, c) }),
		run("abacus", func(c *design.Design) error {
			if err := core.AssignRows(c); err != nil {
				return err
			}
			if err := abacus.PlaceRowsAssigned(c, false); err != nil {
				return err
			}
			// PlaceRow yields real-valued x; snap to sites for legality.
			for _, cell := range c.Cells {
				if !cell.Fixed {
					cell.X = c.SnapX(cell.X)
				}
			}
			return nil
		}),
	}
	return out
}
