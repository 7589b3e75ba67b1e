package audit

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"mclg/internal/core"
	"mclg/internal/design"
	"mclg/internal/metrics"
	"mclg/internal/tetris"
)

// A Transform rewrites a design into a provably equivalent instance. The
// metamorphic harness legalizes both and requires the legality verdict and
// the displacement objective to be invariant: the pipeline must not care
// where the core sits, how cells are numbered, or which way x points.
type Transform struct {
	Name  string
	Apply func(*design.Design) *design.Design

	// VerdictOnly limits the invariance check to the legality verdict.
	// Mirror-x sets it: the paper's relaxation is left-right asymmetric by
	// construction (x ≥ 0 is a hard LCP bound, the right boundary is
	// dropped and repaired by Tetris; BalanceRows picks cells
	// direction-dependently), so the objective is equivariant only up to
	// those heuristics, while the legality verdict must still be invariant.
	VerdictOnly bool

	// OrderSensitive marks transforms that change cell numbering.
	// PermuteCells sets it: problem construction honors the global-x order
	// with ID tie-breaks, so when a design has order ties (equal targets in
	// a row with different widths — clamped global positions produce these)
	// the relaxed optimum legitimately depends on the numbering, and the
	// harness downgrades the check to the legality verdict.
	OrderSensitive bool
}

// rebuildConfig reconstructs the constructor config of an existing design.
func rebuildConfig(d *design.Design) design.Config {
	cfg := design.Config{
		Name:      d.Name,
		NumRows:   len(d.Rows),
		RowHeight: d.RowHeight,
		SiteW:     d.SiteW,
		OriginX:   d.Core.Lo.X,
		OriginY:   d.Core.Lo.Y,
	}
	if len(d.Rows) > 0 {
		cfg.NumSites = d.Rows[0].NumSites
		cfg.BottomRail = d.Rows[0].Rail
	}
	return cfg
}

// copyCell clones src into dst's cell table preserving order (and thus IDs).
func copyCell(dst *design.Design, src *design.Cell) *design.Cell {
	c := dst.AddCell(src.Name, src.W, src.H, src.BottomRail)
	c.GX, c.GY = src.GX, src.GY
	c.X, c.Y = src.X, src.Y
	c.Fixed = src.Fixed
	c.Flipped = src.Flipped
	return c
}

// Translate shifts the whole instance — core, cells, and fixed pins — by an
// integer number of sites and rows, so every coordinate stays exactly
// representable on the shifted grid. Legalization is translation-invariant;
// this is also the transform that exposes absolute-epsilon bugs in
// coordinate checks when the offset is large (e.g. 1e9 sites).
func Translate(sites, rows int) Transform {
	return Transform{
		Name: fmt.Sprintf("translate(%d,%d)", sites, rows),
		Apply: func(d *design.Design) *design.Design {
			dx := float64(sites) * d.SiteW
			dy := float64(rows) * d.RowHeight
			cfg := rebuildConfig(d)
			cfg.OriginX += dx
			cfg.OriginY += dy
			out := design.NewDesign(cfg)
			for _, src := range d.Cells {
				c := copyCell(out, src)
				c.GX, c.GY = src.GX+dx, src.GY+dy
				c.X, c.Y = src.X+dx, src.Y+dy
			}
			out.Nets = cloneNets(d.Nets, func(p design.Pin) design.Pin {
				if p.CellID < 0 {
					p.DX += dx
					p.DY += dy
				}
				return p
			})
			return out
		},
	}
}

// PermuteCells renumbers the cells with a seeded shuffle, remapping net pin
// references. The pipeline's tie-breaks use IDs, but ties in generated
// designs have measure zero, so the placement — and certainly the objective
// and legality verdict — must not depend on the numbering.
func PermuteCells(seed int64) Transform {
	return Transform{
		Name:           fmt.Sprintf("permute(seed=%d)", seed),
		OrderSensitive: true,
		Apply: func(d *design.Design) *design.Design {
			perm := rand.New(rand.NewSource(seed)).Perm(len(d.Cells))
			out := design.NewDesign(rebuildConfig(d))
			// perm[i] is the old index of the cell placed at new ID i.
			newID := make([]int, len(d.Cells))
			for newPos, oldPos := range perm {
				newID[oldPos] = newPos
			}
			for _, oldPos := range perm {
				copyCell(out, d.Cells[oldPos])
			}
			out.Nets = cloneNets(d.Nets, func(p design.Pin) design.Pin {
				if p.CellID >= 0 {
					p.CellID = newID[p.CellID]
				}
				return p
			})
			return out
		},
	}
}

// MirrorX reflects the instance across the core's vertical center line:
// x → Lo.X + Hi.X − (x + w) for cell corners, pin x offsets mirror within
// the cell, fixed pins mirror absolutely. Row structure and rails are
// untouched, so legality and displacement are invariant.
func MirrorX() Transform {
	return Transform{
		Name:        "mirror-x",
		VerdictOnly: true,
		Apply: func(d *design.Design) *design.Design {
			lo, hi := d.Core.Lo.X, d.Core.Hi.X
			out := design.NewDesign(rebuildConfig(d))
			for _, src := range d.Cells {
				c := copyCell(out, src)
				c.GX = lo + hi - (src.GX + src.W)
				c.X = lo + hi - (src.X + src.W)
			}
			cellW := func(id int) float64 { return d.Cells[id].W }
			out.Nets = cloneNets(d.Nets, func(p design.Pin) design.Pin {
				if p.CellID < 0 {
					p.DX = lo + hi - p.DX
				} else {
					p.DX = cellW(p.CellID) - p.DX
				}
				return p
			})
			return out
		},
	}
}

func cloneNets(nets []design.Net, remap func(design.Pin) design.Pin) []design.Net {
	out := make([]design.Net, len(nets))
	for i, n := range nets {
		pins := make([]design.Pin, len(n.Pins))
		for j, p := range n.Pins {
			pins[j] = remap(p)
		}
		out[i] = design.Net{Name: n.Name, Weight: n.Weight, Pins: pins}
	}
	return out
}

// DefaultTransforms is the harness's standard battery.
func DefaultTransforms() []Transform {
	return []Transform{
		Translate(1000, 3),
		Translate(1_000_000_000, 0), // far-origin: catches absolute-eps bugs
		PermuteCells(12345),
		MirrorX(),
	}
}

// InvarianceViolation describes one metamorphic failure.
type InvarianceViolation struct {
	Design    string
	Transform string
	Detail    string
}

func (v InvarianceViolation) String() string {
	return fmt.Sprintf("%s / %s: %s", v.Design, v.Transform, v.Detail)
}

// FuzzReport summarizes a metamorphic run.
type FuzzReport struct {
	Designs    int
	Runs       int
	Violations []InvarianceViolation
}

// ObjTol is the relative tolerance on the relaxed-objective invariance. The
// relaxed QP is strictly convex, so its optimum — and hence the objective —
// is exactly invariant under the transforms in real arithmetic; the
// tolerance absorbs only the solver's stopping slack and summation-order
// round-off, both of which shrink with the tightened Eps the harness uses.
const ObjTol = 1e-6

// Metamorphic runs each design and each of its transformed variants through
// the pipeline and checks the invariants:
//
//   - the full-pipeline legality verdict is identical, and
//   - the relaxed QP objective Σ(Δx²+Δy²), measured between the MMSIM solve
//     and the Tetris snapping, matches within ObjTol (relative, with a
//     1e-6 absolute floor).
//
// The objective check targets the relaxed solution rather than the snapped
// placement deliberately: the convex problem has a unique optimum, so any
// drift is a real solver or construction bug, while the Tetris stage is a
// greedy heuristic whose repair order is not (and need not be) invariant.
// Transforms with VerdictOnly set skip the objective check (see Transform).
// Violations do not error — the caller decides.
func Metamorphic(ctx context.Context, designs []*design.Design, transforms []Transform, opts core.Options) (*FuzzReport, error) {
	if opts.Eps == 0 || opts.Eps > 1e-9 {
		opts.Eps = 1e-9
	}
	if opts.MaxIter < 200000 {
		opts.MaxIter = 200000
	}
	rep := &FuzzReport{}
	for _, d := range designs {
		rep.Designs++
		baseLegal, baseObj, err := runOnce(ctx, d, opts)
		if err != nil {
			return rep, fmt.Errorf("audit: metamorphic base run %s: %w", d.Name, err)
		}
		rep.Runs++
		ties, err := hasOrderTies(d, opts)
		if err != nil {
			return rep, fmt.Errorf("audit: metamorphic tie scan %s: %w", d.Name, err)
		}
		for _, tr := range transforms {
			td := tr.Apply(d.Clone())
			legal, obj, err := runOnce(ctx, td, opts)
			if err != nil {
				return rep, fmt.Errorf("audit: metamorphic %s/%s: %w", d.Name, tr.Name, err)
			}
			rep.Runs++
			if legal != baseLegal {
				rep.Violations = append(rep.Violations, InvarianceViolation{
					Design: d.Name, Transform: tr.Name,
					Detail: fmt.Sprintf("legality verdict flipped: base=%v transformed=%v", baseLegal, legal),
				})
			}
			checkObj := !tr.VerdictOnly && !(tr.OrderSensitive && ties)
			tol := ObjTol*math.Max(1, math.Abs(baseObj)) + 1e-6
			if checkObj && math.Abs(obj-baseObj) > tol {
				rep.Violations = append(rep.Violations, InvarianceViolation{
					Design: d.Name, Transform: tr.Name,
					Detail: fmt.Sprintf("relaxed objective drifted: base=%.12g transformed=%.12g (tol %.3g)", baseObj, obj, tol),
				})
			}
		}
	}
	return rep, nil
}

// hasOrderTies reports whether any row holds subcells of two different
// cells with identical global-x targets that are not interchangeable: the
// case where the ID tie-break picks between genuinely different constraint
// chains, so the relaxed optimum depends on the numbering (clamped global
// placements are the usual source). Two single-row subcells of equal width
// ARE interchangeable — swapping them relabels the same problem — but any
// width mismatch, or a multi-row owner (whose other slices couple the tie
// into neighboring rows), makes the order matter.
func hasOrderTies(d *design.Design, opts core.Options) (bool, error) {
	c := d.Clone()
	c.ResetToGlobal()
	if err := core.AssignRows(c); err != nil {
		return false, err
	}
	p, err := core.BuildProblemBounded(c, opts.Lambda, false)
	if err != nil {
		return false, err
	}
	type key struct {
		row    int
		target float64
	}
	type info struct {
		width float64
		multi bool
	}
	seen := make(map[key]info)
	for _, sc := range p.Subcells {
		k := key{sc.Row, sc.Target}
		in := info{width: sc.Width, multi: len(p.CellVars[sc.Cell]) > 1}
		if prev, ok := seen[k]; ok {
			if prev.width != in.width || prev.multi || in.multi {
				return true, nil
			}
			continue
		}
		seen[k] = in
	}
	return false, nil
}

// runOnce runs the pipeline up to multi-row restoration (SkipTetris), so the
// relaxed objective can be measured before the snapping, then finishes with
// the Tetris stage for the legality verdict.
func runOnce(ctx context.Context, d *design.Design, opts core.Options) (legal bool, relaxedObj float64, err error) {
	c := d.Clone()
	c.ResetToGlobal()
	opts.SkipTetris = true
	if _, err := core.New(opts).LegalizeContext(ctx, c); err != nil {
		return false, 0, err
	}
	relaxedObj = metrics.MeasureDisplacement(c).SumSq
	if _, err := tetris.AllocateContext(ctx, c); err != nil {
		return false, 0, err
	}
	return design.IsLegal(c), relaxedObj, nil
}
