package experiments

import (
	"fmt"
	"strings"

	"mclg/internal/core"
	"mclg/internal/design"
	"mclg/internal/gen"
	"mclg/internal/metrics"
)

// NoiseRow is one row of the GP-noise sensitivity sweep (experiment E9):
// how each legalizer's displacement grows as the global placement degrades.
type NoiseRow struct {
	Level float64 // noise multiplier applied to the generator defaults
	Disp  map[Method]float64
	Legal map[Method]bool
}

// NoiseSensitivity sweeps the global-placement noise level on one
// benchmark and reruns the Table 2 methods at each level. It quantifies
// the paper's core premise: ordering-preserving simultaneous optimization
// wins when the GP is trustworthy; as the GP degrades into noise, the
// ordering loses information and greedy reassignment catches up.
func NoiseSensitivity(benchName string, scale float64, levels []float64) ([]NoiseRow, error) {
	if scale == 0 {
		scale = 0.01
	}
	e, err := gen.FindEntry(benchName)
	if err != nil {
		return nil, err
	}
	var rows []NoiseRow
	for _, level := range levels {
		spec := gen.SuiteSpec(e, scale)
		spec.NoiseX = 0.75 * level
		spec.NoiseY = 0.15 * level
		spec.WarpX = 8 * level
		spec.WarpY = 0.3 * level
		base, err := gen.Generate(spec)
		if err != nil {
			return nil, err
		}
		row := NoiseRow{Level: level, Disp: map[Method]float64{}, Legal: map[Method]bool{}}
		for _, m := range Methods {
			d := base.Clone()
			if err := runMethod(m, d, core.Options{}); err != nil {
				row.Disp[m] = -1
				continue
			}
			row.Disp[m] = metrics.MeasureDisplacement(d).TotalSites
			row.Legal[m] = design.IsLegal(d)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatNoise renders the sweep as a text table.
func FormatNoise(rows []NoiseRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s", "noise")
	for _, m := range Methods {
		fmt.Fprintf(&b, " %12s", m)
	}
	fmt.Fprintf(&b, " %14s\n", "ours/ASP-DAC")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8.2f", r.Level)
		for _, m := range Methods {
			if r.Disp[m] < 0 {
				fmt.Fprintf(&b, " %12s", "ERR")
			} else {
				fmt.Fprintf(&b, " %12.0f", r.Disp[m])
			}
		}
		if r.Disp[MethodASPDAC17] > 0 && r.Disp[MethodOurs] > 0 {
			fmt.Fprintf(&b, " %14.3f", r.Disp[MethodOurs]/r.Disp[MethodASPDAC17])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// ConvergencePoint is one sample of the MMSIM convergence trace.
type ConvergencePoint struct {
	Iter int
	Step float64 // ||z⁽ᵏ⁾ − z⁽ᵏ⁻¹⁾||∞
}

// ConvergenceTrace runs the MMSIM on one benchmark and records the
// per-iteration step norm — the series behind a convergence plot. It runs
// the iteration alone (Options.MMSIMOnly) to its own stopping rule.
func ConvergenceTrace(benchName string, scale float64, opts core.Options) ([]ConvergencePoint, error) {
	if scale == 0 {
		scale = 0.01
	}
	e, err := gen.FindEntry(benchName)
	if err != nil {
		return nil, err
	}
	d, err := gen.Generate(gen.SuiteSpec(e, scale))
	if err != nil {
		return nil, err
	}
	if err := core.AssignRows(d); err != nil {
		return nil, err
	}
	full := core.New(opts).Opts
	full.MMSIMOnly = true
	p, err := core.BuildProblem(d, full.Lambda)
	if err != nil {
		return nil, err
	}
	var trace []ConvergencePoint
	full.OnIter = func(k int, dz float64) {
		trace = append(trace, ConvergencePoint{Iter: k, Step: dz})
	}
	if _, _, err := core.SolveMMSIM(p, full); err != nil {
		return nil, err
	}
	return trace, nil
}

// FormatConvergence renders a decimated (log-spaced) view of the trace
// suitable for terminals, plus a CSV-ish full dump when full is true.
func FormatConvergence(trace []ConvergencePoint, full bool) string {
	var b strings.Builder
	if full {
		b.WriteString("iter,step\n")
		for _, pt := range trace {
			fmt.Fprintf(&b, "%d,%g\n", pt.Iter, pt.Step)
		}
		return b.String()
	}
	fmt.Fprintf(&b, "%8s %14s\n", "iter", "||Δz||∞")
	next := 1
	for _, pt := range trace {
		if pt.Iter+1 >= next || pt.Iter == len(trace)-1 {
			fmt.Fprintf(&b, "%8d %14.6g\n", pt.Iter+1, pt.Step)
			next *= 2
		}
	}
	fmt.Fprintf(&b, "(%d iterations total)\n", len(trace))
	return b.String()
}

// ParamPoint is one (β*, θ*) sample of the splitting-constant sweep.
type ParamPoint struct {
	Beta, Theta float64
	Iterations  int
	Converged   bool
	Diverged    bool
}

// ParamSweep maps MMSIM convergence behavior over a grid of splitting
// constants on one benchmark — the constants the paper fixes at
// β* = θ* = 0.5 "determined by the formulas given in [2]". The sweep shows
// how much headroom that choice has before the iteration degrades or
// diverges.
func ParamSweep(benchName string, scale float64, betas, thetas []float64) ([]ParamPoint, error) {
	if scale == 0 {
		scale = 0.01
	}
	e, err := gen.FindEntry(benchName)
	if err != nil {
		return nil, err
	}
	base, err := gen.Generate(gen.SuiteSpec(e, scale))
	if err != nil {
		return nil, err
	}
	var out []ParamPoint
	for _, beta := range betas {
		for _, theta := range thetas {
			d := base.Clone()
			if err := core.AssignRows(d); err != nil {
				return nil, err
			}
			p, err := core.BuildProblem(d, 1000)
			if err != nil {
				return nil, err
			}
			opts := core.New(core.Options{Beta: beta, Theta: theta, MMSIMOnly: true}).Opts
			pt := ParamPoint{Beta: beta, Theta: theta}
			_, st, err := core.SolveMMSIM(p, opts)
			if err != nil {
				pt.Diverged = true
			} else {
				pt.Iterations = st.Iterations
				pt.Converged = st.Converged
			}
			out = append(out, pt)
		}
	}
	return out, nil
}

// FormatParamSweep renders the sweep as a β×θ grid of iteration counts.
func FormatParamSweep(points []ParamPoint, betas, thetas []float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%8s", "β\\θ")
	for _, th := range thetas {
		fmt.Fprintf(&b, " %10.2f", th)
	}
	b.WriteString("\n")
	idx := 0
	for _, beta := range betas {
		fmt.Fprintf(&b, "%8.2f", beta)
		for range thetas {
			pt := points[idx]
			idx++
			switch {
			case pt.Diverged:
				fmt.Fprintf(&b, " %10s", "DIV")
			case !pt.Converged:
				fmt.Fprintf(&b, " %10s", ">max")
			default:
				fmt.Fprintf(&b, " %10d", pt.Iterations)
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}
