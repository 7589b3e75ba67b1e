// Package experiments regenerates the paper's evaluation artifacts on the
// synthetic benchmark suite: Table 1 (benchmark statistics and illegal
// cells after the MMSIM), Table 2 (displacement / ΔHPWL / runtime for the
// DAC'16, DAC'16-Imp, ASP-DAC'17 baselines and our legalizer), and the
// Section 5.3 single-row-height optimality experiment (MMSIM vs. Abacus
// PlaceRow).
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"mclg/internal/abacus"
	"mclg/internal/baselines"
	"mclg/internal/core"
	"mclg/internal/design"
	"mclg/internal/gen"
	"mclg/internal/metrics"
)

// Config selects the benchmarks and scale of an experiment run.
type Config struct {
	// Scale shrinks the suite's full cell counts (1 = paper size); the
	// default 0.01 keeps the whole suite laptop-fast.
	Scale float64
	// Benchmarks filters by name; empty means the full 20-benchmark suite.
	Benchmarks []string
	// Opts overrides the legalizer options (zero fields take the paper's
	// defaults).
	Opts core.Options
}

func (c Config) withDefaults() Config {
	if c.Scale == 0 {
		c.Scale = 0.01
	}
	return c
}

func (c Config) entries() ([]gen.SuiteEntry, error) {
	if len(c.Benchmarks) == 0 {
		return gen.Suite, nil
	}
	var out []gen.SuiteEntry
	for _, name := range c.Benchmarks {
		e, err := gen.FindEntry(name)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

// Table1Row is one row of Table 1.
type Table1Row struct {
	Name       string
	SCells     int
	DCells     int
	Density    float64
	IllegalN   int     // "#I. Cell": illegal cells after the MMSIM stage
	IllegalPct float64 // "%I. Cell"
}

// Table1 runs the MMSIM legalization on every benchmark and reports the
// illegal-cell statistics the Tetris stage has to repair. The solve is the
// paper's MMSIM alone (Options.MMSIMOnly), so the counts are those its
// stopping rule leaves. Benchmarks run one at a time, in suite order.
func Table1(cfg Config) ([]Table1Row, error) {
	cfg = cfg.withDefaults()
	cfg.Opts.MMSIMOnly = true
	entries, err := cfg.entries()
	if err != nil {
		return nil, err
	}
	rows := make([]Table1Row, 0, len(entries))
	for _, e := range entries {
		d, err := gen.Generate(gen.SuiteSpec(e, cfg.Scale))
		if err != nil {
			return nil, err
		}
		stats, err := core.New(cfg.Opts).Legalize(d)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name, err)
		}
		n := len(d.Cells)
		rows = append(rows, Table1Row{
			Name:       e.Name,
			SCells:     countSpan(d, 1),
			DCells:     countSpan(d, 2),
			Density:    d.Density(),
			IllegalN:   stats.Illegal,
			IllegalPct: 100 * float64(stats.Illegal) / float64(n),
		})
	}
	return rows, nil
}

func countSpan(d *design.Design, span int) int {
	n := 0
	for _, c := range d.Cells {
		if c.RowSpan == span {
			n++
		}
	}
	return n
}

// Method identifies a legalizer column of Table 2.
type Method string

// The four Table 2 columns.
const (
	MethodDAC16    Method = "DAC'16"
	MethodDAC16Imp Method = "DAC'16-Imp"
	MethodASPDAC17 Method = "ASP-DAC'17"
	MethodOurs     Method = "Ours"
)

// Methods lists the Table 2 columns in paper order.
var Methods = []Method{MethodDAC16, MethodDAC16Imp, MethodASPDAC17, MethodOurs}

// MethodResult is one method's outcome on one benchmark.
type MethodResult struct {
	DispSites float64
	DeltaHPWL float64 // fraction, e.g. 0.0112 for 1.12%
	Runtime   time.Duration
	Legal     bool
	Err       string
}

// Table2Row is one row of Table 2.
type Table2Row struct {
	Name    string
	GPHPWL  float64
	Results map[Method]MethodResult
}

// Table2 runs all four legalizers on every benchmark. Every run is timed
// alone, in suite and paper order, so no other run shares the CPU with it
// and the runtime column stays comparable.
func Table2(cfg Config) ([]Table2Row, error) {
	cfg = cfg.withDefaults()
	entries, err := cfg.entries()
	if err != nil {
		return nil, err
	}
	rows := make([]Table2Row, 0, len(entries))
	for _, e := range entries {
		base, err := gen.Generate(gen.SuiteSpec(e, cfg.Scale))
		if err != nil {
			return nil, err
		}
		row := Table2Row{
			Name:    e.Name,
			GPHPWL:  metrics.HPWLGlobal(base),
			Results: map[Method]MethodResult{},
		}
		for _, m := range Methods {
			d := base.Clone()
			t0 := time.Now()
			runErr := runMethod(m, d, cfg.Opts)
			elapsed := time.Since(t0)
			res := MethodResult{Runtime: elapsed}
			if runErr != nil {
				res.Err = runErr.Error()
			} else {
				res.DispSites = metrics.MeasureDisplacement(d).TotalSites
				res.DeltaHPWL = metrics.DeltaHPWL(d)
				res.Legal = design.IsLegal(d)
			}
			row.Results[m] = res
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// baselineNames maps the comparison columns to their baselines.Legalize
// names.
var baselineNames = map[Method]string{
	MethodDAC16: "dac16", MethodDAC16Imp: "dac16imp", MethodASPDAC17: "aspdac17",
}

func runMethod(m Method, d *design.Design, opts core.Options) error {
	if m == MethodOurs {
		_, err := core.New(opts).Legalize(d)
		return err
	}
	name, ok := baselineNames[m]
	if !ok {
		return fmt.Errorf("experiments: unknown method %q", m)
	}
	return baselines.Legalize(context.Background(), name, d)
}

// NormalizedAverages computes the last row of Table 2: per-method
// displacement, ΔHPWL, and runtime normalized to "Ours" and averaged over
// benchmarks (geometric-free arithmetic mean of ratios, as the paper does).
func NormalizedAverages(rows []Table2Row) map[Method][3]float64 {
	out := map[Method][3]float64{}
	for _, m := range Methods {
		var sum [3]float64
		n := 0
		for _, r := range rows {
			ours, a := r.Results[MethodOurs], r.Results[m]
			if ours.Err != "" || a.Err != "" {
				continue
			}
			if ours.DispSites == 0 || ours.DeltaHPWL == 0 || ours.Runtime == 0 {
				continue
			}
			sum[0] += a.DispSites / ours.DispSites
			sum[1] += a.DeltaHPWL / ours.DeltaHPWL
			sum[2] += float64(a.Runtime) / float64(ours.Runtime)
			n++
		}
		if n > 0 {
			sum[0] /= float64(n)
			sum[1] /= float64(n)
			sum[2] /= float64(n)
		}
		out[m] = sum
	}
	return out
}

// SingleRowRow is one row of the Section 5.3 experiment.
type SingleRowRow struct {
	Name          string
	DispMMSIM     float64 // x-displacement objective at the relaxed optimum
	DispPlaceRow  float64
	RelDiff       float64 // |Δ| / max(1, DispPlaceRow)
	TimeMMSIM     time.Duration
	TimePlaceRow  time.Duration
	MMSIMIters    int
	MMSIMConverge bool
}

// SingleRow reproduces Section 5.3: on the single-height variants of the
// suite, the MMSIM and Abacus's PlaceRow legalize the same row assignment
// and must reach the same (optimal) total displacement; the paper reports a
// 1.51× MMSIM speedup.
func SingleRow(cfg Config) ([]SingleRowRow, error) {
	cfg = cfg.withDefaults()
	entries, err := cfg.entries()
	if err != nil {
		return nil, err
	}
	var rows []SingleRowRow
	for _, e := range entries {
		spec := gen.SingleHeightVariant(gen.SuiteSpec(e, cfg.Scale))
		base, err := gen.Generate(spec)
		if err != nil {
			return nil, err
		}
		if err := core.AssignRows(base); err != nil {
			return nil, err
		}
		mm := base.Clone()
		pr := base.Clone()

		row := SingleRowRow{Name: e.Name}

		opts := cfg.Opts
		if opts.Eps == 0 {
			opts.Eps = 1e-6
		}
		opts.SkipTetris = true
		t0 := time.Now()
		st, err := core.New(opts).Legalize(mm)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name, err)
		}
		row.TimeMMSIM = time.Since(t0)
		row.MMSIMIters = st.Iterations
		row.MMSIMConverge = st.Converged

		t1 := time.Now()
		if err := abacus.PlaceRowsAssigned(pr, true); err != nil {
			return nil, err
		}
		row.TimePlaceRow = time.Since(t1)

		row.DispMMSIM = xObjective(mm)
		row.DispPlaceRow = xObjective(pr)
		den := row.DispPlaceRow
		if den < 1 {
			den = 1
		}
		diff := row.DispMMSIM - row.DispPlaceRow
		if diff < 0 {
			diff = -diff
		}
		row.RelDiff = diff / den
		rows = append(rows, row)
	}
	return rows, nil
}

func xObjective(d *design.Design) float64 {
	s := 0.0
	for _, c := range d.Cells {
		dx := c.X - c.GX
		s += dx * dx
	}
	return s
}

// FormatTable1 renders Table 1 rows as a fixed-width text table.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %10s %10s %8s %9s %9s\n",
		"Benchmark", "#S. Cell", "#D. Cell", "Density", "#I. Cell", "%I. Cell")
	var sumS, sumD, sumI int
	var sumDen, sumPct float64
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %10d %10d %8.2f %9d %9.2f\n",
			r.Name, r.SCells, r.DCells, r.Density, r.IllegalN, r.IllegalPct)
		sumS += r.SCells
		sumD += r.DCells
		sumI += r.IllegalN
		sumDen += r.Density
		sumPct += r.IllegalPct
	}
	n := len(rows)
	if n > 0 {
		fmt.Fprintf(&b, "%-16s %10d %10d %8.2f %9d %9.2f\n",
			"Average", sumS/n, sumD/n, sumDen/float64(n), sumI/n, sumPct/float64(n))
	}
	return b.String()
}

// FormatTable2 renders Table 2 rows plus the normalized-average footer.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %12s", "Benchmark", "GP HPWL")
	for _, m := range Methods {
		fmt.Fprintf(&b, " %12s", string(m)+" disp")
	}
	for _, m := range Methods {
		fmt.Fprintf(&b, " %11s", string(m)+" ΔW%")
	}
	for _, m := range Methods {
		fmt.Fprintf(&b, " %11s", string(m)+" t(s)")
	}
	b.WriteString("\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %12.3g", r.Name, r.GPHPWL)
		for _, m := range Methods {
			res := r.Results[m]
			if res.Err != "" {
				fmt.Fprintf(&b, " %12s", "ERR")
				continue
			}
			fmt.Fprintf(&b, " %12.0f", res.DispSites)
		}
		for _, m := range Methods {
			res := r.Results[m]
			if res.Err != "" {
				fmt.Fprintf(&b, " %11s", "ERR")
				continue
			}
			fmt.Fprintf(&b, " %11.2f", 100*res.DeltaHPWL)
		}
		for _, m := range Methods {
			res := r.Results[m]
			fmt.Fprintf(&b, " %11.3f", res.Runtime.Seconds())
		}
		b.WriteString("\n")
	}
	norm := NormalizedAverages(rows)
	fmt.Fprintf(&b, "%-16s %12s", "N. Average", "")
	for _, m := range Methods {
		fmt.Fprintf(&b, " %12.2f", norm[m][0])
	}
	for _, m := range Methods {
		fmt.Fprintf(&b, " %11.2f", norm[m][1])
	}
	for _, m := range Methods {
		fmt.Fprintf(&b, " %11.2f", norm[m][2])
	}
	b.WriteString("\n")
	return b.String()
}

// FormatSingleRow renders the Section 5.3 comparison.
func FormatSingleRow(rows []SingleRowRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %14s %14s %10s %12s %12s %8s\n",
		"Benchmark", "MMSIM obj", "PlaceRow obj", "rel.diff", "MMSIM t(s)", "PlcRow t(s)", "iters")
	var speedups []float64
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %14.1f %14.1f %10.2e %12.4f %12.4f %8d\n",
			r.Name, r.DispMMSIM, r.DispPlaceRow, r.RelDiff,
			r.TimeMMSIM.Seconds(), r.TimePlaceRow.Seconds(), r.MMSIMIters)
		if r.TimeMMSIM > 0 {
			speedups = append(speedups, float64(r.TimePlaceRow)/float64(r.TimeMMSIM))
		}
	}
	if len(speedups) > 0 {
		sort.Float64s(speedups)
		fmt.Fprintf(&b, "median PlaceRow/MMSIM runtime ratio: %.2f\n", speedups[len(speedups)/2])
	}
	return b.String()
}
