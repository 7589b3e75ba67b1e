// Command mclg legalizes a mixed-cell-height placement.
//
// Input is either a Bookshelf .aux file (-aux) or a named benchmark from
// the synthetic suite (-bench, with -scale). The legalized placement can be
// written back as Bookshelf (-out) and quality metrics are printed; -json
// swaps the human summary for the machine-readable report schema shared
// with the mclgd daemon. With -server the job is submitted to a running
// mclgd instead of being solved locally. Either way the flags describe the
// job as the daemon's request (serve.Request): it is checked by the
// daemon's rules and solved by the same legalizer switch.
//
//	mclg -bench fft_2 -scale 0.01
//	mclg -aux design.aux -method ours -out legal.aux
//	mclg -bench fft_2 -scale 0.01 -json
//	mclg -server http://localhost:8080 -bench fft_2 -scale 0.01
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mclg/internal/bookshelf"
	"mclg/internal/design"
	"mclg/internal/eco"
	"mclg/internal/gen"
	"mclg/internal/gp"
	"mclg/internal/refine"
	"mclg/internal/serve"
	"mclg/internal/serve/report"
	"mclg/internal/window"
)

// info is where human-readable chatter goes: stdout normally, stderr under
// -json so stdout carries exactly one JSON document.
var info io.Writer = os.Stdout

// cli is the parsed command line: the job as a daemon request, plus the
// stages and outputs only mclg has.
type cli struct {
	req        serve.Request
	aux        string
	windowRows int // the windowed job's band height, or with -eco the session's
	out        string
	refine     string
	eco        string
	server     string
	retry      int
	timeout    time.Duration
	check      bool
	gp         bool
	verbose    bool
	json       bool
}

// parseArgs reads the command line into a cli.
func parseArgs(fs *flag.FlagSet, args []string) (*cli, error) {
	c := &cli{}
	o := &serve.OptionsJSON{}
	c.req.Options = o
	fs.StringVar(&c.aux, "aux", "", "Bookshelf .aux input file")
	fs.StringVar(&c.req.Bench, "bench", "", "synthetic suite benchmark name (e.g. fft_2)")
	fs.Float64Var(&c.req.Scale, "scale", 0.01, "suite scale factor (1 = paper-size)")
	fs.StringVar(&c.req.Method, "method", "ours", "legalizer: ours | dac16 | dac16imp | aspdac17")
	fs.StringVar(&c.out, "out", "", "write legalized placement as Bookshelf .aux")
	fs.Float64Var(&o.Lambda, "lambda", 1000, "subcell equality penalty λ")
	fs.Float64Var(&o.Beta, "beta", 0.5, "MMSIM splitting constant β*")
	fs.Float64Var(&o.Theta, "theta", 0.5, "MMSIM splitting constant θ*")
	fs.Float64Var(&o.Eps, "eps", 1e-4, "MMSIM convergence tolerance")
	fs.BoolVar(&o.AutoTheta, "autotheta", false, "clamp θ* below the Theorem-2 bound")
	fs.StringVar(&c.refine, "refine", "", "post-legalization refinement objective: disp | hpwl")
	fs.BoolVar(&c.check, "check", false, "only check legality of the input placement and exit")
	fs.BoolVar(&o.BoundRight, "boundright", false, "solve with exact right-boundary constraints (extension)")
	fs.BoolVar(&c.gp, "gp", false, "re-derive the global placement from the netlist (internal/gp) before legalizing")
	fs.BoolVar(&c.verbose, "v", false, "print per-stage details")
	fs.DurationVar(&c.timeout, "timeout", 0, "abort the run after this duration (0 = no limit)")
	fs.BoolVar(&c.req.Resilient, "resilient", false, "with -method ours: run the fallback cascade (mmsim -> retuned -> pgs -> greedy)")
	fs.IntVar(&o.Workers, "workers", 0, "windows solved at once with -windows: 0 = all cores; every other solve runs on one goroutine (any value gives identical output)")
	fs.StringVar(&c.server, "server", "", "submit the job to a running mclgd at this base URL instead of solving locally")
	fs.IntVar(&c.retry, "retry", 0, "with -server: retry a 429 (queue full / rate-limited) up to N times, honoring the daemon's Retry-After hint with jitter")
	fs.BoolVar(&c.json, "json", false, "emit the machine-readable run report (mclgd schema) on stdout")
	fs.BoolVar(&c.req.Audit, "audit", false, "audit the result: re-run the pipeline independently, recompute optimality residuals, cross-check against a reference solve, and print the sealed certificate (exit 1 unless it passes)")
	fs.BoolVar(&c.req.Windows, "windows", false, "fault-isolated windowed legalization: solve per-row-band windows under supervision (retry, hedging, degradation) and stitch deterministically (method ours only)")
	fs.IntVar(&c.windowRows, "window-rows", 0, "rows per window with -windows (0 = default 16)")
	fs.Float64Var(&c.req.Hedge, "hedge", 0, "straggler-hedging quantile in (0,1] with -windows: re-issue the slowest windows once this fraction has completed (0 = off)")
	fs.IntVar(&c.req.Exact, "exact", 0, "with -windows: after stitch, re-solve the K worst-displacement windows with the branch-and-bound exact legalizer and report measured optimality gaps (0 = off)")
	fs.StringVar(&c.eco, "eco", "", "apply an ECO delta stream (JSON file) to the legal base placement via dirty-window re-legalization, then certify by replay")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if c.eco == "" {
		c.req.WindowRows = c.windowRows
	}
	return c, nil
}

// validate checks the command line: -eco's flag rule, the job by the
// daemon's rules (serve.Request.Validate), then the rules of mclg's other
// stages.
func (c *cli) validate() error {
	if c.eco != "" && (c.req.Method != "ours" || c.req.Resilient || c.req.Audit || c.req.Windows ||
		c.refine != "" || c.check || c.gp || c.server != "") {
		return errors.New("-eco runs locally with method ours and no other pipeline flags")
	}
	if err := c.req.Validate(); err != nil {
		return err
	}
	switch {
	case c.refine != "" && c.refine != "disp" && c.refine != "hpwl":
		return fmt.Errorf("unknown refine objective %q", c.refine)
	case c.req.Audit && c.refine != "":
		return errors.New("-audit certifies the standard pipeline, without -refine")
	case c.server != "" && (c.gp || c.check || c.refine != ""):
		return errors.New("-gp, -check and -refine run locally and cannot be combined with -server")
	case c.server == "" && c.retry != 0:
		return errors.New("-retry requires -server")
	case c.retry < 0:
		return fmt.Errorf("-retry %d must be non-negative", c.retry)
	}
	return nil
}

// ecoOptions configures the -eco session: the request's resolved solver
// options, as /v1/eco's create uses them, and -window-rows.
func (c *cli) ecoOptions() eco.Options {
	return eco.Options{Core: c.req.CoreOptions(), WindowRows: c.windowRows}
}

func main() {
	c, _ := parseArgs(flag.CommandLine, os.Args[1:]) // flag.CommandLine exits on a parse error
	if c.json {
		info = os.Stderr
	}
	if err := c.validate(); err != nil {
		fatal(err)
	}
	if c.server != "" {
		c.runRemote()
		return
	}

	// SIGINT/SIGTERM and -timeout cancel the same context; every solver
	// stage polls it and aborts with a typed mclgerr.ErrCanceled error.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if c.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}

	d, err := loadDesign(c.aux, c.req.Bench, c.req.Scale)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(info, "design %s: %d cells (%d multi-row), %d rows, density %.2f\n",
		d.Name, len(d.Cells), countMulti(d), len(d.Rows), d.Density())

	if c.eco != "" {
		runEco(ctx, d, c.eco, c.ecoOptions(), c.json, c.out)
		return
	}

	if c.gp {
		res, err := gp.Place(d, gp.Options{})
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(info, "global placement: %d rounds, %d CG iterations, overflow %.3f\n",
			res.Iterations, res.CGIters, res.Overflow)
	}

	if c.check {
		rep := design.CheckLegal(d)
		fmt.Fprintf(info, "legality: %s\n", rep)
		for i, v := range rep.Violations {
			if i >= 20 {
				fmt.Fprintf(info, "  ... %d more\n", len(rep.Violations)-20)
				break
			}
			fmt.Fprintf(info, "  %s\n", v)
		}
		if !rep.Legal() {
			os.Exit(1)
		}
		return
	}

	t0 := time.Now()
	rep, err := c.req.Solve(ctx, d, window.Legalize)
	if rep == nil {
		// A report comes back with an error only when the checker rejected
		// the placement; that run is reported and exits 1.
		fatal(err)
	}
	if c.refine != "" {
		obj := refine.Displacement
		if c.refine == "hpwl" {
			obj = refine.HPWL
		}
		res, err := refine.RefineContext(ctx, d, refine.Options{Objective: obj})
		if err != nil {
			fatal(err)
		}
		if c.verbose {
			fmt.Fprintf(info, "  refine: %d slides, %d swaps, objective %.4g -> %.4g\n",
				res.Slides, res.Swaps, res.Initial, res.Final)
		}
		rep.Measure(d, time.Since(t0))
	}
	// Audit-on-demand: the auditor re-runs the pipeline from the global
	// placement on its own clones, so the certificate is an independent
	// verdict on this result, and its PosHash must reproduce it.
	if c.req.Audit {
		if err := c.req.Certify(ctx, d, rep); err != nil {
			fatal(err)
		}
	}
	c.finish(rep, d)
}

// runRemote is the -server flow: submit the request, then report it like a
// local run, writing the returned placement for -out.
func (c *cli) runRemote() {
	req := c.req
	if c.timeout > 0 {
		req.TimeoutMS = int64(c.timeout / time.Millisecond)
	}
	req.IncludePlacement = c.out != ""
	switch {
	case c.aux != "":
		files, err := readUpload(c.aux)
		if err != nil {
			fatal(err)
		}
		req.Bench, req.Scale, req.Files = "", 0, files
	case req.Bench == "":
		fatal(errNoDesign)
	}
	rep, err := submitRemote(c.server, &req, c.timeout, c.retry)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(info, "design %s: %d cells (%d multi-row) [served by %s, cache %s]\n",
		rep.Design, rep.Cells, rep.MultiRowCells, c.server, rep.Cache)
	var d *design.Design
	if c.out != "" {
		if d, err = loadDesign(c.aux, c.req.Bench, c.req.Scale); err != nil {
			fatal(err)
		}
		if !rep.ApplyPlacement(d) {
			fatal(fmt.Errorf("server response carries no usable placement for %d cells", len(d.Cells)))
		}
	}
	c.finish(rep, d)
}

// finish prints the run's report, writes d, which holds the reported
// placement, to -out, and exits 1 unless the placement is legal and any
// certificate passed.
func (c *cli) finish(rep *report.Report, d *design.Design) {
	printReport(rep, d, c.verbose)
	if c.json {
		printJSON(rep)
	}
	if c.out != "" {
		writeLegalized(d, c.out)
	}
	if !rep.Legal || (rep.Certificate != nil && !rep.Certificate.Pass) {
		os.Exit(1)
	}
}

// printReport prints a report, local or served: the solver's lines (the
// per-stage figures under -v), the quality summary and the certificate. A
// non-nil d holds the reported placement and names an illegal one's
// violations.
func printReport(rep *report.Report, d *design.Design, verbose bool) {
	if ws := rep.Windows; ws != nil {
		fmt.Fprintf(info, "  windows: %d solved + %d resumed of %d (retries %d, hedges won %d/%d, degraded %d)\n",
			ws.Solved, ws.Resumed, ws.Windows, ws.Retries, ws.HedgesWon, ws.HedgesIssued, ws.Degraded)
		if ex := ws.Exact; ex != nil {
			fmt.Fprintf(info, "  exact: %d refined (%d improved, %d proven optimal, %d skipped), max gap %.3g\n",
				ex.Selected, ex.Improved, ex.Proven, ex.Skipped, ex.MaxGap)
			if verbose {
				for _, g := range ex.Gaps {
					fmt.Fprintf(info, "    window %d: %d cells gap=%.3g proven=%v improved=%v maxdisp %.0f -> %.0f\n",
						g.Window, g.Cells, g.Gap, g.Proven, g.Improved, g.MaxDispBefore, g.MaxDispAfter)
				}
			}
		}
	}
	if rep.Rung != "" {
		fmt.Fprintf(info, "  resilient: succeeded on rung %q after %d attempt(s)\n", rep.Rung, rep.Attempts)
	}
	if verbose && rep.Method == "ours" && rep.Windows == nil {
		fmt.Fprintf(info, "  vars=%d cons=%d iters=%d converged=%v\n",
			rep.NumVars, rep.NumCons, rep.Iterations, rep.Converged)
		if rep.Finish != "" {
			fmt.Fprintf(info, "  active-set finish: %s after %d rounds, %d PCG iterations\n",
				rep.Finish, rep.FinishRounds, rep.FinishPCG)
		}
		fmt.Fprintf(info, "  subcell mismatch=%.4g illegal=%d\n", rep.MaxSubcellMismatch, rep.Illegal)
		fmt.Fprintf(info, "  build=%v solve=%v tetris=%v\n", ms(rep.BuildMS), ms(rep.SolveMS), ms(rep.TetrisMS))
	}
	fmt.Fprintf(info, "method=%s runtime=%.0fms\n", rep.Method, rep.WallMS)
	fmt.Fprintf(info, "total displacement: %.0f sites (max %.0f, avg %.2f)\n",
		rep.DisplacementSites, rep.MaxDispSites, rep.AvgDispSites)
	fmt.Fprintf(info, "HPWL: %.4g (ΔHPWL %.2f%%)\n", rep.HPWL, 100*rep.DeltaHPWL)
	fmt.Fprintf(info, "legality: %s\n", legality(d, rep.Legal))
	if rep.Certificate != nil {
		fmt.Fprintf(info, "%s\n", rep.Certificate.Summary())
	}
}

// ms turns a report's milliseconds back into a duration for printing.
func ms(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }

func printJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fatal(err)
	}
}

// writeLegalized stores the legalized positions as the .pl positions.
func writeLegalized(d *design.Design, outPath string) {
	out := d.Clone()
	for _, c := range out.Cells {
		c.GX, c.GY = c.X, c.Y
	}
	if err := bookshelf.Write(out, outPath); err != nil {
		fatal(err)
	}
	fmt.Fprintf(info, "wrote %s\n", outPath)
}

var errNoDesign = errors.New("one of -aux or -bench is required")

func loadDesign(aux, bench string, scale float64) (*design.Design, error) {
	switch {
	case aux != "":
		return bookshelf.Read(aux)
	case bench != "":
		e, err := gen.FindEntry(bench)
		if err != nil {
			return nil, err
		}
		return gen.Generate(gen.SuiteSpec(e, scale))
	default:
		return nil, errNoDesign
	}
}

// legality is the checker's one-line summary of a placement whose verdict
// a report already holds: the full report is built only to count an
// illegal placement's violations, when d holds it.
func legality(d *design.Design, legal bool) string {
	switch {
	case legal:
		return "legal"
	case d == nil:
		return "illegal"
	}
	return design.CheckLegal(d).String()
}

func countMulti(d *design.Design) int {
	n := 0
	for _, c := range d.Cells {
		if c.RowSpan > 1 {
			n++
		}
	}
	return n
}

// fatal prints err on one line with one "mclg: " prefix and exits 2. The
// taxonomy's sentinel texts begin "mclg: " themselves (mclgerr), so the
// prefix is dropped wherever it recurs inside the error chain.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mclg:", strings.ReplaceAll(err.Error(), "mclg: ", ""))
	os.Exit(2)
}
