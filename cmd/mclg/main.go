// Command mclg legalizes a mixed-cell-height placement.
//
// Input is either a Bookshelf .aux file (-aux) or a named benchmark from
// the synthetic suite (-bench, with -scale). The legalized placement can be
// written back as Bookshelf (-out) and quality metrics are printed; -json
// swaps the human summary for the machine-readable report schema shared
// with the mclgd daemon. With -server the job is submitted to a running
// mclgd instead of being solved locally.
//
//	mclg -bench fft_2 -scale 0.01
//	mclg -aux design.aux -method ours -out legal.aux
//	mclg -bench fft_2 -scale 0.01 -json
//	mclg -server http://localhost:8080 -bench fft_2 -scale 0.01
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mclg/internal/audit"
	"mclg/internal/baselines"
	"mclg/internal/bookshelf"
	"mclg/internal/core"
	"mclg/internal/design"
	"mclg/internal/gen"
	"mclg/internal/gp"
	"mclg/internal/metrics"
	"mclg/internal/refine"
	"mclg/internal/serve"
	"mclg/internal/serve/report"
	"mclg/internal/window"
)

// info is where human-readable chatter goes: stdout normally, stderr under
// -json so stdout carries exactly one JSON document.
var info io.Writer = os.Stdout

func main() {
	var (
		auxPath    = flag.String("aux", "", "Bookshelf .aux input file")
		benchName  = flag.String("bench", "", "synthetic suite benchmark name (e.g. fft_2)")
		scale      = flag.Float64("scale", 0.01, "suite scale factor (1 = paper-size)")
		method     = flag.String("method", "ours", "legalizer: ours | dac16 | dac16imp | aspdac17")
		outPath    = flag.String("out", "", "write legalized placement as Bookshelf .aux")
		lambda     = flag.Float64("lambda", 1000, "subcell equality penalty λ")
		beta       = flag.Float64("beta", 0.5, "MMSIM splitting constant β*")
		theta      = flag.Float64("theta", 0.5, "MMSIM splitting constant θ*")
		eps        = flag.Float64("eps", 1e-4, "MMSIM convergence tolerance")
		autoTheta  = flag.Bool("autotheta", false, "clamp θ* below the Theorem-2 bound")
		refineObj  = flag.String("refine", "", "post-legalization refinement objective: disp | hpwl")
		checkOnly  = flag.Bool("check", false, "only check legality of the input placement and exit")
		boundRight = flag.Bool("boundright", false, "solve with exact right-boundary constraints (extension)")
		runGP      = flag.Bool("gp", false, "re-derive the global placement from the netlist (internal/gp) before legalizing")
		verbose    = flag.Bool("v", false, "print per-stage details")
		timeout    = flag.Duration("timeout", 0, "abort the run after this duration (0 = no limit)")
		resilient  = flag.Bool("resilient", false, "with -method ours: run the fallback cascade (mmsim -> retuned -> pgs -> greedy)")
		workers    = flag.Int("workers", 0, "windows solved at once with -windows: 0 = all cores; every other solve runs on one goroutine (any value gives identical output)")
		serverURL  = flag.String("server", "", "submit the job to a running mclgd at this base URL instead of solving locally")
		retryN     = flag.Int("retry", 0, "with -server: retry a 429 (queue full / rate-limited) up to N times, honoring the daemon's Retry-After hint with jitter")
		jsonOut    = flag.Bool("json", false, "emit the machine-readable run report (mclgd schema) on stdout")
		auditRun   = flag.Bool("audit", false, "audit the result: re-run the pipeline independently, recompute optimality residuals, cross-check against a reference solve, and print the sealed certificate (exit 1 unless it passes)")
		windowsOn  = flag.Bool("windows", false, "fault-isolated windowed legalization: solve per-row-band windows under supervision (retry, hedging, degradation) and stitch deterministically (method ours only)")
		windowRows = flag.Int("window-rows", 0, "rows per window with -windows (0 = default 16)")
		hedge      = flag.Float64("hedge", 0, "straggler-hedging quantile in (0,1] with -windows: re-issue the slowest windows once this fraction has completed (0 = off)")
		exactK     = flag.Int("exact", 0, "with -windows: after stitch, re-solve the K worst-displacement windows with the branch-and-bound exact legalizer and report measured optimality gaps (0 = off)")
		ecoPath    = flag.String("eco", "", "apply an ECO delta stream (JSON file) to the legal base placement via dirty-window re-legalization, then certify by replay")
	)
	flag.Parse()
	if *jsonOut {
		info = os.Stderr
	}
	if *auditRun && (*method != "ours" || *resilient || *refineObj != "") {
		fatal(fmt.Errorf("-audit certifies the standard pipeline: method ours, without -resilient or -refine"))
	}
	if *windowsOn && (*method != "ours" || *resilient || *auditRun) {
		fatal(fmt.Errorf("-windows requires method ours, without -resilient or -audit"))
	}
	if !*windowsOn && *ecoPath == "" && *windowRows != 0 {
		fatal(fmt.Errorf("-window-rows requires -windows or -eco"))
	}
	if !*windowsOn && *hedge != 0 {
		fatal(fmt.Errorf("-hedge requires -windows"))
	}
	if !*windowsOn && *exactK != 0 {
		fatal(fmt.Errorf("-exact requires -windows"))
	}
	if *exactK < 0 {
		fatal(fmt.Errorf("-exact %d must be non-negative", *exactK))
	}
	if *ecoPath != "" && (*method != "ours" || *resilient || *auditRun || *windowsOn ||
		*refineObj != "" || *checkOnly || *runGP || *serverURL != "") {
		fatal(fmt.Errorf("-eco runs locally with method ours and no other pipeline flags"))
	}
	if *hedge < 0 || *hedge > 1 {
		fatal(fmt.Errorf("-hedge %g out of range [0, 1]", *hedge))
	}

	if *serverURL != "" {
		runRemote(*serverURL, *auxPath, *benchName, *scale, *method, *resilient, *auditRun,
			serve.OptionsJSON{
				Lambda: *lambda, Beta: *beta, Theta: *theta, Eps: *eps,
				AutoTheta: *autoTheta, BoundRight: *boundRight, Workers: *workers,
			}, *windowsOn, *windowRows, *hedge, *exactK,
			*timeout, *retryN, *outPath, *jsonOut, *runGP || *checkOnly || *refineObj != "")
		return
	}
	if *retryN != 0 {
		fatal(fmt.Errorf("-retry requires -server"))
	}

	// SIGINT/SIGTERM and -timeout cancel the same context; every solver
	// stage polls it and aborts with a typed mclgerr.ErrCanceled error.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	d, err := loadDesign(*auxPath, *benchName, *scale)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(info, "design %s: %d cells (%d multi-row), %d rows, density %.2f\n",
		d.Name, len(d.Cells), countMulti(d), len(d.Rows), d.Density())

	if *ecoPath != "" {
		runEco(ctx, d, *ecoPath,
			core.Options{Lambda: *lambda, Beta: *beta, Theta: *theta, Eps: *eps,
				AutoTheta: *autoTheta, Workers: *workers},
			*windowRows, *jsonOut, *outPath)
		return
	}

	if *runGP {
		res, err := gp.Place(d, gp.Options{})
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(info, "global placement: %d rounds, %d CG iterations, overflow %.3f\n",
			res.Iterations, res.CGIters, res.Overflow)
	}

	if *checkOnly {
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

	gpHPWL := metrics.HPWLGlobal(d)
	t0 := time.Now()
	var (
		stats       *core.Stats
		winStats    *window.Stats
		rung        string
		numAttempts int
	)
	oursOpts := core.Options{Lambda: *lambda, Beta: *beta, Theta: *theta, Eps: *eps,
		AutoTheta: *autoTheta, BoundRight: *boundRight, Workers: *workers}
	switch *method {
	case "ours":
		opts := oursOpts
		if *windowsOn {
			wst, err := window.Legalize(ctx, d, window.Options{
				Core:          opts,
				WindowRows:    *windowRows,
				HedgeQuantile: *hedge,
				ExactWindows:  *exactK,
			})
			if err != nil {
				fatal(err)
			}
			winStats = wst
			fmt.Fprintf(info, "  windows: %d solved of %d (retries %d, hedges won %d/%d, degraded %d)\n",
				wst.Solved, wst.Windows, wst.Retries, wst.HedgesWon, wst.HedgesIssued, wst.Degraded)
			if ex := wst.Exact; ex != nil {
				fmt.Fprintf(info, "  exact: %d refined (%d improved, %d proven optimal, %d skipped), max gap %.3g\n",
					ex.Selected, ex.Improved, ex.Proven, ex.Skipped, ex.MaxGap)
				if *verbose {
					for _, g := range ex.Gaps {
						fmt.Fprintf(info, "    window %d: %d cells gap=%.3g proven=%v improved=%v maxdisp %.0f -> %.0f\n",
							g.Window, g.Cells, g.Gap, g.Proven, g.Improved, g.MaxDispBefore, g.MaxDispAfter)
					}
				}
			}
		} else if *resilient {
			rs, err := core.NewResilient(opts).LegalizeContext(ctx, d)
			if err != nil {
				fatal(err)
			}
			stats, rung, numAttempts = &rs.Stats, string(rs.Rung), len(rs.Attempts)
			fmt.Fprintf(info, "  resilient: succeeded on rung %q after %d attempt(s)\n", rs.Rung, len(rs.Attempts))
			if *verbose {
				for _, a := range rs.Attempts {
					if a.Err != nil {
						fmt.Fprintf(info, "    %s failed in %v: %v\n", a.Rung, a.Elapsed, a.Err)
					} else {
						fmt.Fprintf(info, "    %s succeeded in %v\n", a.Rung, a.Elapsed)
					}
				}
			}
		} else {
			var err error
			stats, err = core.New(opts).LegalizeContext(ctx, d)
			if err != nil {
				fatal(err)
			}
		}
		if *verbose && stats != nil {
			fmt.Fprintf(info, "  vars=%d cons=%d iters=%d converged=%v\n",
				stats.NumVars, stats.NumCons, stats.Iterations, stats.Converged)
			if f := stats.Finish; f.Outcome != "" {
				fmt.Fprintf(info, "  active-set finish: %s after %d rounds, %d PCG iterations\n",
					f.Outcome, f.Rounds, f.PCG)
			}
			fmt.Fprintf(info, "  subcell mismatch=%.4g illegal=%d unplaced=%d\n",
				stats.MaxSubcellMismatch, stats.Illegal, stats.Unplaced)
			fmt.Fprintf(info, "  build=%v solve=%v tetris=%v\n",
				stats.BuildTime, stats.SolveTime, stats.TetrisTime)
		}
	default:
		if err := baselines.Legalize(ctx, *method, d); err != nil {
			fatal(err)
		}
	}
	if *refineObj != "" {
		obj := refine.Displacement
		if *refineObj == "hpwl" {
			obj = refine.HPWL
		} else if *refineObj != "disp" {
			fatal(fmt.Errorf("unknown refine objective %q", *refineObj))
		}
		res, err := refine.RefineContext(ctx, d, refine.Options{Objective: obj})
		if err != nil {
			fatal(err)
		}
		if *verbose {
			fmt.Fprintf(info, "  refine: %d slides, %d swaps, objective %.4g -> %.4g\n",
				res.Slides, res.Swaps, res.Initial, res.Final)
		}
	}
	elapsed := time.Since(t0)

	rep := report.FromDesign(d, *method, elapsed)
	rep.Rung, rep.Attempts = rung, numAttempts
	rep.Windows = winStats
	if stats != nil {
		rep.SetStats(stats)
	}

	fmt.Fprintf(info, "method=%s runtime=%v\n", *method, elapsed)
	fmt.Fprintf(info, "total displacement: %.0f sites (max %.0f, avg %.2f)\n",
		rep.DisplacementSites, rep.MaxDispSites, rep.AvgDispSites)
	if gpHPWL > 0 {
		fmt.Fprintf(info, "HPWL: %.4g -> %.4g (ΔHPWL %.2f%%)\n",
			gpHPWL, rep.HPWL, 100*rep.DeltaHPWL)
	}
	fmt.Fprintf(info, "legality: %s\n", legality(d, rep.Legal))

	// Audit-on-demand: the auditor re-runs the pipeline from the global
	// placement on its own clones, so the certificate is an independent
	// verdict on the result just printed — its PosHash must reproduce it.
	if *auditRun {
		cert, err := audit.Run(ctx, d, audit.Options{Core: oursOpts})
		if err != nil {
			fatal(err)
		}
		rep.Certificate = cert
		fmt.Fprintf(info, "%s\n", cert.Summary())
		if cert.PosHash != rep.PosHash {
			fmt.Fprintf(info, "audit: re-run placement %s does not reproduce this run's %s\n",
				cert.PosHash, rep.PosHash)
		}
	}

	if *jsonOut {
		printJSON(rep)
	}

	if *outPath != "" {
		writeLegalized(d, *outPath)
	}
	if !rep.Legal {
		os.Exit(1)
	}
	if c := rep.Certificate; c != nil && (!c.Pass || c.PosHash != rep.PosHash) {
		os.Exit(1)
	}
}

// runRemote is the -server flow: submit, report, optionally write the
// returned placement back as Bookshelf.
func runRemote(serverURL, auxPath, bench string, scale float64, method string, resilient, auditRun bool,
	opts serve.OptionsJSON, windows bool, windowRows int, hedge float64, exactK int,
	timeout time.Duration, retries int, outPath string, jsonOut, localOnlyFlags bool) {
	if localOnlyFlags {
		fatal(fmt.Errorf("-gp, -check and -refine run locally and cannot be combined with -server"))
	}
	if retries < 0 {
		fatal(fmt.Errorf("-retry %d must be non-negative", retries))
	}
	req, err := remoteRequest(auxPath, bench, scale, method, resilient, auditRun, opts, timeout, outPath != "")
	if err == nil && windows {
		req.Windows, req.WindowRows, req.Hedge, req.Exact = true, windowRows, hedge, exactK
	}
	if err != nil {
		fatal(err)
	}
	rep, err := submitRemote(serverURL, req, timeout, retries)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(info, "design %s: %d cells (%d multi-row) [served by %s, cache %s]\n",
		rep.Design, rep.Cells, rep.MultiRowCells, serverURL, rep.Cache)
	fmt.Fprintf(info, "method=%s runtime=%.0fms\n", rep.Method, rep.WallMS)
	fmt.Fprintf(info, "total displacement: %.0f sites (max %.0f, avg %.2f)\n",
		rep.DisplacementSites, rep.MaxDispSites, rep.AvgDispSites)
	fmt.Fprintf(info, "HPWL: %.4g (ΔHPWL %.2f%%)\n", rep.HPWL, 100*rep.DeltaHPWL)
	legality := "illegal"
	if rep.Legal {
		legality = "legal"
	}
	fmt.Fprintf(info, "legality: %s\n", legality)
	if ws := rep.Windows; ws != nil {
		fmt.Fprintf(info, "windows: %d solved + %d resumed of %d (retries %d, hedges won %d/%d, degraded %d)\n",
			ws.Solved, ws.Resumed, ws.Windows, ws.Retries, ws.HedgesWon, ws.HedgesIssued, ws.Degraded)
		if ex := ws.Exact; ex != nil {
			fmt.Fprintf(info, "exact: %d refined (%d improved, %d proven optimal, %d skipped), max gap %.3g\n",
				ex.Selected, ex.Improved, ex.Proven, ex.Skipped, ex.MaxGap)
		}
	}
	if rep.Certificate != nil {
		fmt.Fprintf(info, "%s\n", rep.Certificate.Summary())
	}
	if jsonOut {
		printJSON(rep)
	}
	if outPath != "" {
		d, err := loadDesign(auxPath, bench, scale)
		if err != nil {
			fatal(err)
		}
		if !rep.ApplyPlacement(d) {
			fatal(fmt.Errorf("server response carries no usable placement for %d cells", len(d.Cells)))
		}
		writeLegalized(d, outPath)
	}
	if !rep.Legal {
		os.Exit(1)
	}
	if c := rep.Certificate; c != nil && (!c.Pass || c.PosHash != rep.PosHash) {
		os.Exit(1)
	}
}

func printJSON(rep *report.Report) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
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
		return nil, fmt.Errorf("one of -aux or -bench is required")
	}
}

// legality is the checker's one-line summary of d, whose verdict a report
// already holds: the full report is built only to count an illegal
// placement's violations.
func legality(d *design.Design, legal bool) string {
	if legal {
		return "legal"
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
