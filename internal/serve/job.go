package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"slices"
	"time"

	"mclg/internal/audit"
	"mclg/internal/baselines"
	"mclg/internal/bookshelf"
	"mclg/internal/core"
	"mclg/internal/design"
	"mclg/internal/gen"
	"mclg/internal/mclgerr"
	"mclg/internal/serve/report"
)

// OptionsJSON is the wire form of the solver knobs a job may override.
// Zero/omitted fields take the paper defaults (core.DefaultOptions), exactly
// as the CLI flags do, so `{}` and a fully spelled-out default request hash
// to the same cache key.
type OptionsJSON struct {
	Lambda     float64 `json:"lambda,omitempty"`
	Beta       float64 `json:"beta,omitempty"`
	Theta      float64 `json:"theta,omitempty"`
	Eps        float64 `json:"eps,omitempty"`
	MaxIter    int     `json:"max_iter,omitempty"`
	AutoTheta  bool    `json:"autotheta,omitempty"`
	BoundRight bool    `json:"boundright,omitempty"`
	// Workers bounds how many windows a windowed job solves at once, with
	// core.Options.Workers' meaning (0, omitted, uses every core); every
	// other solve runs on one goroutine. It deliberately does NOT enter the
	// cache key: any worker count yields the same placement.
	Workers int `json:"workers,omitempty"`
}

// Request is one legalization job. The design comes either from the named
// synthetic suite benchmark (Bench + Scale) or from inline Bookshelf
// component files (Files, keyed "nodes", "nets", "pl", "scl", "wts").
type Request struct {
	Bench string  `json:"bench,omitempty"`
	Scale float64 `json:"scale,omitempty"`
	// Files maps Bookshelf component extensions to file contents. "nodes",
	// "pl" and "scl" are required when used; "nets" and "wts" are optional.
	Files map[string]string `json:"files,omitempty"`

	Method    string       `json:"method,omitempty"` // ours | dac16 | dac16imp | aspdac17 (default ours)
	Resilient bool         `json:"resilient,omitempty"`
	Options   *OptionsJSON `json:"options,omitempty"`

	// TimeoutMS bounds the job's total time in the daemon, queue wait
	// included; 0 takes the server default. The deadline feeds the solver's
	// context-cancellation paths, so an expired job aborts mid-iteration
	// with a typed canceled error.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`

	// IncludePlacement asks for the full per-cell placement in the
	// response (the pos_hash digest is always included).
	IncludePlacement bool `json:"placement,omitempty"`

	// Audit asks for audit-on-commit: after the solve, the auditor re-runs
	// the pipeline independently, recomputes the optimality residuals,
	// cross-checks the relaxed solution against a reference solve, and the
	// response carries the sealed certificate. Requires method "ours"
	// without resilient (the certificate covers the standard pipeline).
	Audit bool `json:"audit,omitempty"`

	// Windows asks for fault-isolated windowed legalization: the design is
	// partitioned into row bands solved independently under supervision
	// (retry, hedging, degradation) and stitched deterministically. Requires
	// method "ours" without resilient or audit.
	Windows bool `json:"windows,omitempty"`
	// WindowRows overrides the rows per window; 0 takes the server default.
	// Result-affecting (it changes the partition), so it enters the cache
	// key after resolution.
	WindowRows int `json:"window_rows,omitempty"`
	// Exact asks for the exact refinement post-pass on a windowed job: after
	// stitch, the Exact windows with the worst committed displacement are
	// re-solved with the branch-and-bound legalizer and their measured
	// optimality gaps are reported. Result-affecting (verified improvements
	// commit), so it enters the cache key; 0 disables the pass.
	Exact int `json:"exact,omitempty"`
	// Hedge sets the straggler-hedging quantile in (0,1]; 0 takes the
	// server default. Like Workers it is result-neutral — hedged and
	// primary solves compute identical placements — so it does NOT enter
	// the cache key.
	Hedge float64 `json:"hedge,omitempty"`

	// Tenant names the submitting tenant for admission-queue rate limiting;
	// empty is the anonymous tenant. Priority picks the admission tier:
	// "interactive" may drain the tenant's token bucket, "batch" (the
	// default) must leave the interactive reserve standing. Both are
	// result-neutral — they decide *whether* a job is admitted, never what
	// it computes — so neither enters the cache key.
	Tenant   string `json:"tenant,omitempty"`
	Priority string `json:"priority,omitempty"`
}

// components lists the upload component names in the sorted order the
// cache keys hash them in.
var components = [...]string{"nets", "nodes", "pl", "scl", "wts"}

// priority resolves the admission tier, defaulting to batch.
func (r *Request) priority() string {
	if r.Priority == "" {
		return "batch"
	}
	return r.Priority
}

// validate normalizes defaults in place and rejects malformed requests with
// ErrInvalidInput-matching errors.
func (r *Request) validate() error {
	if r.Method == "" {
		r.Method = "ours"
	}
	if r.Method != "ours" && !slices.Contains(baselines.Methods, r.Method) {
		return mclgerr.Invalidf("serve: unknown method %q", r.Method)
	}
	if r.Resilient && r.Method != "ours" {
		return mclgerr.Invalidf("serve: resilient mode requires method \"ours\"")
	}
	if r.Audit && (r.Method != "ours" || r.Resilient) {
		return mclgerr.Invalidf("serve: audit certifies the standard pipeline; it requires method \"ours\" without resilient")
	}
	if r.Windows && (r.Method != "ours" || r.Resilient || r.Audit) {
		return mclgerr.Invalidf("serve: windowed mode requires method \"ours\" without resilient or audit")
	}
	if !r.Windows && (r.WindowRows != 0 || r.Hedge != 0 || r.Exact != 0) {
		return mclgerr.Invalidf("serve: window_rows, hedge and exact require \"windows\": true")
	}
	if r.WindowRows < 0 {
		return mclgerr.Invalidf("serve: window_rows %d must be non-negative", r.WindowRows)
	}
	if r.Exact < 0 {
		return mclgerr.Invalidf("serve: exact %d must be non-negative", r.Exact)
	}
	if r.Hedge < 0 || r.Hedge > 1 {
		return mclgerr.Invalidf("serve: hedge %g out of range [0, 1]", r.Hedge)
	}
	switch r.Priority {
	case "", "batch", "interactive":
	default:
		return mclgerr.Invalidf("serve: priority %q must be \"batch\" or \"interactive\"", r.Priority)
	}
	switch {
	case r.Bench != "" && len(r.Files) > 0:
		return mclgerr.Invalidf("serve: request has both bench and files; pick one")
	case r.Bench != "":
		if _, err := gen.FindEntry(r.Bench); err != nil {
			return mclgerr.Invalid(err)
		}
		if r.Scale == 0 {
			r.Scale = 0.01
		}
		if r.Scale < 0 || r.Scale > 2 {
			return mclgerr.Invalidf("serve: scale %g out of range (0, 2]", r.Scale)
		}
	case len(r.Files) > 0:
		for _, req := range []string{"nodes", "pl", "scl"} {
			if r.Files[req] == "" {
				return mclgerr.Invalidf("serve: files upload missing %q component", req)
			}
		}
		for k := range r.Files {
			switch k {
			case "nodes", "nets", "pl", "scl", "wts":
			default:
				return mclgerr.Invalidf("serve: unknown files component %q", k)
			}
		}
	default:
		return mclgerr.Invalidf("serve: request needs bench or files")
	}
	if r.TimeoutMS < 0 {
		return mclgerr.Invalidf("serve: timeout_ms %d must be non-negative", r.TimeoutMS)
	}
	return nil
}

// coreOptions resolves the wire options against the paper defaults.
func (r *Request) coreOptions() core.Options {
	o := core.Options{}
	if j := r.Options; j != nil {
		o.Lambda, o.Beta, o.Theta, o.Eps = j.Lambda, j.Beta, j.Theta, j.Eps
		o.MaxIter, o.AutoTheta, o.BoundRight, o.Workers = j.MaxIter, j.AutoTheta, j.BoundRight, j.Workers
	}
	return core.New(o).Opts
}

// key derives the content-addressed cache key: a SHA-256 over the design
// source (benchmark identity or uploaded file bytes) and every
// result-affecting option, resolved to post-default values. Workers is
// excluded — the determinism contract makes it result-neutral — so a sweep
// that varies only parallelism always hits.
//
// The hashed text keeps the literal "autotune=false" of the removed θ*
// auto-tuner option: window journals are stored on disk as <key>.wal, so
// the key must not change under a resumable job.
func (r *Request) key() string {
	h := sha256.New()
	o := r.coreOptions()
	fmt.Fprintf(h, "method=%s|resilient=%v|audit=%v|windows=%v|window_rows=%d|exact=%d|",
		r.Method, r.Resilient, r.Audit, r.Windows, r.WindowRows, r.Exact)
	fmt.Fprintf(h, "lambda=%g|beta=%g|theta=%g|gamma=%g|eps=%g|maxiter=%d|restol=%g|autotheta=%v|autotune=false|boundright=%v|",
		o.Lambda, o.Beta, o.Theta, o.Gamma, o.Eps, o.MaxIter, o.ResidualTol, o.AutoTheta, o.BoundRight)
	if r.Bench != "" {
		fmt.Fprintf(h, "bench=%s@%g", r.Bench, r.Scale)
	} else {
		r.hashFiles(h)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// hashFiles writes "file:<component>=<sha256 hex>|" into h for each
// uploaded component, in components order.
func (r *Request) hashFiles(h io.Writer) {
	for _, k := range components {
		if text, ok := r.Files[k]; ok {
			fmt.Fprintf(h, "file:%s=%x|", k, sumString(text))
		}
	}
}

// sumString is sha256.Sum256 of s, fed through a small stack buffer
// instead of a []byte copy of the whole text.
func sumString(s string) (sum [sha256.Size]byte) {
	h := sha256.New()
	var buf [4096]byte
	for len(s) > 0 {
		n := copy(buf[:], s)
		h.Write(buf[:n])
		s = s[n:]
	}
	h.Sum(sum[:0])
	return sum
}

// loadDesign materializes the job's design. Uploaded Bookshelf components
// are parsed in memory. Every error traces back to the request and matches
// ErrInvalidInput.
func (r *Request) loadDesign() (*design.Design, error) {
	if r.Bench != "" {
		e, err := gen.FindEntry(r.Bench)
		if err != nil {
			return nil, mclgerr.Invalid(err)
		}
		// The generator refuses only the instances a request's scale picks.
		d, err := gen.Generate(gen.SuiteSpec(e, r.Scale))
		if err != nil {
			return nil, mclgerr.Invalid(err)
		}
		return d, nil
	}
	return bookshelf.ReadTexts(bookshelf.Texts{
		Nodes: r.Files["nodes"], Nets: r.Files["nets"], Pl: r.Files["pl"],
		Scl: r.Files["scl"], Wts: r.Files["wts"],
	}, "upload")
}

// solve runs the requested legalizer on d and returns the report. The
// context carries the job deadline; every solver stage polls it.
func (r *Request) solve(ctx context.Context, d *design.Design) (*report.Report, error) {
	t0 := time.Now()
	var (
		stats    *core.Stats
		rung     string
		attempts int
	)
	switch r.Method {
	case "ours":
		opts := r.coreOptions()
		if r.Resilient {
			rs, err := core.NewResilient(core.ResilientOptions{Base: opts}).LegalizeContext(ctx, d)
			if err != nil {
				return nil, err
			}
			stats, rung, attempts = &rs.Stats, string(rs.Rung), len(rs.Attempts)
		} else {
			st, err := core.New(opts).LegalizeContext(ctx, d)
			if err != nil {
				return nil, err
			}
			stats = st
		}
	default:
		if err := baselines.Legalize(ctx, r.Method, d); err != nil {
			return nil, err
		}
	}
	rep := report.FromDesign(d, r.Method, time.Since(t0))
	rep.Rung, rep.Attempts = rung, attempts
	if stats != nil {
		rep.SetStats(stats)
	}
	if !rep.Legal {
		return rep, &mclgerr.StageError{
			Stage:  r.Method,
			Err:    mclgerr.ErrUnplacedCells,
			Detail: "solver returned but the placement failed the legality checker",
		}
	}
	rep.CapturePlacement(d)
	return rep, nil
}

// runAudit certifies a solved job: the auditor re-runs the pipeline from the
// design's global positions (d's solved state is not trusted or reused) and
// the returned certificate's PosHash must reproduce the served placement —
// a mismatch means the determinism contract broke and fails the job.
func (r *Request) runAudit(ctx context.Context, d *design.Design, rep *report.Report) (*audit.Certificate, error) {
	cert, err := audit.Run(ctx, d, audit.Options{Core: r.coreOptions()})
	if err != nil {
		return nil, mclgerr.Stage("audit", err)
	}
	if cert.PosHash != rep.PosHash {
		return nil, &mclgerr.StageError{
			Stage:  "audit",
			Err:    mclgerr.ErrUnplacedCells,
			Detail: fmt.Sprintf("audit re-run placement %s does not reproduce served placement %s", cert.PosHash, rep.PosHash),
		}
	}
	return cert, nil
}
