package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"time"

	"mclg/internal/audit"
	"mclg/internal/baselines"
	"mclg/internal/bookshelf"
	"mclg/internal/core"
	"mclg/internal/design"
	"mclg/internal/gen"
	"mclg/internal/mclgerr"
	"mclg/internal/recycle"
	"mclg/internal/serve/report"
	"mclg/internal/window"
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
	// ReadRequest leaves a body's files in the body buffer instead, and
	// Files nil (see Release).
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

	// texts holds the files object of a body that ReadRequest decoded, in
	// place of Files: each text a view of body, the pooled buffer the
	// request holds until Release.
	texts map[string][]byte
	body  *[]byte
}

// components lists the upload component names in the sorted order the
// cache keys hash them in.
var components = [...]string{"nets", "nodes", "pl", "scl", "wts"}

// files returns the request's upload: the views that ReadRequest decoded,
// or else a copy of Files, which only a Request built in code carries.
func (r *Request) files() map[string][]byte {
	if r.texts != nil || r.Files == nil {
		return r.texts
	}
	m := make(map[string][]byte, len(r.Files))
	for k, text := range r.Files {
		m[k] = []byte(text)
	}
	return m
}

// upload returns the number of components in the request's upload, the
// views or else Files, and checkUpload's verdict on them, without copying.
func (r *Request) upload() (int, error) {
	if r.texts != nil {
		return len(r.texts), checkUpload(r.texts)
	}
	return len(r.Files), checkUpload(r.Files)
}

// checkUpload refuses an upload that misses a required component or names
// an unknown one.
func checkUpload[T string | []byte](files map[string]T) error {
	for _, req := range []string{"nodes", "pl", "scl"} {
		if len(files[req]) == 0 {
			return mclgerr.Invalidf("serve: files upload missing %q component", req)
		}
	}
	for k := range files {
		switch k {
		case "nodes", "nets", "pl", "scl", "wts":
		default:
			return mclgerr.Invalidf("serve: unknown files component %q", k)
		}
	}
	return nil
}

// priority resolves the admission tier, defaulting to batch.
func (r *Request) priority() string {
	if r.Priority == "" {
		return "batch"
	}
	return r.Priority
}

// Validate applies the job-setting rules that mclg and mclgd share: it
// defaults Method to "ours" and rejects an unknown method or a combination
// of method, resilient, audit and window settings that no legalizer runs,
// with ErrInvalidInput-matching errors.
func (r *Request) Validate() error {
	if r.Method == "" {
		r.Method = "ours"
	}
	if r.Method != "ours" {
		if err := baselines.Check(r.Method); err != nil {
			return err
		}
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
	return nil
}

// validate is Validate plus the daemon's own rules on the design source,
// scale, priority and timeout.
func (r *Request) validate() error {
	if err := r.Validate(); err != nil {
		return err
	}
	switch r.Priority {
	case "", "batch", "interactive":
	default:
		return mclgerr.Invalidf("serve: priority %q must be \"batch\" or \"interactive\"", r.Priority)
	}
	uploaded, uerr := r.upload()
	switch {
	case r.Bench != "" && uploaded > 0:
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
	case uploaded > 0:
		if uerr != nil {
			return uerr
		}
	default:
		return mclgerr.Invalidf("serve: request needs bench or files")
	}
	if r.TimeoutMS < 0 {
		return mclgerr.Invalidf("serve: timeout_ms %d must be non-negative", r.TimeoutMS)
	}
	return nil
}

// CoreOptions resolves the wire options against the paper defaults.
func (r *Request) CoreOptions() core.Options {
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
	o := r.CoreOptions()
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
	files := r.files()
	for _, k := range components {
		if text, ok := files[k]; ok {
			fmt.Fprintf(h, "file:%s=%x|", k, sha256.Sum256(text))
		}
	}
}

// stores recycles the storage /v1/legalize jobs parse their uploads into.
var stores recycle.Pool[bookshelf.Store]

// maxStoredUpload bounds the uploads that loadDesign parses into the store
// it is given. A store keeps what its largest parse built, about 26 bytes
// per byte of nodes text, so a larger upload parses into storage of its
// own, which is freed with its design. 1 MiB of texts is four times
// serve-mix's largest upload.
const maxStoredUpload = 1 << 20

// loadDesign materializes the job's design. Uploaded Bookshelf components
// are parsed in memory, from the body's views for a decoded request, into
// s, where the design lives until s is read into again; an upload over
// maxStoredUpload bytes and a bench design, which is generated, leave s
// alone. Every error traces back to the request and matches
// ErrInvalidInput.
func (r *Request) loadDesign(s *bookshelf.Store) (*design.Design, error) {
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
	files := r.files()
	texts := bookshelf.Texts{
		Nodes: files["nodes"], Nets: files["nets"], Pl: files["pl"],
		Scl: files["scl"], Wts: files["wts"],
	}
	if len(texts.Nodes)+len(texts.Nets)+len(texts.Pl)+len(texts.Scl)+len(texts.Wts) > maxStoredUpload {
		s = new(bookshelf.Store)
	}
	return bookshelf.ReadTextsIn(s, texts, "upload")
}

// Solve runs the job's legalizer on d and returns the report. The context
// carries the job deadline; every solver stage polls it. A windowed job
// solves through legalizeWindows (window.Legalize, or the daemon's form of
// it that names a journal and may dispatch the windows). A placement the
// checker rejects returns the report with an ErrUnplacedCells stage error.
func (r *Request) Solve(ctx context.Context, d *design.Design,
	legalizeWindows func(context.Context, *design.Design, window.Options) (*window.Stats, error)) (*report.Report, error) {
	t0 := time.Now()
	var (
		stats   *core.Stats
		rs      *core.ResilientStats
		windows *window.Stats
		err     error
	)
	opts := r.CoreOptions()
	switch {
	case r.Method != "ours":
		err = baselines.Legalize(ctx, r.Method, d)
	case r.Windows:
		windows, err = legalizeWindows(ctx, d, window.Options{
			Core: opts, WindowRows: r.WindowRows, HedgeQuantile: r.Hedge, ExactWindows: r.Exact,
		})
	case r.Resilient:
		if rs, err = core.NewResilient(opts).LegalizeContext(ctx, d); err == nil {
			stats = &rs.Stats
		}
	default:
		stats, err = core.New(opts).LegalizeContext(ctx, d)
	}
	if err != nil {
		return nil, err
	}
	rep := report.FromDesign(d, r.Method, time.Since(t0))
	rep.Windows = windows
	if rs != nil {
		rep.Rung, rep.Attempts = string(rs.Rung), len(rs.Attempts)
	}
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
	return rep, nil
}

// Certify audits a solved job and attaches the sealed certificate to rep:
// the auditor re-runs the pipeline from the design's global positions (d's
// solved state is not trusted or reused), and the certificate's PosHash must
// reproduce rep's. A mismatch means the determinism contract broke; it
// returns an "audit" stage error, as an audit that cannot run does.
func (r *Request) Certify(ctx context.Context, d *design.Design, rep *report.Report) error {
	cert, err := audit.Run(ctx, d, audit.Options{Core: r.CoreOptions()})
	if err != nil {
		return mclgerr.Stage("audit", err)
	}
	if cert.PosHash != rep.PosHash {
		return &mclgerr.StageError{
			Stage:  "audit",
			Err:    mclgerr.ErrUnplacedCells,
			Detail: fmt.Sprintf("audit re-run placement %s does not reproduce served placement %s", cert.PosHash, rep.PosHash),
		}
	}
	rep.Certificate = cert
	return nil
}
