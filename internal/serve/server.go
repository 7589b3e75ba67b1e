// Package serve turns the one-shot legalizer into a resident batching
// service: admission control over a bounded wait for one of Workers solve
// slots, the existing context-aware solvers run on each request's own
// goroutine, a content-addressed result cache with in-flight deduplication,
// and a Prometheus-text observability surface.
//
// Request lifecycle:
//
//	POST /v1/legalize ── validate ── cache lookup ──(hit)── 200 {cache:"hit"}
//	        │                            │
//	        │                       (in-flight join) ── wait ── 200 {cache:"hit"}
//	        │                            │
//	        │                        (leader) ── admit ──(queue full)── 429 + Retry-After
//	        │                            │
//	        │                     wait for a slot ──(deadline)── 504 canceled
//	        │                            │
//	        └── parse → solve → verify legal → cache store ── 200 {cache:"miss"}
//
// Failures map onto the mclgerr taxonomy: invalid input → 400, deadline /
// cancellation → 504, queue saturation → 429, draining → 503, every other
// solver failure → 422 with the error class in the body.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand/v2"
	"net/http"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"sync"
	"time"

	"mclg/internal/design"
	"mclg/internal/mclgerr"
	"mclg/internal/serve/report"
	"mclg/internal/window"
)

// Config parameterizes the daemon. The zero value is usable: 2 solve
// slots, queue capacity 8, 128 cached results, 2-minute job cap.
type Config struct {
	// Workers is the number of solve slots: how many jobs run concurrently.
	Workers int
	// QueueCap bounds the jobs admitted but still waiting for a slot;
	// admission past it is refused with 429.
	QueueCap int
	// CacheCap bounds the result cache (entries); 0 means 128, negative
	// disables caching (dedup of concurrent identical jobs still works).
	CacheCap int
	// DefaultJobTimeout applies when a request has no timeout_ms;
	// MaxJobTimeout caps whatever the request asks for.
	DefaultJobTimeout time.Duration
	MaxJobTimeout     time.Duration
	// MaxBodyBytes bounds an upload body; 0 means 64 MiB.
	MaxBodyBytes int64
	// AuditAll turns on audit-on-commit for every eligible job (method
	// "ours", non-resilient), as if each request had set "audit": true.
	// Ineligible jobs run unaudited rather than being refused.
	AuditAll bool
	// WindowsAll turns on fault-isolated windowed legalization for every
	// eligible job (method "ours", non-resilient, non-audit), as if each
	// request had set "windows": true. Ineligible jobs run unwindowed.
	WindowsAll bool
	// WindowRows is the server default rows-per-window for windowed jobs
	// whose request leaves window_rows unset; 0 means window.DefaultWindowRows.
	WindowRows int
	// HedgeQuantile is the server default straggler-hedging quantile for
	// windowed jobs whose request leaves hedge unset; 0 disables hedging.
	HedgeQuantile float64
	// ExactWindows is the server default exact-refinement window count for
	// windowed jobs whose request leaves exact unset; 0 disables the
	// post-pass by default (requests can still opt in per job).
	ExactWindows int
	// JournalDir, when non-empty, names an existing directory for the
	// per-job write-ahead window journal: each windowed job journals to
	// JournalDir/<job-key>.wal (window.Options.JournalPath), so a restarted
	// daemon replays its completed windows instead of re-solving them.
	JournalDir string
	// ECODir, when non-empty, names an existing directory that makes
	// /v1/eco sessions durable: each session appends its delta log
	// write-ahead to ECODir/<id>.ecolog, and a restarted daemon rebuilds
	// every live session by replaying its log from the base design stored in
	// the log header. Empty means sessions are memory-only and die with the
	// process.
	ECODir string
	// ECOSessionCap bounds concurrently open /v1/eco sessions; 0 means 8.
	ECOSessionCap int
	// Dispatcher, when non-nil, replaces the in-process windowed solve: a
	// coordinator daemon sets it to shard window jobs across worker daemons
	// (internal/cluster). Non-windowed jobs still solve locally.
	Dispatcher WindowDispatcher
	// Gate, when non-nil, applies per-tenant rate limits with priority
	// tiers ahead of the job queue; a refusal surfaces as 429 with the
	// gate's Retry-After hint.
	Gate AdmissionGate
	// ExtraMetrics, when non-nil, appends additional series (e.g. the
	// cluster registry) to the /metrics exposition.
	ExtraMetrics func(w io.Writer)
	// Logger receives structured per-job logs; nil discards them.
	Logger *slog.Logger
}

// WindowDispatcher routes a windowed job's per-window solves — the cluster
// coordinator implements it over worker daemons. The implementation must
// uphold the determinism contract: the committed placement is bit-identical
// to the local window.Legalize for the same design and options.
type WindowDispatcher interface {
	DispatchWindows(ctx context.Context, d *design.Design, opts window.Options) (*window.Stats, error)
}

// AdmissionGate decides whether a tenant's job may enter the queue at the
// given priority ("interactive" | "batch"). A refusal returns how long the
// tenant should wait, surfaced as Retry-After on the 429.
type AdmissionGate interface {
	Admit(tenant, priority string) (ok bool, retryAfter time.Duration)
}

// rateLimitedError carries a gate refusal's retry hint to the HTTP mapping.
type rateLimitedError struct {
	tenant string
	after  time.Duration
}

func (e *rateLimitedError) Error() string {
	return fmt.Sprintf("serve: tenant %q rate limit exceeded", e.tenant)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 8
	}
	if c.CacheCap == 0 {
		c.CacheCap = 128
	}
	if c.DefaultJobTimeout <= 0 {
		c.DefaultJobTimeout = 60 * time.Second
	}
	if c.MaxJobTimeout <= 0 {
		c.MaxJobTimeout = 2 * time.Minute
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.WindowRows <= 0 {
		c.WindowRows = window.DefaultWindowRows
	}
	if c.ECOSessionCap <= 0 {
		c.ECOSessionCap = 8
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}

// Server is the batching legalization service. Create with New, mount
// Handler on an http.Server, and call Drain on shutdown.
type Server struct {
	cfg   Config
	cache *resultCache
	eco   *ecoRegistry
	stats *serverStats
	log   *slog.Logger

	// slots holds one token per running solve; a job waits to send one in
	// arrival order, and gives up when its context ends.
	slots chan struct{}

	// baseCtx parents every job context so Drain's hard stop can cancel
	// waiting and running jobs through the usual cancellation paths.
	baseCtx  context.Context
	baseStop context.CancelFunc

	mu       sync.Mutex // guards draining, jobSeq and admission vs. Drain's wait
	draining bool
	jobsWG   sync.WaitGroup // admitted jobs not yet terminal

	jobSeq uint64
	start  time.Time
}

// New builds a server ready to mount; it starts no goroutine.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, stop := context.WithCancel(context.Background())
	cache := newResultCache(cfg.CacheCap)
	s := &Server{
		cfg:      cfg,
		cache:    cache,
		eco:      newEcoRegistry(cfg.ECOSessionCap, cfg.ECODir),
		stats:    newServerStats(cache),
		log:      cfg.Logger,
		slots:    make(chan struct{}, cfg.Workers),
		baseCtx:  ctx,
		baseStop: stop,
		start:    time.Now(),
	}
	if cfg.ECODir != "" {
		s.recoverSessions()
	}
	return s
}

// Handler returns the service's HTTP surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/legalize", s.handleLegalize)
	mux.HandleFunc("POST /v1/eco", s.handleECO)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// Drain gracefully stops the server: admission is closed immediately
// (readyz flips to 503, new jobs get 503), queued and in-flight jobs run to
// completion, and if ctx expires first the remaining jobs are canceled
// through their contexts — they then terminate with typed canceled errors
// rather than being abandoned, so no waiter hangs and no partial result is
// cached. Drain returns nil on a clean drain and ctx.Err() on a hard stop.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true // admit checks it under mu, so jobsWG grows no more
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.jobsWG.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.baseStop() // hard stop: cancel waiting and running jobs
		<-done       // each still returns its canceled result to its handler
	}
	s.baseStop()
	return err
}

// runJob runs one admitted job on the calling goroutine; slot is what admit
// returned. A job admitted without a slot counts in the queue-depth gauge
// until it takes one; if ctx ends first, it returns the typed canceled
// error without a slot, so a job's deadline covers its queue wait. The job
// counts in the in-flight gauge only while it holds a slot.
func (s *Server) runJob(ctx context.Context, id uint64, slot bool, key string, req *Request) (rep *report.Report, err error) {
	defer s.jobsWG.Done()
	queuedAt := time.Now()
	if !slot {
		select {
		case s.slots <- struct{}{}:
			slot = true
		case <-ctx.Done():
		}
		s.stats.queueDepth.Add(-1)
	}
	if slot {
		s.stats.inflight.Add(1)
		// The gauge settles before the handler answers, so a client that
		// scrapes /metrics right after its response reads the job as
		// finished.
		defer func() {
			s.stats.inflight.Add(-1)
			<-s.slots
		}()
	}
	queueWait := time.Since(queuedAt)
	t0 := time.Now()

	err = mclgerr.FromContext(ctx)
	var parseDur, solveDur, auditDur time.Duration
	if err == nil {
		tp := time.Now()
		d, derr := req.loadDesign()
		req.Release() // the design holds copies of all it read from the upload
		parseDur = time.Since(tp)
		s.stats.stages.With("parse").Observe(parseDur.Seconds())
		if derr != nil {
			err = derr
		} else {
			ts := time.Now()
			samples := mallocSamples()
			m0 := mallocs(samples)
			rep, err = req.Solve(ctx, d, func(ctx context.Context, d *design.Design, o window.Options) (*window.Stats, error) {
				// The journal is named by the job's cache key, and its
				// header signs the plan, so a resubmitted job resumes it.
				if s.cfg.JournalDir != "" {
					o.JournalPath = filepath.Join(s.cfg.JournalDir, key+".wal")
				}
				if s.cfg.Dispatcher != nil {
					return s.cfg.Dispatcher.DispatchWindows(ctx, d, o)
				}
				return window.Legalize(ctx, d, o)
			})
			if rep != nil && rep.Windows != nil {
				s.stats.windowDone(rep.Windows)
			}
			if err == nil {
				rep.CapturePlacement(d) // cached for any later request that asks for it
			}
			m1 := mallocs(samples)
			solveDur = time.Since(ts)
			s.stats.stages.With("solve").Observe(solveDur.Seconds())
			// Allocation accounting is process-wide (Mallocs is a global
			// counter), so with overlapping jobs the per-solve attribution
			// is approximate; at steady state it trends to the true
			// allocs/solve and a regression shows up as a trend break.
			s.stats.solveAllocs.Add(m1 - m0)
			s.stats.solveSamples.Inc()
			// Audit-on-commit: certify the solved result before it is
			// published or cached. An audit error (including a placement
			// the audit re-run cannot reproduce) fails the job; a sealed
			// certificate that merely fails its checks is returned to the
			// caller with pass=false and counted.
			doAudit := req.Audit ||
				(s.cfg.AuditAll && req.Method == "ours" && !req.Resilient && !req.Windows)
			if err == nil && doAudit {
				ta := time.Now()
				err = req.Certify(ctx, d, rep)
				auditDur = time.Since(ta)
				s.stats.stages.With("audit").Observe(auditDur.Seconds())
				switch {
				case err != nil:
					s.stats.audits.With("error").Inc()
				case rep.Certificate.Pass:
					s.stats.audits.With("pass").Inc()
				default:
					s.stats.audits.With("fail").Inc()
				}
			}
		}
	}
	total := time.Since(t0)
	s.stats.stages.With("total").Observe(total.Seconds())

	class := mclgerr.Class(err)
	s.stats.jobs.With(class).Inc()
	s.log.Info("job done",
		"id", id,
		"key", short(key),
		"class", class,
		"queue_ms", float64(queueWait)/float64(time.Millisecond),
		"parse_ms", float64(parseDur)/float64(time.Millisecond),
		"solve_ms", float64(solveDur)/float64(time.Millisecond),
		"audit_ms", float64(auditDur)/float64(time.Millisecond),
		"total_ms", float64(total)/float64(time.Millisecond),
	)
	return rep, err
}

// mallocSamples names the runtime/metrics counters whose sum is
// runtime.MemStats.Mallocs.
func mallocSamples() []metrics.Sample {
	return []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/tiny/allocs:objects"}}
}

// mallocs reads the process's cumulative heap allocation count into s, a
// mallocSamples slice, without stopping the world as
// runtime.ReadMemStats does.
func mallocs(s []metrics.Sample) uint64 {
	metrics.Read(s)
	var n uint64
	for _, v := range s {
		if v.Value.Kind() == metrics.KindUint64 { // KindBad if a runtime drops the metric
			n += v.Value.Uint64()
		}
	}
	return n
}

// errQueueFull / errDraining are admission-control refusals.
var (
	errQueueFull = errors.New("serve: queue at capacity")
	errDraining  = errors.New("serve: server is draining")
)

// Retry-After jitter bounds (seconds). A fixed hint synchronizes every
// refused client onto the same retry instant, re-saturating the queue in
// lockstep; a jittered hint spreads the retry storm.
const (
	retryAfterMin = 1
	retryAfterMax = 3
)

// retryAfterHint returns a jittered Retry-After value in
// [retryAfterMin, retryAfterMax] whole seconds.
func retryAfterHint() string {
	return strconv.Itoa(retryAfterMin + rand.IntN(retryAfterMax-retryAfterMin+1))
}

// admit performs admission control without blocking. It admits a new job,
// which the caller must then pass to runJob, and returns its log ID and
// whether it took a free solve slot for it; a job that finds none counts as
// waiting. It refuses with errDraining, or with errQueueFull while QueueCap
// admitted jobs wait for a slot. A released slot goes straight to the
// longest-blocked waiter, so one is free here only when no job is blocked
// on it, and taking it keeps arrival order.
func (s *Server) admit() (id uint64, slot bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.stats.rejectedDraining.Inc()
		return 0, false, errDraining
	}
	select {
	case s.slots <- struct{}{}:
		slot = true
	default:
		if s.stats.queueDepth.Get() >= int64(s.cfg.QueueCap) {
			s.stats.rejectedFull.Inc()
			return 0, false, errQueueFull
		}
		s.stats.queueDepth.Add(1)
	}
	s.jobsWG.Add(1)
	s.jobSeq++
	return s.jobSeq, slot, nil
}

func (s *Server) handleLegalize(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		s.refuse(w, http.StatusServiceUnavailable, "draining", "server is draining; resubmit elsewhere")
		s.stats.rejectedDraining.Inc()
		return
	}
	var req Request
	if err := ReadRequest(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), &req); err != nil {
		s.refuse(w, http.StatusBadRequest, "invalid_input", "malformed request body: "+err.Error())
		return
	}
	// The upload's texts are views of the pooled body buffer. A refusal
	// gives it back here; a leader gives it back after the parse, and a
	// cache hit or a joined follower once the key is hashed.
	defer req.Release()
	if err := req.validate(); err != nil {
		s.refuse(w, http.StatusBadRequest, "invalid_input", err.Error())
		return
	}
	// Resolve the windowed-mode defaults before the cache key is computed:
	// window_rows changes the partition (result-affecting, in the key);
	// hedge only changes scheduling (result-neutral, not in the key).
	if req.Windows || (s.cfg.WindowsAll && req.Method == "ours" && !req.Resilient && !req.Audit) {
		req.Windows = true
		if req.WindowRows == 0 {
			req.WindowRows = s.cfg.WindowRows
		}
		if req.Hedge == 0 {
			req.Hedge = s.cfg.HedgeQuantile
		}
		if req.Exact == 0 {
			req.Exact = s.cfg.ExactWindows
		}
	}

	key := req.key()
	fl, leader, rep := s.cache.join(key)
	if !leader {
		req.Release()
	}
	if rep != nil {
		s.stats.cacheHits.Inc()
		s.respond(w, &req, rep, "hit")
		return
	}

	timeout := s.jobTimeout(&req)
	if !leader {
		// Join the in-flight solve: same design + options, so the solved
		// result is shared verbatim — one solve, N responses.
		select {
		case <-fl.done:
			if fl.err != nil {
				s.fail(w, fl.err)
				return
			}
			s.stats.cacheHits.Inc()
			s.respond(w, &req, fl.rep, "hit")
		case <-time.After(timeout):
			s.refuse(w, http.StatusGatewayTimeout, "canceled", "deadline expired waiting for the in-flight solve")
		case <-r.Context().Done():
			s.refuse(w, http.StatusGatewayTimeout, "canceled", "client went away")
		}
		return
	}

	// The tenant gate charges only leaders: joined followers share a solve
	// that is already paid for, and cache hits never reach this point.
	if s.cfg.Gate != nil {
		if ok, after := s.cfg.Gate.Admit(req.Tenant, req.priority()); !ok {
			err := &rateLimitedError{tenant: req.Tenant, after: after}
			s.stats.rejectedLimited.Inc()
			s.cache.abort(key, fl, err)
			s.fail(w, err)
			return
		}
	}

	id, slot, err := s.admit()
	if err != nil {
		s.cache.abort(key, fl, err)
		s.fail(w, err)
		return
	}
	s.log.Info("job admitted", "id", id, "key", short(key),
		"bench", req.Bench, "scale", req.Scale, "method", req.Method,
		"resilient", req.Resilient, "upload", req.Bench == "",
		"timeout", timeout.String())

	// The job's context descends from baseCtx, not the request's: a client
	// disconnect does not cancel the solve, because joined waiters may
	// still want it.
	ctx, cancel := context.WithTimeout(s.baseCtx, timeout)
	defer cancel()
	rep, err = s.runJob(ctx, id, slot, key, &req)
	if err != nil {
		s.cache.abort(key, fl, err)
		s.fail(w, err)
		return
	}
	s.stats.cacheMisses.Inc()
	s.cache.complete(key, fl, rep)
	s.respond(w, &req, rep, "miss")
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "ok uptime=%s\n", time.Since(s.start).Round(time.Second))
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.isDraining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.stats.reg.Write(w)
	if s.cfg.ExtraMetrics != nil {
		s.cfg.ExtraMetrics(w)
	}
}

// respond writes a success payload, cloning the shared report so the cache
// flag and placement stripping never mutate a cached entry.
func (s *Server) respond(w http.ResponseWriter, req *Request, rep *report.Report, cache string) {
	out := *rep
	out.Cache = cache
	if !req.IncludePlacement {
		out.Placement = nil
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(&out)
}

// errorBody is the JSON failure payload.
type errorBody struct {
	Error string `json:"error"`
	Class string `json:"class"`
}

// fail maps an error onto the HTTP surface via its mclgerr class.
func (s *Server) fail(w http.ResponseWriter, err error) {
	var rl *rateLimitedError
	switch {
	case errors.As(err, &rl):
		secs := int(math.Ceil(rl.after.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		s.refuse(w, http.StatusTooManyRequests, "rate_limited", err.Error())
	case errors.Is(err, errQueueFull):
		w.Header().Set("Retry-After", retryAfterHint())
		s.refuse(w, http.StatusTooManyRequests, "queue_full", err.Error())
	case errors.Is(err, errDraining):
		s.refuse(w, http.StatusServiceUnavailable, "draining", err.Error())
	case errors.Is(err, mclgerr.ErrInvalidInput):
		s.refuse(w, http.StatusBadRequest, mclgerr.Class(err), err.Error())
	case errors.Is(err, mclgerr.ErrCanceled):
		s.refuse(w, http.StatusGatewayTimeout, mclgerr.Class(err), err.Error())
	default:
		s.refuse(w, http.StatusUnprocessableEntity, mclgerr.Class(err), err.Error())
	}
}

func (s *Server) refuse(w http.ResponseWriter, status int, class, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(errorBody{Error: msg, Class: class})
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

func (s *Server) jobTimeout(req *Request) time.Duration {
	t := s.cfg.DefaultJobTimeout
	if req.TimeoutMS > 0 {
		t = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if t > s.cfg.MaxJobTimeout {
		t = s.cfg.MaxJobTimeout
	}
	return t
}

// short abbreviates a cache key for logs.
func short(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}
