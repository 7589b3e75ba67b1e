// Package serve turns the one-shot legalizer into a resident batching
// service: a bounded job queue with admission control, a worker pool driving
// the existing context-aware solvers, a content-addressed result cache with
// in-flight deduplication, and a Prometheus-text observability surface.
//
// Request lifecycle:
//
//	POST /v1/legalize ── validate ── cache lookup ──(hit)── 200 {cache:"hit"}
//	        │                            │
//	        │                       (in-flight join) ── wait ── 200 {cache:"hit"}
//	        │                            │
//	        │                        (leader) ── admit ──(queue full)── 429 + Retry-After
//	        │                            │
//	        └── worker: parse → solve → verify legal → cache store ── 200 {cache:"miss"}
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
	"math/rand"
	"net/http"
	"runtime/metrics"
	"strconv"
	"sync"
	"time"

	"mclg/internal/design"
	"mclg/internal/faults"
	"mclg/internal/mclgerr"
	"mclg/internal/serve/report"
	"mclg/internal/window"
)

// Config parameterizes the daemon. The zero value is usable: 2 pool
// workers, queue capacity 8, 128 cached results, 2-minute job cap.
type Config struct {
	// Workers is the solve-pool size: how many jobs run concurrently.
	Workers int
	// QueueCap bounds the jobs admitted but not yet running; admission
	// past it is refused with 429.
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
	// JournalDir, when non-empty, enables the per-job write-ahead window
	// journal: each windowed job fsyncs verified window results to
	// JournalDir/<job-key>.wal and a restarted daemon replays completed
	// windows instead of re-solving them. The journal is removed when the
	// job commits.
	JournalDir string
	// ECODir, when non-empty, makes /v1/eco sessions durable: each session
	// appends its delta log write-ahead to ECODir/<id>.ecolog, and a
	// restarted daemon rebuilds every live session by replaying its log from
	// the base design stored in the log header. Empty means sessions are
	// memory-only and die with the process.
	ECODir string
	// ECOSessionCap bounds concurrently open /v1/eco sessions; 0 means 8.
	ECOSessionCap int
	// Chaos, when non-nil, injects deterministic window-granular faults into
	// windowed jobs. Test-only.
	Chaos *faults.WindowChaos
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

// job is one admitted unit of work flowing from handler to worker.
type job struct {
	id     uint64
	key    string
	req    *Request
	ctx    context.Context
	cancel context.CancelFunc

	queuedAt time.Time
	done     chan struct{} // closed by the worker after rep/err are set
	rep      *report.Report
	err      error
}

// Server is the batching legalization service. Create with New, mount
// Handler on an http.Server, and call Drain on shutdown.
type Server struct {
	cfg   Config
	cache *resultCache
	eco   *ecoRegistry
	stats *serverStats
	log   *slog.Logger

	queue chan *job

	// baseCtx parents every job context so Drain's hard stop can cancel
	// still-running solves through the usual cancellation paths.
	baseCtx  context.Context
	baseStop context.CancelFunc

	mu       sync.Mutex // guards draining + admission vs. queue close
	draining bool
	jobsWG   sync.WaitGroup // admitted jobs not yet terminal
	workers  sync.WaitGroup

	jobSeq uint64
	start  time.Time
}

// New builds and starts a server: the worker pool is live on return.
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
		queue:    make(chan *job, cfg.QueueCap),
		baseCtx:  ctx,
		baseStop: stop,
		start:    time.Now(),
	}
	if cfg.ECODir != "" {
		s.recoverSessions()
	}
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
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
	already := s.draining
	s.draining = true
	if !already {
		close(s.queue) // safe: admission checks draining under mu before sending
	}
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
		s.baseStop() // hard stop: cancel remaining solves
		<-done       // workers still publish canceled results to waiters
	}
	s.workers.Wait()
	s.baseStop()
	return err
}

// worker drains the queue until Drain closes it.
func (s *Server) worker() {
	defer s.workers.Done()
	for j := range s.queue {
		s.stats.queueDepth.Add(-1)
		s.runJob(j)
	}
}

// runJob executes one admitted job and publishes the outcome to its waiters
// and, on success, the cache.
func (s *Server) runJob(j *job) {
	defer s.jobsWG.Done()
	defer j.cancel()
	s.stats.inflight.Add(1)

	queueWait := time.Since(j.queuedAt)
	t0 := time.Now()

	var rep *report.Report
	err := mclgerr.FromContext(j.ctx)
	var parseDur, solveDur time.Duration
	if err == nil {
		tp := time.Now()
		d, derr := j.req.loadDesign()
		parseDur = time.Since(tp)
		s.stats.stages.With("parse").Observe(parseDur.Seconds())
		if derr != nil {
			err = derr
		} else {
			ts := time.Now()
			samples := mallocSamples()
			m0 := mallocs(samples)
			if j.req.Windows {
				rep, err = s.solveWindowed(j, d)
			} else {
				rep, err = j.req.solve(j.ctx, d)
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
			doAudit := j.req.Audit ||
				(s.cfg.AuditAll && j.req.Method == "ours" && !j.req.Resilient && !j.req.Windows)
			if err == nil && rep != nil && doAudit {
				ta := time.Now()
				cert, aerr := j.req.runAudit(j.ctx, d, rep)
				s.stats.stages.With("audit").Observe(time.Since(ta).Seconds())
				if aerr != nil {
					s.stats.audits.With("error").Inc()
					err = aerr
				} else {
					rep.Certificate = cert
					if cert.Pass {
						s.stats.audits.With("pass").Inc()
					} else {
						s.stats.audits.With("fail").Inc()
					}
				}
			}
		}
	}
	total := time.Since(t0)
	s.stats.stages.With("total").Observe(total.Seconds())

	class := mclgerr.Class(err)
	s.stats.jobs.With(class).Inc()
	s.log.Info("job done",
		"id", j.id,
		"key", short(j.key),
		"class", class,
		"queue_ms", float64(queueWait)/float64(time.Millisecond),
		"parse_ms", float64(parseDur)/float64(time.Millisecond),
		"solve_ms", float64(solveDur)/float64(time.Millisecond),
		"total_ms", float64(total)/float64(time.Millisecond),
	)

	j.rep, j.err = rep, err
	// The gauge settles before close(j.done) releases the waiters, so a
	// client that scrapes /metrics right after its response reads the job
	// as finished.
	s.stats.inflight.Add(-1)
	close(j.done)
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

var (
	retryJitterMu sync.Mutex
	retryJitter   = rand.New(rand.NewSource(time.Now().UnixNano()))
)

// retryAfterHint returns a jittered Retry-After value in
// [retryAfterMin, retryAfterMax] whole seconds.
func retryAfterHint() string {
	retryJitterMu.Lock()
	n := retryAfterMin + retryJitter.Intn(retryAfterMax-retryAfterMin+1)
	retryJitterMu.Unlock()
	return strconv.Itoa(n)
}

// admit performs admission control: it either owns the job (nil) or refuses
// with errQueueFull / errDraining without blocking.
func (s *Server) admit(j *job) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.stats.rejectedDraining.Inc()
		return errDraining
	}
	// Count the job before a worker can see it: once sent, it may finish
	// (jobsWG.Done, queueDepth −1) before this goroutine runs again.
	s.jobsWG.Add(1)
	s.stats.queueDepth.Add(1)
	select {
	case s.queue <- j:
		return nil
	default:
		s.jobsWG.Done()
		s.stats.queueDepth.Add(-1)
		s.stats.rejectedFull.Inc()
		return errQueueFull
	}
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
	if rep, ok := s.cache.Get(key); ok {
		s.stats.cacheHits.Inc()
		s.respond(w, &req, rep, "hit")
		return
	}

	fl, leader, rep := s.cache.join(key)
	if rep != nil { // completed between lookup and join
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

	ctx, cancel := context.WithTimeout(s.baseCtx, timeout)
	j := &job{
		id:       s.nextID(),
		key:      key,
		req:      &req,
		ctx:      ctx,
		cancel:   cancel,
		queuedAt: time.Now(),
		done:     make(chan struct{}),
	}
	if err := s.admit(j); err != nil {
		cancel()
		s.cache.abort(key, fl, err)
		s.fail(w, err)
		return
	}
	s.log.Info("job admitted", "id", j.id, "key", short(key),
		"bench", req.Bench, "scale", req.Scale, "method", req.Method,
		"resilient", req.Resilient, "upload", len(req.Files) > 0,
		"timeout", timeout.String())

	// The worker closes j.done unconditionally; a client disconnect does
	// not cancel the solve, because joined waiters may still want it.
	<-j.done
	if j.err != nil {
		s.cache.abort(key, fl, j.err)
		s.fail(w, j.err)
		return
	}
	s.stats.cacheMisses.Inc()
	s.cache.complete(key, fl, j.rep)
	s.respond(w, &req, j.rep, "miss")
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

func (s *Server) nextID() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobSeq++
	return s.jobSeq
}

// short abbreviates a cache key for logs.
func short(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}
