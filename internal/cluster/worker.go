package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"mclg/internal/eco"
	"mclg/internal/lru"
	"mclg/internal/mclgerr"
	"mclg/internal/window"
)

// WorkerConfig parameterizes a worker daemon.
type WorkerConfig struct {
	// ID is the worker's advertised identity — normally its listen address,
	// the same string coordinators put in their ring.
	ID string
	// Solves bounds concurrent shard solves; 0 means GOMAXPROCS.
	Solves int
	// CacheCap bounds the worker's window-result cache; 0 means 512,
	// negative disables it.
	CacheCap int
	// SessionCap bounds concurrently hosted ECO sessions; 0 means 32.
	SessionCap int
	// ECODir, when non-empty, makes hosted ECO sessions durable: each
	// session's delta log lives at ECODir/<id>.ecolog, exactly like the
	// standalone daemon's -eco-dir.
	ECODir string
	// Metrics receives the worker's observability series; nil allocates a
	// private registry.
	Metrics *Metrics
	// MaxBodyBytes bounds a shard request body; 0 means 64 MiB.
	MaxBodyBytes int64
	// Logger receives structured logs; nil discards them.
	Logger *slog.Logger
}

func (c WorkerConfig) withDefaults() WorkerConfig {
	if c.Solves <= 0 {
		c.Solves = runtime.GOMAXPROCS(0)
	}
	if c.CacheCap == 0 {
		c.CacheCap = 512
	}
	if c.SessionCap <= 0 {
		c.SessionCap = 32
	}
	if c.Metrics == nil {
		c.Metrics = NewMetrics()
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}

// Worker is a shard-solving daemon: it answers window-solve jobs on
// PathSolve (serving repeats from its content-addressed cache without
// solving), hosts ECO sessions on PathECO, and signals readiness on /readyz
// — 503 the moment a drain starts, so coordinators stop routing to it while
// in-flight solves finish.
type Worker struct {
	cfg   WorkerConfig
	cache *lru.Cache[string, []window.CellPos]
	m     *Metrics
	log   *slog.Logger

	sem chan struct{}

	mu       sync.Mutex
	draining bool
	inflight sync.WaitGroup

	sessMu   sync.Mutex
	sessions map[string]*eco.Session
}

// NewWorker builds a worker; its Handler is live immediately.
func NewWorker(cfg WorkerConfig) *Worker {
	cfg = cfg.withDefaults()
	return &Worker{
		cfg:      cfg,
		cache:    lru.New[string, []window.CellPos](cfg.CacheCap),
		m:        cfg.Metrics,
		log:      cfg.Logger,
		sem:      make(chan struct{}, cfg.Solves),
		sessions: make(map[string]*eco.Session),
	}
}

// Handler returns the worker's HTTP surface.
func (wk *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+PathSolve, wk.handleSolve)
	mux.HandleFunc("POST "+PathECO, wk.handleECO)
	mux.HandleFunc("POST "+PathDrain, wk.handleDrain)
	mux.HandleFunc("GET /healthz", wk.handleHealthz)
	mux.HandleFunc("GET /readyz", wk.handleReadyz)
	mux.HandleFunc("GET /metrics", wk.handleMetrics)
	return mux
}

// Drain flips the worker into draining mode — /readyz turns 503 and new
// shard solves/applies are refused immediately — then waits for in-flight
// solves to finish, or for ctx to expire. Hosted ECO sessions stay readable
// (export/close) so a coordinator can migrate them off.
func (wk *Worker) Drain(ctx context.Context) error {
	wk.mu.Lock()
	wk.draining = true
	wk.mu.Unlock()
	done := make(chan struct{})
	go func() {
		wk.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Draining reports whether a drain has started.
func (wk *Worker) Draining() bool {
	wk.mu.Lock()
	defer wk.mu.Unlock()
	return wk.draining
}

// Sessions returns the IDs of the ECO sessions this worker hosts, sorted
// lexically by map-range then used unordered by callers.
func (wk *Worker) Sessions() []string {
	wk.sessMu.Lock()
	defer wk.sessMu.Unlock()
	out := make([]string, 0, len(wk.sessions))
	for id := range wk.sessions {
		out = append(out, id)
	}
	return out
}

func (wk *Worker) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (wk *Worker) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if wk.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}

func (wk *Worker) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	wk.m.WritePrometheus(w)
}

// handleDrain starts a drain remotely (fire-and-forget; the caller polls
// /readyz for the flip). The in-flight wait stays with the process owner.
func (wk *Worker) handleDrain(w http.ResponseWriter, _ *http.Request) {
	wk.mu.Lock()
	wk.draining = true
	wk.mu.Unlock()
	w.WriteHeader(http.StatusAccepted)
	fmt.Fprintln(w, "draining")
}

func (wk *Worker) handleSolve(w http.ResponseWriter, r *http.Request) {
	if wk.Draining() {
		wk.m.refusedDrain.Inc()
		writeShardErr(w, http.StatusServiceUnavailable, "draining", "worker is draining; route elsewhere")
		return
	}
	var req solveRequest
	body := http.MaxBytesReader(w, r.Body, wk.cfg.MaxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeShardErr(w, http.StatusBadRequest, "invalid_input", "malformed shard request: "+err.Error())
		return
	}
	if req.Key == "" || req.Sub == nil {
		writeShardErr(w, http.StatusBadRequest, "invalid_input", "shard request needs key and sub")
		return
	}

	if cells, ok := wk.cache.Get(req.Key); ok {
		wk.m.served.Inc()
		writeJSON(w, solveResponse{Cells: cells, Cached: true, Worker: wk.cfg.ID})
		return
	}

	wk.inflight.Add(1)
	defer wk.inflight.Done()
	select {
	case wk.sem <- struct{}{}:
		defer func() { <-wk.sem }()
	case <-r.Context().Done():
		writeShardErr(w, http.StatusGatewayTimeout, "canceled", "caller went away waiting for a solve slot")
		return
	}

	sub, err := req.Sub.Decode()
	if err != nil {
		writeShardErr(w, http.StatusBadRequest, "invalid_input", err.Error())
		return
	}
	if len(req.Idx) != len(sub.Cells) {
		writeShardErr(w, http.StatusBadRequest, "invalid_input",
			fmt.Sprintf("idx length %d does not match %d cells", len(req.Idx), len(sub.Cells)))
		return
	}
	t0 := time.Now()
	res, err := window.SolveSub(r.Context(), sub, req.Idx, req.Window, req.Opts.Decode())
	if err != nil {
		wk.m.solveErrors.Inc()
		writeSolverErr(w, err)
		return
	}
	wk.cache.Put(req.Key, res.Cells)
	wk.m.served.Inc()
	wk.log.Info("shard solve", "key", req.Key, "window", req.Window, "cells", len(res.Cells),
		"ms", float64(time.Since(t0))/float64(time.Millisecond))
	writeJSON(w, solveResponse{Cells: res.Cells, Worker: wk.cfg.ID})
}

func (wk *Worker) handleECO(w http.ResponseWriter, r *http.Request) {
	var req ecoShardRequest
	body := http.MaxBytesReader(w, r.Body, wk.cfg.MaxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeShardErr(w, http.StatusBadRequest, "invalid_input", "malformed shard request: "+err.Error())
		return
	}
	if req.Session == "" {
		writeShardErr(w, http.StatusBadRequest, "invalid_input", "shard eco request needs a session id")
		return
	}
	switch req.Action {
	case "create":
		wk.ecoCreate(w, r, &req)
	case "apply":
		wk.ecoApply(w, r, &req)
	case "export":
		wk.ecoExport(w, &req)
	case "close":
		wk.ecoClose(w, &req)
	default:
		writeShardErr(w, http.StatusBadRequest, "invalid_input", fmt.Sprintf("unknown shard eco action %q", req.Action))
	}
}

// ecoOptions builds the session options for a hosted session.
func (wk *Worker) ecoOptions(req *ecoShardRequest) eco.Options {
	opts := eco.Options{WindowRows: req.WindowRows, MarginRows: req.MarginRows}
	if req.Opts != nil {
		opts.Core = req.Opts.Decode()
	}
	if wk.cfg.ECODir != "" {
		opts.LogPath = filepath.Join(wk.cfg.ECODir, req.Session+".ecolog")
	}
	return opts
}

func (wk *Worker) ecoCreate(w http.ResponseWriter, r *http.Request, req *ecoShardRequest) {
	if wk.Draining() {
		wk.m.refusedDrain.Inc()
		writeShardErr(w, http.StatusServiceUnavailable, "draining", "worker is draining; route elsewhere")
		return
	}
	if req.Base == nil {
		writeShardErr(w, http.StatusBadRequest, "invalid_input", "shard eco create needs a base design")
		return
	}
	base, err := req.Base.Decode()
	if err != nil {
		writeShardErr(w, http.StatusBadRequest, "invalid_input", err.Error())
		return
	}
	wk.sessMu.Lock()
	if _, dup := wk.sessions[req.Session]; dup {
		wk.sessMu.Unlock()
		writeShardErr(w, http.StatusConflict, "invalid_input", fmt.Sprintf("session %q already hosted", req.Session))
		return
	}
	if len(wk.sessions) >= wk.cfg.SessionCap {
		wk.sessMu.Unlock()
		writeShardErr(w, http.StatusTooManyRequests, "queue_full", "worker session capacity reached")
		return
	}
	// Reserve the slot before the (slow) create so a concurrent duplicate
	// is refused instead of racing.
	wk.sessions[req.Session] = nil
	wk.sessMu.Unlock()
	release := func() {
		wk.sessMu.Lock()
		delete(wk.sessions, req.Session)
		wk.sessMu.Unlock()
	}

	opts := wk.ecoOptions(req)
	var sess *eco.Session
	if len(req.Batches) > 0 {
		// Migration: rebuild by replay and verify against the origin's hash.
		sess, err = eco.Migrate(r.Context(), eco.Snapshot{
			ID: req.Session, Base: base, Log: req.Batches, PosHash: req.WantPosHash,
		}, opts)
		if err != nil {
			wk.m.migrationErrors.Inc()
		}
	} else {
		sess, err = eco.Create(r.Context(), req.Session, base, opts)
	}
	if err != nil {
		release()
		writeSolverErr(w, err)
		return
	}
	wk.sessMu.Lock()
	wk.sessions[req.Session] = sess
	wk.sessMu.Unlock()
	writeJSON(w, ecoShardResponse{
		Session: req.Session, Seq: sess.Seq(),
		PosHash: sess.PosHash(), BaseHash: sess.BaseHash(), Worker: wk.cfg.ID,
	})
}

// session looks up a live hosted session.
func (wk *Worker) session(id string) (*eco.Session, bool) {
	wk.sessMu.Lock()
	defer wk.sessMu.Unlock()
	s, ok := wk.sessions[id]
	return s, ok && s != nil
}

func (wk *Worker) ecoApply(w http.ResponseWriter, r *http.Request, req *ecoShardRequest) {
	if wk.Draining() {
		wk.m.refusedDrain.Inc()
		writeShardErr(w, http.StatusServiceUnavailable, "draining", "worker is draining; route elsewhere")
		return
	}
	sess, ok := wk.session(req.Session)
	if !ok {
		writeShardErr(w, http.StatusNotFound, "invalid_input", fmt.Sprintf("session %q not hosted here", req.Session))
		return
	}
	wk.inflight.Add(1)
	defer wk.inflight.Done()
	res, err := sess.Apply(r.Context(), req.Deltas)
	if err != nil {
		writeSolverErr(w, err)
		return
	}
	writeJSON(w, ecoShardResponse{
		Session: req.Session, Seq: res.Seq, PosHash: res.PosHash, Worker: wk.cfg.ID,
	})
}

func (wk *Worker) ecoExport(w http.ResponseWriter, req *ecoShardRequest) {
	sess, ok := wk.session(req.Session)
	if !ok {
		writeShardErr(w, http.StatusNotFound, "invalid_input", fmt.Sprintf("session %q not hosted here", req.Session))
		return
	}
	snap := sess.Snapshot()
	writeJSON(w, ecoShardResponse{
		Session: req.Session, Seq: len(snap.Log),
		PosHash: snap.PosHash, BaseHash: snap.BaseHash,
		Base: EncodeDesign(snap.Base), Batches: snap.Log, Worker: wk.cfg.ID,
	})
}

func (wk *Worker) ecoClose(w http.ResponseWriter, req *ecoShardRequest) {
	wk.sessMu.Lock()
	sess := wk.sessions[req.Session]
	delete(wk.sessions, req.Session)
	wk.sessMu.Unlock()
	if sess == nil {
		writeShardErr(w, http.StatusNotFound, "invalid_input", fmt.Sprintf("session %q not hosted here", req.Session))
		return
	}
	if err := sess.Close(); err != nil {
		writeSolverErr(w, err)
		return
	}
	writeJSON(w, ecoShardResponse{Session: req.Session, Worker: wk.cfg.ID})
}

// writeJSON writes a 200 JSON payload.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// writeShardErr writes a typed shard-protocol refusal.
func writeShardErr(w http.ResponseWriter, status int, class, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorReply{Error: msg, Class: class})
}

// writeSolverErr maps a solver error onto the shard protocol via its
// mclgerr class, mirroring the /v1 API's mapping.
func writeSolverErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, mclgerr.ErrInvalidInput):
		writeShardErr(w, http.StatusBadRequest, mclgerr.Class(err), err.Error())
	case errors.Is(err, mclgerr.ErrCanceled):
		writeShardErr(w, http.StatusGatewayTimeout, mclgerr.Class(err), err.Error())
	default:
		writeShardErr(w, http.StatusUnprocessableEntity, mclgerr.Class(err), err.Error())
	}
}
