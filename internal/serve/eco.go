package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"time"

	"mclg/internal/audit"
	"mclg/internal/bookshelf"
	"mclg/internal/eco"
	"mclg/internal/mclgerr"
	"mclg/internal/serve/report"
)

// ecoRequest is the wire form of POST /v1/eco. Action selects the session
// verb; create carries a design source exactly like /v1/legalize (bench or
// files), apply carries the delta batch, commit and close address an
// existing session.
type ecoRequest struct {
	Action  string `json:"action"`
	Session string `json:"session,omitempty"`

	// Tenant names the submitting tenant for admission rate limiting. ECO
	// traffic is always charged at the interactive tier (sessions exist for
	// latency-bound incremental work), so there is no priority field.
	Tenant string `json:"tenant,omitempty"`

	// Create: design source and solver/window knobs.
	Bench      string            `json:"bench,omitempty"`
	Scale      float64           `json:"scale,omitempty"`
	Files      map[string]string `json:"files,omitempty"`
	Options    *OptionsJSON      `json:"options,omitempty"`
	WindowRows int               `json:"window_rows,omitempty"`
	MarginRows int               `json:"margin_rows,omitempty"`

	// Apply: the delta batch.
	Deltas []eco.Delta `json:"deltas,omitempty"`

	// Commit: include the full per-cell placement in the response.
	IncludePlacement bool `json:"placement,omitempty"`
}

// ecoResponse is the wire result of every /v1/eco action.
type ecoResponse struct {
	Session string `json:"session"`
	Action  string `json:"action"`
	Seq     int    `json:"seq"`
	Cells   int    `json:"cells"`
	PosHash string `json:"pos_hash"`

	// Resumed (create) counts batches replayed from the durable log after a
	// daemon restart.
	Resumed int `json:"resumed,omitempty"`

	Apply *eco.ApplyResult `json:"apply,omitempty"`

	// Certificate (commit) is the sealed replay certificate: the session's
	// delta log, replayed from the base design, reproduces the committed
	// placement bit-identically.
	Certificate *audit.ReplayCertificate `json:"certificate,omitempty"`
	Stats       *eco.Stats               `json:"stats,omitempty"`
	Placement   *report.Placement        `json:"placement,omitempty"`
}

var ecoIDPattern = regexp.MustCompile(`^[A-Za-z0-9_.-]{1,64}$`)

// validate normalizes and rejects malformed eco requests.
func (r *ecoRequest) validate() error {
	switch r.Action {
	case "create":
		if r.Session != "" && !ecoIDPattern.MatchString(r.Session) {
			return mclgerr.Invalidf("serve: session id %q must match %s", r.Session, ecoIDPattern)
		}
		if err := r.ecoOptions().Validate(); err != nil {
			return err
		}
		if len(r.Deltas) > 0 {
			return mclgerr.Invalidf("serve: create does not take deltas; apply them after the session exists")
		}
		// Delegate design-source validation (bench/scale vs files) to the
		// /v1/legalize request rules, and keep the scale they default, so
		// the session builds the design /v1/legalize would.
		lr := r.legalizeView()
		if err := lr.validate(); err != nil {
			return err
		}
		r.Scale = lr.Scale
		return nil
	case "apply":
		if r.Session == "" {
			return mclgerr.Invalidf("serve: apply needs a session id")
		}
		if len(r.Deltas) == 0 {
			return mclgerr.Invalidf("serve: apply needs a non-empty deltas array")
		}
		return nil
	case "commit", "close":
		if r.Session == "" {
			return mclgerr.Invalidf("serve: %s needs a session id", r.Action)
		}
		if len(r.Deltas) > 0 {
			return mclgerr.Invalidf("serve: %s does not take deltas", r.Action)
		}
		return nil
	default:
		return mclgerr.Invalidf("serve: unknown eco action %q (want create|apply|commit|close)", r.Action)
	}
}

// legalizeView adapts the create fields onto the /v1/legalize Request so
// design-source validation and loading are shared, not duplicated.
func (r *ecoRequest) legalizeView() *Request {
	return &Request{Bench: r.Bench, Scale: r.Scale, Files: r.Files, Options: r.Options}
}

// ecoOptions resolves the session options from a create request.
func (r *ecoRequest) ecoOptions() eco.Options {
	return eco.Options{
		Core:       r.legalizeView().CoreOptions(),
		WindowRows: r.WindowRows,
		MarginRows: r.MarginRows,
	}
}

// ecoRegistry owns the live sessions. Sessions bypass the solve slots and
// their queue — applies are interactive, latency-bound, and already
// serialized per session — so the registry provides its own capacity gate.
type ecoRegistry struct {
	mu       sync.Mutex
	cap      int
	dir      string
	sessions map[string]*eco.Session
	seq      uint64
}

func newEcoRegistry(cap int, dir string) *ecoRegistry {
	return &ecoRegistry{cap: cap, dir: dir, sessions: map[string]*eco.Session{}}
}

// get returns a live session. A slot that reserve holds while its create
// runs has no session yet and is refused like an unknown one.
func (r *ecoRegistry) get(id string) (*eco.Session, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.sessions[id]
	switch {
	case !ok:
		return nil, mclgerr.Invalidf("serve: unknown eco session %q", id)
	case s == nil:
		return nil, mclgerr.Invalidf("serve: eco session %q is still being created", id)
	}
	return s, nil
}

func (r *ecoRegistry) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.sessions)
}

// reserve claims a session slot and ID before the (slow) create runs, so
// two concurrent creates cannot race past the cap or onto the same ID.
func (r *ecoRegistry) reserve(id string) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.sessions) >= r.cap {
		return "", mclgerr.Invalidf("serve: eco session capacity %d reached; close a session first", r.cap)
	}
	// An anonymous create takes the next sN that no client or recovered
	// session holds.
	for taken := id == ""; taken; _, taken = r.sessions[id] {
		r.seq++
		id = fmt.Sprintf("s%d", r.seq)
	}
	if _, exists := r.sessions[id]; exists {
		return "", mclgerr.Invalidf("serve: eco session %q already exists", id)
	}
	r.sessions[id] = nil // placeholder holds the slot
	return id, nil
}

// install replaces the reservation with the live session (or releases it on
// failed create).
func (r *ecoRegistry) install(id string, s *eco.Session) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s == nil {
		delete(r.sessions, id)
		return
	}
	r.sessions[id] = s
}

func (r *ecoRegistry) remove(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.sessions, id)
}

// logPath returns the durable log path for a session, or "" when the
// registry is memory-only.
func (r *ecoRegistry) logPath(id string) string {
	if r.dir == "" {
		return ""
	}
	return filepath.Join(r.dir, id+".ecolog")
}

// recoverSessions scans the log directory and resumes every durable session
// left by a previous process: the log header's meta payload is the original
// create request, so the base design is rebuilt from it and the logged
// batches replay on top. An unreadable or unreplayable log is skipped (and
// logged), never fatal — the daemon must come up.
func (s *Server) recoverSessions() {
	dir := s.eco.dir
	entries, err := os.ReadDir(dir)
	if err != nil {
		s.log.Warn("eco recover: cannot read log dir", "dir", dir, "err", err)
		return
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".ecolog") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		id := strings.TrimSuffix(e.Name(), ".ecolog")
		_, meta, err := eco.ReadLogMeta(path)
		if err != nil {
			s.log.Warn("eco recover: unreadable log header", "path", path, "err", err)
			continue
		}
		var req ecoRequest
		if err := json.Unmarshal(meta, &req); err != nil || req.validate() != nil {
			s.log.Warn("eco recover: log meta is not a valid create request", "path", path)
			continue
		}
		if _, err := s.eco.reserve(id); err != nil {
			s.log.Warn("eco recover: cannot reserve slot", "id", id, "err", err)
			continue
		}
		sess, err := s.createSession(s.baseCtx, id, &req)
		if err != nil {
			s.eco.install(id, nil)
			s.log.Warn("eco recover: replay failed", "id", id, "err", err)
			continue
		}
		s.eco.install(id, sess)
		s.stats.ecoSessions.Add(1)
		s.stats.ecoEvents.With("resumed").Inc()
		s.log.Info("eco session recovered", "id", id, "seq", sess.Seq(), "resumed", sess.Resumed())
	}
}

// createSession builds an eco session from a validated create request. When
// the registry is durable the original request is stored as the log's meta
// payload, closing the recovery loop.
func (s *Server) createSession(ctx context.Context, id string, req *ecoRequest) (*eco.Session, error) {
	d, err := req.legalizeView().loadDesign(new(bookshelf.Store)) // the session keeps d
	if err != nil {
		return nil, err
	}
	opts := req.ecoOptions()
	if p := s.eco.logPath(id); p != "" {
		meta := *req
		meta.Session = id
		raw, err := json.Marshal(&meta)
		if err != nil {
			return nil, err
		}
		opts.LogPath = p
		opts.LogMeta = raw
	}
	return eco.Create(ctx, id, d, opts)
}

func (s *Server) handleECO(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		s.refuse(w, http.StatusServiceUnavailable, "draining", "server is draining; durable sessions resume on restart")
		s.stats.rejectedDraining.Inc()
		return
	}
	var req ecoRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.refuse(w, http.StatusBadRequest, "invalid_input", "malformed request body: "+err.Error())
		return
	}
	if err := req.validate(); err != nil {
		s.refuse(w, http.StatusBadRequest, "invalid_input", err.Error())
		return
	}

	// Create and apply do real solver work, so they pass the tenant gate at
	// the interactive tier; commit/close only read or release state.
	if s.cfg.Gate != nil && (req.Action == "create" || req.Action == "apply") {
		if ok, after := s.cfg.Gate.Admit(req.Tenant, "interactive"); !ok {
			s.stats.rejectedLimited.Inc()
			s.fail(w, &rateLimitedError{tenant: req.Tenant, after: after})
			return
		}
	}

	ctx, cancel := context.WithTimeout(s.baseCtx, s.jobTimeout(&Request{}))
	defer cancel()

	switch req.Action {
	case "create":
		s.ecoCreate(ctx, w, &req)
	case "apply":
		s.ecoApply(ctx, w, &req)
	case "commit":
		s.ecoCommit(ctx, w, &req)
	case "close":
		s.ecoClose(w, &req)
	}
}

func (s *Server) ecoCreate(ctx context.Context, w http.ResponseWriter, req *ecoRequest) {
	id, err := s.eco.reserve(req.Session)
	if err != nil {
		s.fail(w, err)
		return
	}
	t0 := time.Now()
	sess, err := s.createSession(ctx, id, req)
	if err != nil {
		s.eco.install(id, nil)
		s.fail(w, err)
		return
	}
	s.eco.install(id, sess)
	s.stats.ecoSessions.Add(1)
	s.stats.ecoEvents.With("created").Inc()
	s.stats.stages.With("eco_create").Observe(time.Since(t0).Seconds())
	s.log.Info("eco session created", "id", id, "cells", sess.Statistics().Cells,
		"resumed", sess.Resumed(), "durable", s.eco.dir != "")
	s.ecoRespond(w, req.Action, sess, &ecoResponse{Resumed: sess.Resumed()})
}

func (s *Server) ecoApply(ctx context.Context, w http.ResponseWriter, req *ecoRequest) {
	sess, err := s.eco.get(req.Session)
	if err != nil {
		s.fail(w, err)
		return
	}
	t0 := time.Now()
	res, err := sess.Apply(ctx, req.Deltas)
	s.stats.stages.With("eco_apply").Observe(time.Since(t0).Seconds())
	s.stats.ecoApplies.With(mclgerr.Class(err)).Inc()
	if err != nil {
		s.fail(w, err)
		return
	}
	s.stats.ecoEvents.With("deltas").Add(uint64(len(req.Deltas)))
	s.log.Info("eco batch applied", "id", req.Session, "seq", res.Seq,
		"deltas", res.Deltas, "bands", res.Bands, "runs", res.Runs, "repaired", res.Repaired,
		"ms", float64(time.Since(t0))/float64(time.Millisecond))
	s.ecoRespond(w, req.Action, sess, &ecoResponse{Apply: res})
}

func (s *Server) ecoCommit(ctx context.Context, w http.ResponseWriter, req *ecoRequest) {
	sess, err := s.eco.get(req.Session)
	if err != nil {
		s.fail(w, err)
		return
	}
	t0 := time.Now()
	cert, err := sess.Certify(ctx)
	s.stats.stages.With("eco_commit").Observe(time.Since(t0).Seconds())
	if err != nil {
		s.fail(w, err)
		return
	}
	if cert.Pass {
		s.stats.ecoEvents.With("committed").Inc()
	} else {
		s.stats.ecoEvents.With("commit_failed").Inc()
	}
	st := sess.Statistics()
	resp := &ecoResponse{Certificate: cert, Stats: &st}
	if req.IncludePlacement {
		rep := &report.Report{}
		rep.CapturePlacement(sess.Design())
		resp.Placement = rep.Placement
	}
	s.ecoRespond(w, req.Action, sess, resp)
}

func (s *Server) ecoClose(w http.ResponseWriter, req *ecoRequest) {
	sess, err := s.eco.get(req.Session)
	if err != nil {
		s.fail(w, err)
		return
	}
	if err := sess.Close(); err != nil {
		s.fail(w, err)
		return
	}
	s.eco.remove(req.Session)
	s.stats.ecoSessions.Add(-1)
	s.stats.ecoEvents.With("closed").Inc()
	s.log.Info("eco session closed", "id", req.Session)
	s.ecoRespond(w, req.Action, sess, &ecoResponse{})
}

// ecoRespond fills the common session fields and writes the response.
func (s *Server) ecoRespond(w http.ResponseWriter, action string, sess *eco.Session, resp *ecoResponse) {
	st := sess.Statistics()
	resp.Session = sess.ID()
	resp.Action = action
	resp.Seq = st.Seq
	resp.Cells = st.Cells
	resp.PosHash = st.PosHash
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}
