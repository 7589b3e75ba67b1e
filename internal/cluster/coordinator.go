package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"time"

	"mclg/internal/core"
	"mclg/internal/design"
	"mclg/internal/eco"
	"mclg/internal/lru"
	"mclg/internal/mclgerr"
	"mclg/internal/window"
)

// CoordinatorConfig parameterizes a coordinator.
type CoordinatorConfig struct {
	// Peers are the worker base URLs (e.g. "http://10.0.0.2:9090"). The
	// peer string is both the ring identity and the dial target.
	Peers []string
	// CacheCap bounds the coordinator's shared window-result cache; 0 means
	// 1024, negative disables it.
	CacheCap int
	// DownTTL is how long a worker observed unreachable stays out of the
	// routing tables before it is retried; 0 means 10s. Workers that
	// answered /readyz with 503 (draining) also wait out this TTL, but a
	// drain started through DrainWorker is permanent until ReinstateWorker.
	DownTTL time.Duration
	// Client performs shard requests; nil uses a fresh http.Client (no
	// global timeout — each request carries the attempt context).
	Client *http.Client
	// Metrics receives the coordinator's observability series; nil
	// allocates a private registry.
	Metrics *Metrics
	// Logger receives structured logs; nil discards them.
	Logger *slog.Logger
}

func (c CoordinatorConfig) withDefaults() CoordinatorConfig {
	if c.CacheCap == 0 {
		c.CacheCap = 1024
	}
	if c.DownTTL <= 0 {
		c.DownTTL = 10 * time.Second
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	if c.Metrics == nil {
		c.Metrics = NewMetrics()
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}

// Coordinator shards window jobs across worker daemons. DispatchWindows is
// a drop-in replacement for the local windowed solve: it runs the same
// supervised window.Legalize, but every solve attempt ships the window's
// sub-design to a rendezvous-routed worker — consulting the shared
// content-addressed result cache first — and every failure path (worker
// crash, drain refusal, timeout) re-routes along the owner preference list,
// degrading to a coordinator-local solve when no worker is usable. The
// stitched placement is bit-identical to a single-node solve for any worker
// count, failure, or hedge history, because a window's result is a pure
// function of its content key no matter where it is computed.
type Coordinator struct {
	cfg   CoordinatorConfig
	ring  *Ring
	cache *lru.Cache[string, []window.CellPos] // by WindowKey: a hit is bit-identical to a solve
	m     *Metrics
	log   *slog.Logger

	mu      sync.Mutex
	down    map[string]time.Time // worker -> unusable until (reactive marking)
	drained map[string]bool      // worker -> drained via DrainWorker (sticky)
	now     func() time.Time     // injectable for tests

	sessMu   sync.Mutex
	sessions map[string]string // ECO session id -> hosting worker
}

// NewCoordinator builds a coordinator over the given peers. An empty peer
// list is legal: every window then solves coordinator-locally, which is
// exactly the standalone path.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	cfg = cfg.withDefaults()
	return &Coordinator{
		cfg:      cfg,
		ring:     NewRing(cfg.Peers, DefaultVNodes),
		cache:    lru.New[string, []window.CellPos](cfg.CacheCap),
		m:        cfg.Metrics,
		log:      cfg.Logger,
		down:     make(map[string]time.Time),
		drained:  make(map[string]bool),
		now:      time.Now,
		sessions: make(map[string]string),
	}
}

// Metrics exposes the coordinator's registry (for the daemon's /metrics).
func (c *Coordinator) Metrics() *Metrics { return c.m }

// Workers returns the ring membership.
func (c *Coordinator) Workers() []string { return c.ring.Nodes() }

// AddWorker inserts a worker into the ring (rendezvous hashing remaps only
// the ~1/N of window keys the new worker now wins).
func (c *Coordinator) AddWorker(addr string) { c.ring.Add(addr) }

// RemoveWorker deletes a worker from the ring. In-flight attempts against
// it fail and re-route via the supervised retry path.
func (c *Coordinator) RemoveWorker(addr string) {
	c.ring.Remove(addr)
	c.mu.Lock()
	delete(c.down, addr)
	delete(c.drained, addr)
	c.mu.Unlock()
}

// ReinstateWorker clears a worker's drained/down marks (e.g. after it
// restarted) so routing resumes.
func (c *Coordinator) ReinstateWorker(addr string) {
	c.mu.Lock()
	delete(c.down, addr)
	delete(c.drained, addr)
	c.mu.Unlock()
}

// markDown takes a worker out of routing for DownTTL after an observed
// refusal or transport failure.
func (c *Coordinator) markDown(addr string) {
	c.mu.Lock()
	c.down[addr] = c.now().Add(c.cfg.DownTTL)
	c.mu.Unlock()
	c.log.Warn("worker marked down", "worker", addr, "ttl", c.cfg.DownTTL.String())
}

// usable filters an owner preference list down to workers not currently
// marked down or drained, preserving order.
func (c *Coordinator) usable(owners []string) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	out := owners[:0:0]
	for _, o := range owners {
		if c.drained[o] {
			continue
		}
		if until, bad := c.down[o]; bad {
			if now.Before(until) {
				continue
			}
			delete(c.down, o) // TTL expired: give it another chance
		}
		out = append(out, o)
	}
	return out
}

// CheckPeers probes every ring member's /readyz and updates the routing
// tables: non-ready workers are marked down, recovered workers are cleared.
// Reactive marking during dispatch makes this optional, but a periodic probe
// notices drains before the next job trips over them.
func (c *Coordinator) CheckPeers(ctx context.Context) {
	for _, addr := range c.ring.Nodes() {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/readyz", nil)
		if err != nil {
			continue
		}
		resp, err := c.cfg.Client.Do(req)
		if err != nil {
			c.markDown(addr)
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			c.markDown(addr)
			continue
		}
		c.mu.Lock()
		if !c.drained[addr] {
			delete(c.down, addr)
		}
		c.mu.Unlock()
	}
}

// DispatchWindows is the cluster-path windowed solve, signature-compatible
// with the daemon's dispatcher hook. It normalizes the solver options (so
// coordinator, workers, and cache keys all see the same resolved problem),
// installs the remote solve hook, and hands control to the supervised
// window.Legalize — retries, backoff, hedging, degradation, deterministic
// stitch, and the whole-design legality gate all run unchanged.
func (c *Coordinator) DispatchWindows(ctx context.Context, d *design.Design, opts window.Options) (*window.Stats, error) {
	opts.Core = core.New(opts.Core).Opts
	wr := opts.WindowRows
	if wr == 0 {
		wr = window.DefaultWindowRows
	}
	sig := window.Sig(d, wr, window.DefaultContextRows, opts.Core)
	wopts := EncodeOptions(opts.Core)
	base := opts.Core
	opts.SolveWindow = func(ctx context.Context, d *design.Design, p *window.Plan, w, attempt int) (*window.Result, error) {
		return c.solveOne(ctx, d, p, w, attempt, sig, wopts, base)
	}
	return window.Legalize(ctx, d, opts)
}

// solveOne resolves one window-solve attempt: shared cache, then the
// rendezvous owner for this attempt index, then coordinator-local solve as
// the no-worker fallback. Retries rotate through the owner preference list
// (attempt a → owner a mod N) and the hedge attempt pins the second-ranked
// owner, so a straggling primary and its hedge race on different machines.
func (c *Coordinator) solveOne(ctx context.Context, d *design.Design, p *window.Plan, wi, attempt int, sig uint64, wopts WireOptions, base core.Options) (*window.Result, error) {
	key := WindowKey(sig, wi)
	if cells, ok := c.cache.Get(key); ok {
		c.m.cacheLocalHits.Inc()
		return &window.Result{Window: wi, Cells: cells}, nil
	}

	owners := c.usable(c.ring.Owners(key))
	if len(owners) == 0 {
		c.m.localFallbacks.Inc()
		return c.solveLocal(ctx, d, p, wi, key, base)
	}
	pick := attempt
	switch {
	case attempt == window.HedgeAttempt:
		pick = 1 // race the hedge on a different machine than the primary
		c.m.hedgedRemote.Inc()
	case attempt > 0:
		c.m.failovers.Inc()
	}
	addr := owners[pick%len(owners)]

	b := &p.Bands[wi]
	sub, idx := window.BuildSub(d, p, b)
	req := solveRequest{Key: key, Window: wi, Sub: EncodeDesign(sub), Idx: idx, Opts: wopts}
	t0 := time.Now()
	var resp solveResponse
	if err := c.post(ctx, addr, PathSolve, req, &resp); err != nil {
		// A canceled attempt (hedge lost the race, job aborted) says nothing
		// about the worker's health — only an unprompted transport failure or
		// a draining refusal takes it out of routing.
		if ctx.Err() == nil && routeAway(err) {
			c.markDown(addr)
		}
		return nil, err
	}
	c.m.routedTo(addr, time.Since(t0).Seconds())
	if resp.Cached {
		c.m.cacheRemoteHits.Inc()
	}
	if err := checkOwned(b, resp.Cells); err != nil {
		return nil, err
	}
	c.cache.Put(key, resp.Cells)
	return &window.Result{Window: wi, Cells: resp.Cells}, nil
}

// solveLocal solves a window on the coordinator itself — the graceful
// degradation to standalone behavior when no worker is usable. The result
// is bit-identical to a worker's (same sub-design, same cascade), so a
// cluster limping on local solves still reproduces the standalone hash.
func (c *Coordinator) solveLocal(ctx context.Context, d *design.Design, p *window.Plan, wi int, key string, base core.Options) (*window.Result, error) {
	b := &p.Bands[wi]
	sub, idx := window.BuildSub(d, p, b)
	res, err := window.SolveSub(ctx, sub, idx, wi, base)
	if err != nil {
		return nil, err
	}
	c.cache.Put(key, res.Cells)
	return res, nil
}

// checkOwned rejects a shard response whose cell IDs are not exactly the
// window's owned set — a corrupt or confused worker must not be able to
// write outside its window. (The whole-design legality checker still gates
// the final commit; this catches the corruption at its source.)
func checkOwned(b *window.Band, cells []window.CellPos) error {
	if len(cells) != len(b.Owned) {
		return mclgerr.Invalidf("cluster: window %d shard returned %d cells, owns %d", b.Index, len(cells), len(b.Owned))
	}
	owned := make(map[int]bool, len(b.Owned))
	for _, id := range b.Owned {
		owned[id] = true
	}
	for _, cp := range cells {
		if !owned[cp.ID] {
			return mclgerr.Invalidf("cluster: window %d shard returned cell %d outside its owned set", b.Index, cp.ID)
		}
	}
	return nil
}

// shardError is a non-2xx shard response, preserving the worker's typed
// class so the coordinator can distinguish a draining refusal from a solver
// failure.
type shardError struct {
	Status int
	Class  string
	Msg    string
}

func (e *shardError) Error() string {
	return fmt.Sprintf("shard: %s (%d %s)", e.Msg, e.Status, e.Class)
}

// routeAway reports whether an error means the worker should leave the
// routing tables: transport failures (crashed/unreachable) and draining
// refusals. Solver-level failures keep the worker routable — the window
// retries elsewhere, other windows continue.
func routeAway(err error) bool {
	var se *shardError
	if errors.As(err, &se) {
		return se.Status == http.StatusServiceUnavailable
	}
	return true // transport-level: connection refused, reset, EOF, ...
}

// post sends one shard request and decodes the response into out.
func (c *Coordinator) post(ctx context.Context, addr, path string, in, out any) error {
	payload, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, addr+path, bytes.NewReader(payload))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		var er errorReply
		_ = json.NewDecoder(resp.Body).Decode(&er)
		if er.Error == "" {
			er.Error = resp.Status
		}
		return &shardError{Status: resp.StatusCode, Class: er.Class, Msg: er.Error}
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// ---- ECO session routing ----

// ecoKey is the routing key for a session id (namespaced apart from window
// keys so session placement is independent of window traffic).
func ecoKey(id string) string { return "eco|" + id }

// ecoOwner picks the hosting worker for a session, skipping excluded
// addresses (e.g. a draining origin during migration).
func (c *Coordinator) ecoOwner(id string, exclude string) (string, error) {
	owners := c.usable(c.ring.Owners(ecoKey(id)))
	for _, o := range owners {
		if o != exclude {
			return o, nil
		}
	}
	return "", mclgerr.Invalidf("cluster: no usable worker to host session %q", id)
}

// ECOCreate opens a session on its rendezvous-routed worker.
func (c *Coordinator) ECOCreate(ctx context.Context, id string, base *design.Design, windowRows, marginRows int, opts core.Options) (string, error) {
	addr, err := c.ecoOwner(id, "")
	if err != nil {
		return "", err
	}
	req := ecoShardRequest{
		Action: "create", Session: id, Base: EncodeDesign(base),
		WindowRows: windowRows, MarginRows: marginRows,
	}
	wo := EncodeOptions(core.New(opts).Opts)
	req.Opts = &wo
	var resp ecoShardResponse
	if err := c.post(ctx, addr, PathECO, req, &resp); err != nil {
		if routeAway(err) {
			c.markDown(addr)
		}
		return "", err
	}
	c.sessMu.Lock()
	c.sessions[id] = addr
	c.sessMu.Unlock()
	return resp.PosHash, nil
}

// ECOApply routes a delta batch to the session's hosting worker.
func (c *Coordinator) ECOApply(ctx context.Context, id string, deltas []eco.Delta) (seq int, posHash string, err error) {
	addr, ok := c.sessionHost(id)
	if !ok {
		return 0, "", mclgerr.Invalidf("cluster: unknown session %q", id)
	}
	var resp ecoShardResponse
	if err := c.post(ctx, addr, PathECO, ecoShardRequest{Action: "apply", Session: id, Deltas: deltas}, &resp); err != nil {
		return 0, "", err
	}
	return resp.Seq, resp.PosHash, nil
}

// ECOClose closes a session on its hosting worker.
func (c *Coordinator) ECOClose(ctx context.Context, id string) error {
	addr, ok := c.sessionHost(id)
	if !ok {
		return mclgerr.Invalidf("cluster: unknown session %q", id)
	}
	c.sessMu.Lock()
	delete(c.sessions, id)
	c.sessMu.Unlock()
	var resp ecoShardResponse
	return c.post(ctx, addr, PathECO, ecoShardRequest{Action: "close", Session: id}, &resp)
}

// sessionHost looks up where a session lives.
func (c *Coordinator) sessionHost(id string) (string, bool) {
	c.sessMu.Lock()
	defer c.sessMu.Unlock()
	addr, ok := c.sessions[id]
	return addr, ok
}

// SessionHosts snapshots the session routing table (test/ops helper).
func (c *Coordinator) SessionHosts() map[string]string {
	c.sessMu.Lock()
	defer c.sessMu.Unlock()
	out := make(map[string]string, len(c.sessions))
	for id, addr := range c.sessions {
		out[id] = addr
	}
	return out
}

// DrainWorker takes a worker out of rotation gracefully: it tells the
// worker to start draining (new solves refused, /readyz flips 503), marks it
// unroutable on this coordinator, and migrates every ECO session it hosts to
// the next owner via exported delta logs — each migration is replayed from
// the session's base design and verified bit-identical (eco.Migrate) before
// the origin copy is closed. Returns the migrated session IDs.
func (c *Coordinator) DrainWorker(ctx context.Context, addr string) ([]string, error) {
	// Best-effort: a crashed worker can't acknowledge, but its sessions may
	// still need re-homing (durable logs allow recovery elsewhere even when
	// export fails; that path is the operator's, not ours).
	_ = c.postNoDecode(ctx, addr, PathDrain)
	c.mu.Lock()
	c.drained[addr] = true
	c.mu.Unlock()

	c.sessMu.Lock()
	var hosted []string
	for id, host := range c.sessions {
		if host == addr {
			hosted = append(hosted, id)
		}
	}
	c.sessMu.Unlock()
	sort.Strings(hosted)

	var migrated []string
	var firstErr error
	for _, id := range hosted {
		if err := c.migrateSession(ctx, id, addr); err != nil {
			c.m.migrationErrors.Inc()
			c.log.Warn("session migration failed", "session", id, "from", addr, "err", err)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		c.m.migratedSessions.Inc()
		migrated = append(migrated, id)
	}
	return migrated, firstErr
}

// migrateSession moves one session off a draining worker: export the base
// design + delta log, rebuild by verified replay on the next owner, then
// close the origin copy.
func (c *Coordinator) migrateSession(ctx context.Context, id, from string) error {
	var exp ecoShardResponse
	if err := c.post(ctx, from, PathECO, ecoShardRequest{Action: "export", Session: id}, &exp); err != nil {
		return mclgerr.Stage("migrate-export", err)
	}
	if exp.Base == nil {
		return mclgerr.Invalidf("cluster: export of session %q carried no base design", id)
	}
	to, err := c.ecoOwner(id, from)
	if err != nil {
		return err
	}
	var created ecoShardResponse
	err = c.post(ctx, to, PathECO, ecoShardRequest{
		Action: "create", Session: id, Base: exp.Base,
		Batches: exp.Batches, WantPosHash: exp.PosHash,
	}, &created)
	if err != nil {
		return mclgerr.Stage("migrate-create", err)
	}
	c.sessMu.Lock()
	c.sessions[id] = to
	c.sessMu.Unlock()
	// The origin's copy is now redundant; close it so its durable log is
	// retired and a restart cannot resurrect a stale twin.
	var closed ecoShardResponse
	_ = c.post(ctx, from, PathECO, ecoShardRequest{Action: "close", Session: id}, &closed)
	c.log.Info("session migrated", "session", id, "from", from, "to", to, "pos_hash", created.PosHash)
	return nil
}

// postNoDecode sends a body-less shard POST and drains the response.
func (c *Coordinator) postNoDecode(ctx context.Context, addr, path string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, addr+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return nil
}
