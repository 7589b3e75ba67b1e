package serve

import (
	"math"
	"sort"
	"sync/atomic"

	"mclg/internal/mclgerr"
	"mclg/internal/prom"
	"mclg/internal/window"
)

// serverStats is the daemon's observability registry. Everything it exposes
// is required by the serving contract: queue depth, in-flight jobs, cache
// traffic, admission rejections, terminal jobs by mclgerr
// class, and per-stage latency histograms. Every labelled series is
// pre-registered so it exists (at zero) from the first scrape — dashboards
// should never see gaps appear.
type serverStats struct {
	reg prom.Registry

	queueDepth, inflight *prom.Gauge

	cacheHits, cacheMisses *prom.Counter

	// solveAllocs accumulates the process-wide Mallocs delta observed
	// around each solve; solveSamples counts the solves sampled, so
	// allocs/solve = solveAllocs / solveSamples. Approximate under
	// concurrency (see runJob), exact when jobs do not overlap.
	solveAllocs, solveSamples *prom.Counter

	rejectedFull     *prom.Counter // 429: queue at capacity
	rejectedDraining *prom.Counter // 503: submitted during drain
	rejectedLimited  *prom.Counter // 429: tenant over its admission rate limit

	audits  *prom.Vec[prom.Counter] // result: pass | fail | error
	windows *prom.Vec[prom.Counter] // windowed-run supervision events
	exacts  *prom.Vec[prom.Counter] // exact refinement post-pass outcomes
	// exactMaxGap is the worst measured optimality gap seen since start
	// (atomic float64 bits).
	exactMaxGap atomic.Uint64

	// ECO session surface: live session gauge, lifecycle event counters,
	// and per-apply outcomes by mclgerr class.
	ecoSessions *prom.Gauge
	ecoEvents   *prom.Vec[prom.Counter]
	ecoApplies  *prom.Vec[prom.Counter]

	jobs   *prom.Vec[prom.Counter] // terminal jobs by mclgerr class
	stages *prom.Vec[prom.Histogram]
}

// newServerStats registers every series in exposition order; the cache size
// is read from the LRU at scrape time.
func newServerStats(cache *resultCache) *serverStats {
	s := &serverStats{}
	r := &s.reg
	classes := mclgerr.Classes()
	sort.Strings(classes)

	s.queueDepth = r.Gauge("mclgd_queue_depth", "Jobs admitted but not yet picked up by a worker.")
	s.inflight = r.Gauge("mclgd_inflight_jobs", "Jobs currently being solved.")

	r.Func("mclgd_cache_entries", "Completed results resident in the LRU.", "gauge",
		func() float64 { return float64(cache.Len()) })
	s.cacheHits = r.Counter("mclgd_cache_hits_total", "Requests served without a new solve (store hit or in-flight join).")
	s.cacheMisses = r.Counter("mclgd_cache_misses_total", "Requests that required a new solve.")
	r.Func("mclgd_cache_evictions_total", "LRU entries dropped past capacity.", "counter",
		func() float64 { return float64(cache.Evictions()) })

	// Always 0; kept only because perfbench/servemix.go's traced run reads it.
	r.Counter("mclgd_warm_iterations_saved_total", "MMSIM iterations saved by warm seeding vs the cold baseline of each topology.")

	s.solveAllocs = r.Counter("mclgd_solve_allocs_total", "Heap allocations attributed to solves (process-wide Mallocs delta; approximate under concurrency).")
	s.solveSamples = r.Counter("mclgd_solve_alloc_samples_total", "Solves sampled for allocation accounting (allocs/solve = allocs_total / samples_total).")

	rejected := r.CounterVec("mclgd_rejected_total", "Admissions refused, by reason.", "reason",
		"queue_full", "draining", "rate_limited")
	s.rejectedFull, s.rejectedDraining, s.rejectedLimited =
		rejected.With("queue_full"), rejected.With("draining"), rejected.With("rate_limited")

	s.audits = r.CounterVec("mclgd_audit_total", "Audit-on-commit outcomes (pass/fail = sealed certificate verdict, error = audit could not complete).", "result",
		"error", "fail", "pass")
	s.windows = r.CounterVec("mclgd_windows_total", "Windowed-run supervision events (solved/resumed = how each window completed; retried/panicked/hedge_issued/hedge_won/degraded = fault handling).", "event",
		"degraded", "hedge_issued", "hedge_won", "panicked", "resumed", "retried", "solved")
	s.exacts = r.CounterVec("mclgd_exact_total", "Exact refinement post-pass outcomes (selected = windows re-solved by branch-and-bound; improved = checker-verified strict improvements committed; proven = windows proven optimal; skipped = solver could not finish).", "event",
		"improved", "proven", "selected", "skipped")
	r.Func("mclgd_exact_max_gap", "Largest normalized optimality gap measured by any exact post-pass since start (0 = every refined window proven optimal).", "gauge",
		func() float64 { return math.Float64frombits(s.exactMaxGap.Load()) })

	s.ecoSessions = r.Gauge("mclgd_eco_sessions", "Live ECO delta sessions.")
	s.ecoEvents = r.CounterVec("mclgd_eco_events_total", "ECO session lifecycle events (created/resumed/closed = sessions; deltas = accepted deltas; committed/commit_failed = replay-certification verdicts).", "event",
		"closed", "commit_failed", "committed", "created", "deltas", "resumed")
	s.ecoApplies = r.CounterVec("mclgd_eco_applies_total", "Delta-batch applies by mclgerr class (ok = committed checker-verified).", "class", classes...)

	s.jobs = r.CounterVec("mclgd_jobs_total", "Terminal jobs by mclgerr class (ok = verified legal).", "class", classes...)
	s.stages = r.HistogramVec("mclgd_stage_seconds", "Per-stage job latency.", "stage",
		"audit", "eco_apply", "eco_commit", "eco_create", "parse", "solve", "total")
	return s
}

// windowDone folds one windowed run's supervision stats into the registry.
func (s *serverStats) windowDone(st *window.Stats) {
	s.windows.With("solved").Add(uint64(st.Solved))
	s.windows.With("resumed").Add(uint64(st.Resumed))
	s.windows.With("retried").Add(uint64(st.Retries))
	s.windows.With("panicked").Add(uint64(st.Panics))
	s.windows.With("hedge_issued").Add(uint64(st.HedgesIssued))
	s.windows.With("hedge_won").Add(uint64(st.HedgesWon))
	s.windows.With("degraded").Add(uint64(st.Degraded))
	if st.Exact != nil {
		s.exactDone(st.Exact)
	}
}

// exactDone folds one exact refinement post-pass into the registry.
func (s *serverStats) exactDone(ex *window.ExactStats) {
	s.exacts.With("selected").Add(uint64(ex.Selected))
	s.exacts.With("improved").Add(uint64(ex.Improved))
	s.exacts.With("proven").Add(uint64(ex.Proven))
	s.exacts.With("skipped").Add(uint64(ex.Skipped))
	// High-water max over the measured gaps: CAS so concurrent jobs never
	// lose a larger observation.
	for {
		old := s.exactMaxGap.Load()
		if ex.MaxGap <= math.Float64frombits(old) {
			return
		}
		if s.exactMaxGap.CompareAndSwap(old, math.Float64bits(ex.MaxGap)) {
			return
		}
	}
}
