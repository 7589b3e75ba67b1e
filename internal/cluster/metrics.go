package cluster

import (
	"io"

	"mclg/internal/prom"
)

// Metrics is the cluster observability registry, shared by the coordinator
// (routing, cache, failover, migration series) and the worker (served-solve
// series). WritePrometheus appends its series to a daemon's /metrics
// exposition via the serve.Config.ExtraMetrics hook.
type Metrics struct {
	reg prom.Registry

	routed       *prom.Vec[prom.Counter]   // worker: window jobs dispatched
	shardLatency *prom.Vec[prom.Histogram] // worker: round-trip seconds

	hedgedRemote   *prom.Counter // hedge attempts routed to a different worker
	failovers      *prom.Counter // attempts re-routed after a worker refusal/failure
	localFallbacks *prom.Counter // windows solved on the coordinator (no worker usable)

	cacheLocalHits  *prom.Counter // coordinator cache hits (no dispatch at all)
	cacheRemoteHits *prom.Counter // worker-side cache hits (dispatched, not solved)

	served       *prom.Counter // worker: shard solves answered (cache hits included)
	solveErrors  *prom.Counter // worker: shard solves that failed
	refusedDrain *prom.Counter // worker: shard solves refused while draining

	migratedSessions *prom.Counter // ECO sessions migrated between workers
	migrationErrors  *prom.Counter // ECO migrations that failed verification
}

// NewMetrics builds an empty registry.
func NewMetrics() *Metrics {
	m := &Metrics{}
	r := &m.reg
	m.routed = r.CounterVec("mclgd_cluster_routed_total", "Window jobs dispatched to each worker.", "worker")
	m.hedgedRemote = r.Counter("mclgd_cluster_hedged_total", "Hedge attempts routed to a secondary worker.")
	m.failovers = r.Counter("mclgd_cluster_failovers_total", "Attempts re-routed to the next owner after a worker refusal or failure.")
	m.localFallbacks = r.Counter("mclgd_cluster_local_fallbacks_total", "Windows solved on the coordinator because no worker was usable.")
	hits := r.CounterVec("mclgd_cluster_cache_hits_total", "Window-result cache hits by location (local = coordinator, remote = worker).", "location",
		"local", "remote")
	m.cacheLocalHits, m.cacheRemoteHits = hits.With("local"), hits.With("remote")
	m.served = r.Counter("mclgd_cluster_served_total", "Shard solves answered by this worker (cache hits included).")
	m.solveErrors = r.Counter("mclgd_cluster_solve_errors_total", "Shard solves that failed on this worker.")
	m.refusedDrain = r.Counter("mclgd_cluster_refused_draining_total", "Shard solves refused because the worker was draining.")
	m.migratedSessions = r.Counter("mclgd_cluster_migrated_sessions_total", "ECO sessions migrated between workers via delta-log replay.")
	m.migrationErrors = r.Counter("mclgd_cluster_migration_errors_total", "ECO migrations that failed replay verification.")
	m.shardLatency = r.HistogramVec("mclgd_cluster_shard_seconds", "Per-worker shard round-trip latency.", "worker")
	return m
}

func (m *Metrics) routedTo(worker string, seconds float64) {
	m.routed.With(worker).Inc()
	m.shardLatency.With(worker).Observe(seconds)
}

// Routed returns the dispatch count for one worker (test/smoke helper).
func (m *Metrics) Routed(worker string) uint64 { return m.RoutedByWorker()[worker] }

// RoutedTotal returns the dispatch count summed over all workers.
func (m *Metrics) RoutedTotal() uint64 {
	var total uint64
	for _, n := range m.RoutedByWorker() {
		total += n
	}
	return total
}

// RoutedByWorker snapshots the per-worker dispatch counts.
func (m *Metrics) RoutedByWorker() map[string]uint64 {
	out := make(map[string]uint64)
	m.routed.Each(func(worker string, c *prom.Counter) { out[worker] = c.Get() })
	return out
}

// RemoteCacheHits returns the worker-side cache-hit count observed by the
// coordinator (test/smoke helper).
func (m *Metrics) RemoteCacheHits() uint64 { return m.cacheRemoteHits.Get() }

// MigratedSessions returns the completed ECO migration count.
func (m *Metrics) MigratedSessions() uint64 { return m.migratedSessions.Get() }

// WritePrometheus renders every cluster series in the Prometheus text
// exposition format, workers sorted for scrape stability.
func (m *Metrics) WritePrometheus(w io.Writer) { m.reg.Write(w) }
