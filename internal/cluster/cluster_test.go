package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mclg/internal/core"
	"mclg/internal/design"
	"mclg/internal/eco"
	"mclg/internal/regress"
	"mclg/internal/window"
)

// clusterOptions are the windowed-solve knobs shared by every test: small
// windows so even the small benchmarks shard into several jobs.
func clusterOptions() window.Options {
	return window.Options{
		Core:          core.Options{Workers: 1},
		WindowRows:    4,
		WindowTimeout: 2 * time.Minute,
	}
}

// standaloneHash solves the design single-node and returns its placement
// digest — the reference every cluster path must reproduce bit-for-bit.
func standaloneHash(t *testing.T, bench string, scale float64) string {
	t.Helper()
	d := clusterTestDesign(t, bench, scale)
	if _, err := window.Legalize(context.Background(), d, clusterOptions()); err != nil {
		t.Fatalf("standalone Legalize: %v", err)
	}
	return regress.PositionHash(d)
}

// startWorkers launches n in-process worker daemons and returns their base
// URLs (which double as ring identities).
func startWorkers(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		wk := NewWorker(WorkerConfig{Solves: 2})
		srv := httptest.NewServer(wk.Handler())
		t.Cleanup(srv.Close)
		addrs[i] = srv.URL
	}
	return addrs
}

// TestClusterPlacementIdenticalAcrossWorkerCounts is the core acceptance
// property: on the regress trio, the cluster path's stitched placement is
// bit-identical to the standalone solve at 1, 2, and 3 workers.
func TestClusterPlacementIdenticalAcrossWorkerCounts(t *testing.T) {
	for _, c := range []struct {
		bench string
		scale float64
	}{
		{"des_perf_1", 0.004},
		{"fft_2", 0.004},
		{"superblue19", 0.002},
	} {
		t.Run(c.bench, func(t *testing.T) {
			want := standaloneHash(t, c.bench, c.scale)
			for _, n := range []int{1, 2, 3} {
				coord := NewCoordinator(CoordinatorConfig{Peers: startWorkers(t, n)})
				d := clusterTestDesign(t, c.bench, c.scale)
				st, err := coord.DispatchWindows(context.Background(), d, clusterOptions())
				if err != nil {
					t.Fatalf("%d workers: DispatchWindows: %v", n, err)
				}
				if got := regress.PositionHash(d); got != want {
					t.Fatalf("%d workers: placement %s != standalone %s", n, got, want)
				}
				if st.Solved == 0 {
					t.Fatalf("%d workers: no windows solved (%+v)", n, st)
				}
				if got := coord.Metrics().RoutedTotal(); got == 0 {
					t.Fatalf("%d workers: nothing routed remotely", n)
				}
			}
		})
	}
}

// TestClusterRemoveWorkerMidJobReroutes rips a worker out of the ring while
// a job is in flight: its first shard request triggers the membership change
// and fails, the retry re-routes along the updated preference list, and the
// stitched placement is still bit-identical to standalone.
func TestClusterRemoveWorkerMidJobReroutes(t *testing.T) {
	const bench, scale = "fft_2", 0.004
	want := standaloneHash(t, bench, scale)

	survivor := startWorkers(t, 1)[0]
	var coord *Coordinator
	var victimURL string // assigned before any dispatch can reach the handler
	var removed atomic.Bool
	victimWk := NewWorker(WorkerConfig{Solves: 2})
	victim := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == PathSolve {
			// First solve on the victim: the operator removes it mid-job.
			// The in-flight request fails; the supervised retry must land on
			// the survivor because the ring no longer lists the victim.
			if removed.CompareAndSwap(false, true) {
				coord.RemoveWorker(victimURL)
			}
			writeShardErr(w, http.StatusInternalServerError, "solver", "worker evicted mid-solve")
			return
		}
		victimWk.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(victim.Close)
	victimURL = victim.URL

	coord = NewCoordinator(CoordinatorConfig{Peers: []string{survivor, victim.URL}})
	d := clusterTestDesign(t, bench, scale)
	if _, err := coord.DispatchWindows(context.Background(), d, clusterOptions()); err != nil {
		t.Fatalf("DispatchWindows across mid-job removal: %v", err)
	}
	if got := regress.PositionHash(d); got != want {
		t.Fatalf("placement %s != standalone %s", got, want)
	}
	if !removed.Load() {
		t.Skip("routing never touched the victim (degenerate split); nothing to assert")
	}
	if nodes := coord.Workers(); len(nodes) != 1 || nodes[0] != survivor {
		t.Fatalf("ring after removal = %v, want just the survivor", nodes)
	}
	// Every window the victim failed was re-routed, so the survivor (or the
	// coordinator-local fallback) answered everything.
	if coord.Metrics().Routed(victim.URL) != 0 {
		t.Fatalf("windows recorded as served by the removed worker")
	}
}

// TestClusterSurvivesDeadWorker kills one of two workers' listeners before
// dispatch: every window it owned fails over along the preference list, the
// worker is marked down, and the placement still matches standalone.
func TestClusterSurvivesDeadWorker(t *testing.T) {
	const bench, scale = "fft_2", 0.004
	want := standaloneHash(t, bench, scale)

	addrs := startWorkers(t, 2)
	dead := httptest.NewServer(http.NotFoundHandler())
	deadAddr := dead.URL
	dead.Close() // connection refused from the first dial

	coord := NewCoordinator(CoordinatorConfig{Peers: append(addrs, deadAddr)})
	d := clusterTestDesign(t, bench, scale)
	if _, err := coord.DispatchWindows(context.Background(), d, clusterOptions()); err != nil {
		t.Fatalf("DispatchWindows with a dead worker: %v", err)
	}
	if got := regress.PositionHash(d); got != want {
		t.Fatalf("placement %s != standalone %s", got, want)
	}
}

// TestClusterFallsBackLocalWhenNoWorkerUsable runs a coordinator whose only
// peer is unreachable: every window degrades to a coordinator-local solve and
// the result is still bit-identical — a limping cluster is exactly a
// standalone node.
func TestClusterFallsBackLocalWhenNoWorkerUsable(t *testing.T) {
	const bench, scale = "fft_2", 0.004
	want := standaloneHash(t, bench, scale)

	dead := httptest.NewServer(http.NotFoundHandler())
	deadAddr := dead.URL
	dead.Close()

	coord := NewCoordinator(CoordinatorConfig{Peers: []string{deadAddr}})
	d := clusterTestDesign(t, bench, scale)
	if _, err := coord.DispatchWindows(context.Background(), d, clusterOptions()); err != nil {
		t.Fatalf("DispatchWindows with no usable workers: %v", err)
	}
	if got := regress.PositionHash(d); got != want {
		t.Fatalf("placement %s != standalone %s", got, want)
	}
	if coord.Metrics().localFallbacks.Get() == 0 {
		t.Fatal("expected coordinator-local fallbacks")
	}

	// An empty peer list is the same degenerate cluster, explicitly.
	coord2 := NewCoordinator(CoordinatorConfig{})
	d2 := clusterTestDesign(t, bench, scale)
	if _, err := coord2.DispatchWindows(context.Background(), d2, clusterOptions()); err != nil {
		t.Fatalf("DispatchWindows with no peers: %v", err)
	}
	if got := regress.PositionHash(d2); got != want {
		t.Fatalf("peerless placement %s != standalone %s", got, want)
	}
}

// TestClusterCacheHits exercises both cache tiers: the coordinator's own
// cache short-circuits a repeat dispatch without any HTTP, and a second
// coordinator sharing the same workers is served from the workers' caches
// (Cached responses) without re-solving.
func TestClusterCacheHits(t *testing.T) {
	const bench, scale = "fft_2", 0.004
	addrs := startWorkers(t, 2)

	coord := NewCoordinator(CoordinatorConfig{Peers: addrs})
	d := clusterTestDesign(t, bench, scale)
	if _, err := coord.DispatchWindows(context.Background(), d, clusterOptions()); err != nil {
		t.Fatal(err)
	}
	want := regress.PositionHash(d)
	routedBefore := coord.Metrics().RoutedTotal()

	d2 := clusterTestDesign(t, bench, scale)
	if _, err := coord.DispatchWindows(context.Background(), d2, clusterOptions()); err != nil {
		t.Fatal(err)
	}
	if got := regress.PositionHash(d2); got != want {
		t.Fatalf("repeat placement %s != %s", got, want)
	}
	if coord.Metrics().cacheLocalHits.Get() == 0 {
		t.Fatal("repeat dispatch produced no coordinator-cache hits")
	}
	if coord.Metrics().RoutedTotal() != routedBefore {
		t.Fatal("repeat dispatch re-routed windows despite local cache")
	}

	// A fresh coordinator with a cold local cache but the same workers: the
	// workers answer from their own caches.
	coord2 := NewCoordinator(CoordinatorConfig{Peers: addrs})
	d3 := clusterTestDesign(t, bench, scale)
	if _, err := coord2.DispatchWindows(context.Background(), d3, clusterOptions()); err != nil {
		t.Fatal(err)
	}
	if got := regress.PositionHash(d3); got != want {
		t.Fatalf("second-coordinator placement %s != %s", got, want)
	}
	if coord2.Metrics().RemoteCacheHits() == 0 {
		t.Fatal("second coordinator saw no worker-cache hits")
	}
}

// stallHandler wraps a worker handler and stalls PathSolve requests for the
// given window indices until the request is canceled (the hedge winning and
// the supervisor canceling the loser), proving hedges route to a different
// machine and win.
func stallHandler(next http.Handler, stalled map[int]bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == PathSolve {
			raw, _ := io.ReadAll(r.Body)
			var req solveRequest
			_ = json.Unmarshal(raw, &req)
			if stalled[req.Window] {
				<-r.Context().Done()
				writeShardErr(w, http.StatusInternalServerError, "canceled", "stalled")
				return
			}
			r.Body = io.NopCloser(strings.NewReader(string(raw)))
		}
		next.ServeHTTP(w, r)
	})
}

// TestClusterHedgeWinsOnSecondOwner makes one worker a straggler for the
// windows it primarily owns: the hedge re-issue pins the second-ranked owner
// (a different machine), wins, and the placement still matches standalone.
func TestClusterHedgeWinsOnSecondOwner(t *testing.T) {
	const bench, scale = "fft_2", 0.004
	want := standaloneHash(t, bench, scale)

	// The stalled windows are decided after routing is known: recreate the
	// routing inputs (sig and keys) exactly as the coordinator will.
	d := clusterTestDesign(t, bench, scale)
	opts := clusterOptions()
	base := core.New(opts.Core).Opts
	sig := window.Sig(d, opts.WindowRows, window.DefaultContextRows, base)
	p, err := window.Partition(d, opts.WindowRows, window.DefaultContextRows)
	if err != nil {
		t.Fatal(err)
	}

	// Ring identities come from ephemeral httptest ports, so a given server
	// pair may degenerately own all or none of the windows. Redraw servers
	// until both own at least one — the hedge needs a completing worker (to
	// cross the quantile) and a stalled one (to hedge against).
	var srvA, srvB *httptest.Server
	stalledA := map[int]bool{}
	for tries := 0; ; tries++ {
		if tries == 50 {
			t.Fatal("no non-degenerate routing split in 50 draws")
		}
		wkA := NewWorker(WorkerConfig{Solves: 2})
		wkB := NewWorker(WorkerConfig{Solves: 2})
		srvA = httptest.NewServer(stallHandler(wkA.Handler(), stalledA))
		srvB = httptest.NewServer(wkB.Handler())
		ring := NewRing([]string{srvA.URL, srvB.URL}, 0)
		aOwned, bOwned := 0, 0
		for wi := range p.Bands {
			if ring.Owner(WindowKey(sig, wi)) == srvA.URL {
				stalledA[wi] = true
				aOwned++
			} else {
				bOwned++
			}
		}
		if aOwned > 0 && bOwned > 0 {
			t.Cleanup(srvA.Close)
			t.Cleanup(srvB.Close)
			break
		}
		srvA.Close()
		srvB.Close()
		for wi := range stalledA {
			delete(stalledA, wi)
		}
	}

	// A minimal hedge quantile: the first completion (from the non-stalled
	// worker) crosses the threshold and hedges every straggler. All windows
	// must be in flight together — with one window goroutine the first
	// stalled primary would block the queue until its timeout, and hedges
	// for not-yet-started windows never launch — so the supervisor gets one
	// goroutine per window. The stalled primaries are canceled by their
	// winning hedges; the timeout is only the broken-hedge failure bound.
	opts.Core.Workers = len(p.Bands)
	opts.WindowTimeout = 30 * time.Second
	opts.HedgeQuantile = 0.01
	coord := NewCoordinator(CoordinatorConfig{Peers: []string{srvA.URL, srvB.URL}})
	st, err := coord.DispatchWindows(context.Background(), d, opts)
	if err != nil {
		t.Fatalf("DispatchWindows: %v", err)
	}
	if got := regress.PositionHash(d); got != want {
		t.Fatalf("placement %s != standalone %s", got, want)
	}
	if st.HedgesWon == 0 {
		t.Fatalf("no hedge won against the stalled primary (%+v)", st)
	}
	if coord.Metrics().hedgedRemote.Get() == 0 {
		t.Fatal("hedge attempts were not routed remotely")
	}
}

// TestWorkerDrainFlipsReadyzAndRefusesSolves pins the drain contract on the
// worker side: /readyz answers 200 before and 503 during a drain, new shard
// solves are refused 503, and session export stays available for migration.
func TestWorkerDrainFlipsReadyzAndRefusesSolves(t *testing.T) {
	wk := NewWorker(WorkerConfig{Solves: 1})
	srv := httptest.NewServer(wk.Handler())
	defer srv.Close()

	status := func(path string) int {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := status("/readyz"); got != http.StatusOK {
		t.Fatalf("/readyz before drain = %d", got)
	}

	resp, err := http.Post(srv.URL+PathDrain, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("drain = %d, want 202", resp.StatusCode)
	}
	if got := status("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("/readyz during drain = %d, want 503", got)
	}

	solveResp, err := http.Post(srv.URL+PathSolve, "application/json",
		strings.NewReader(`{"key":"k","window":0,"sub":{"row_h":1,"site_w":1,"rows":[{"y":0,"h":1,"ox":0,"sw":1,"ns":8,"r":0}],"cells":[]},"idx":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, solveResp.Body)
	solveResp.Body.Close()
	if solveResp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("solve during drain = %d, want 503", solveResp.StatusCode)
	}
	if wk.m.refusedDrain.Get() == 0 {
		t.Fatal("refused-while-draining counter not bumped")
	}

	// Drain with nothing in flight returns immediately.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := wk.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

// TestCoordinatorRoutesAwayFromDrainingWorker: after CheckPeers observes a
// draining worker's 503, no further windows route to it.
func TestCoordinatorRoutesAwayFromDrainingWorker(t *testing.T) {
	const bench, scale = "fft_2", 0.004
	want := standaloneHash(t, bench, scale)

	addrs := startWorkers(t, 2)
	resp, err := http.Post(addrs[0]+PathDrain, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	coord := NewCoordinator(CoordinatorConfig{Peers: addrs, DownTTL: time.Hour})
	coord.CheckPeers(context.Background())

	d := clusterTestDesign(t, bench, scale)
	if _, err := coord.DispatchWindows(context.Background(), d, clusterOptions()); err != nil {
		t.Fatal(err)
	}
	if got := regress.PositionHash(d); got != want {
		t.Fatalf("placement %s != standalone %s", got, want)
	}
	if coord.Metrics().refusedDrain.Get() != 0 {
		t.Fatal("coordinator still dispatched to the draining worker")
	}
	routed := coord.Metrics().RoutedByWorker()
	if routed[addrs[0]] != 0 {
		t.Fatalf("draining worker served %d windows, want 0", routed[addrs[0]])
	}
	if routed[addrs[1]] == 0 {
		t.Fatal("surviving worker served nothing")
	}
}

// ecoMoveDeltas builds a move batch over the first n movable cells, pushing
// each sites sites to the right of its original position.
func ecoMoveDeltas(d *design.Design, n int, sites float64) []eco.Delta {
	var out []eco.Delta
	for _, c := range d.Cells {
		if c.Fixed {
			continue
		}
		out = append(out, eco.Delta{
			Op: eco.OpMove, Cell: c.ID,
			X: c.X + sites*d.SiteW, Y: c.Y,
		})
		if len(out) == n {
			break
		}
	}
	return out
}

// TestECOSessionMigratesOnDrain is the session-migration contract end to
// end: create a session through the coordinator, apply deltas, drain its
// hosting worker — the session is rebuilt on the other worker by verified
// replay and keeps serving applies with a consistent hash chain.
func TestECOSessionMigratesOnDrain(t *testing.T) {
	addrs := startWorkers(t, 2)
	coord := NewCoordinator(CoordinatorConfig{Peers: addrs, DownTTL: time.Hour})
	ctx := context.Background()

	base := clusterTestDesign(t, "fft_2", 0.004)
	const id = "mig-1"
	if _, err := coord.ECOCreate(ctx, id, base, 0, 0, core.Options{Workers: 1}); err != nil {
		t.Fatalf("ECOCreate: %v", err)
	}
	origin, ok := coord.SessionHosts()[id]
	if !ok {
		t.Fatal("session host not recorded")
	}

	seq, hashBefore, err := coord.ECOApply(ctx, id, ecoMoveDeltas(base, 3, 2))
	if err != nil {
		t.Fatalf("ECOApply: %v", err)
	}
	if seq != 1 || hashBefore == "" {
		t.Fatalf("apply: seq=%d hash=%q", seq, hashBefore)
	}

	migrated, err := coord.DrainWorker(ctx, origin)
	if err != nil {
		t.Fatalf("DrainWorker: %v", err)
	}
	if len(migrated) != 1 || migrated[0] != id {
		t.Fatalf("migrated %v, want [%s]", migrated, id)
	}
	target := coord.SessionHosts()[id]
	if target == origin || target == "" {
		t.Fatalf("session still on %q after drain of %q", target, origin)
	}
	if got := coord.Metrics().MigratedSessions(); got != 1 {
		t.Fatalf("migrated-sessions metric = %d, want 1", got)
	}

	// The migrated session keeps working, continuing the same history (a
	// different target position, so the committed hash must advance).
	seq2, hashAfter, err := coord.ECOApply(ctx, id, ecoMoveDeltas(base, 1, 6))
	if err != nil {
		t.Fatalf("ECOApply after migration: %v", err)
	}
	if seq2 != 2 {
		t.Fatalf("post-migration seq = %d, want 2", seq2)
	}
	if hashAfter == "" || hashAfter == hashBefore {
		t.Fatalf("post-migration hash %q did not advance from %q", hashAfter, hashBefore)
	}
	if err := coord.ECOClose(ctx, id); err != nil {
		t.Fatalf("ECOClose: %v", err)
	}
}

// TestCoordinatorRejectsCorruptShardResponse: a worker answering with cells
// outside the window's owned set is caught at the coordinator, not stitched.
func TestCoordinatorRejectsCorruptShardResponse(t *testing.T) {
	lying := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != PathSolve {
			http.NotFound(w, r)
			return
		}
		writeJSON(w, solveResponse{Cells: []window.CellPos{{ID: 999999, X: 0, Y: 0}}})
	}))
	defer lying.Close()

	d := clusterTestDesign(t, "fft_2", 0.004)
	opts := clusterOptions()
	opts.MaxRetries = 0
	coord := NewCoordinator(CoordinatorConfig{Peers: []string{lying.URL}})
	p, err := window.Partition(d, opts.WindowRows, window.DefaultContextRows)
	if err != nil {
		t.Fatal(err)
	}
	base := core.New(opts.Core).Opts
	sig := window.Sig(d, opts.WindowRows, window.DefaultContextRows, base)
	_, err = coord.solveOne(context.Background(), d, p, 0, 0, sig, EncodeOptions(base), base)
	if err == nil || !strings.Contains(err.Error(), "outside its owned set") && !strings.Contains(err.Error(), "owns") {
		t.Fatalf("corrupt response accepted: %v", err)
	}
}

// TestMetricsExposition smoke-checks the Prometheus rendering.
func TestMetricsExposition(t *testing.T) {
	m := NewMetrics()
	m.routedTo("http://w1:9", 0.01)
	m.cacheRemoteHits.Inc()
	var sb strings.Builder
	m.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		`mclgd_cluster_routed_total{worker="http://w1:9"} 1`,
		`mclgd_cluster_cache_hits_total{location="remote"} 1`,
		"mclgd_cluster_shard_seconds_bucket",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}
