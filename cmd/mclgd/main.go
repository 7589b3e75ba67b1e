// Command mclgd is the resident legalization daemon: it accepts
// legalization jobs over HTTP, solves at most -pool of them at once while up
// to -queue more wait, in arrival order, for a slot (a waiting job still ends
// at its own deadline), caches results by content, and drains gracefully on
// SIGTERM.
//
//	mclgd -addr :8080 -pool 2 -queue 8 -cache 128
//	curl -s localhost:8080/v1/legalize -d '{"bench":"fft_2","scale":0.004}'
//	curl -s localhost:8080/metrics
//
// With -role it also runs as one node of a multi-node cluster: a
// coordinator accepts the same /v1 API and ships window solves to worker
// daemons over the shard protocol, a worker serves shard solves and hosted
// ECO sessions.
//
//	mclgd -role worker -addr :8081
//	mclgd -role coordinator -addr :8080 -peers http://localhost:8081 -windows
//
// See docs/serving.md for the single-node API and docs/cluster.md for the
// cluster topology, shard protocol, and failure matrix.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // handlers served only behind the -pprof flag
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mclg/internal/cluster"
	"mclg/internal/serve"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		role         = flag.String("role", "standalone", "node role: standalone | coordinator | worker")
		peers        = flag.String("peers", "", "comma-separated worker base URLs (coordinator role), e.g. http://h1:8081,http://h2:8081")
		tenantLimits = flag.String("tenant-limits", "", "per-tenant admission rate limits, tenant=rate/burst[,...]; \"*\" is the default tenant (empty = unlimited)")
		pool         = flag.Int("pool", 2, "solve slots: jobs solved at once (shard solves with -role worker)")
		queueCap     = flag.Int("queue", 8, "jobs that may wait for a solve slot (admissions past it get 429)")
		cacheCap     = flag.Int("cache", 128, "result cache capacity in entries (negative disables)")
		auditAll     = flag.Bool("audit", false, "audit every eligible job on commit (method ours, non-resilient): responses carry sealed optimality certificates")
		windowsAll   = flag.Bool("windows", false, "run every eligible job (method ours, non-resilient, non-audit) through fault-isolated windowed legalization")
		windowRows   = flag.Int("window-rows", 0, "default rows per window for windowed jobs (0 = 16)")
		hedgeQ       = flag.Float64("hedge", 0, "default straggler-hedging quantile in (0,1] for windowed jobs (0 = off)")
		exactK       = flag.Int("exact", 0, "default exact-refinement window count for windowed jobs: re-solve the K worst windows with the branch-and-bound legalizer after stitch (0 = off)")
		journalDir   = flag.String("journal-dir", "", "directory, created at startup, for per-job write-ahead window journals; a restarted daemon resumes interrupted windowed jobs from it (empty = journaling off)")
		ecoDir       = flag.String("eco-dir", "", "directory, created at startup, for durable /v1/eco session delta logs; a restarted daemon replays them to resume live sessions (empty = sessions are memory-only)")
		ecoSessions  = flag.Int("eco-sessions", 8, "max concurrently open /v1/eco sessions")
		pprofOn      = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (off by default)")
		jobTimeout   = flag.Duration("job-timeout", 60*time.Second, "default per-job deadline (requests may shorten it)")
		maxJobTime   = flag.Duration("max-job-timeout", 2*time.Minute, "hard cap on any per-job deadline")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "grace period for in-flight jobs on SIGTERM before they are canceled")
	)
	flag.Parse()

	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))

	limits, err := cluster.ParseTenantLimits(*tenantLimits)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mclgd:", err)
		os.Exit(2)
	}
	// The durable directories are made once, here: a daemon that cannot
	// make them refuses to start rather than serve without durability.
	for _, dir := range []string{*journalDir, *ecoDir} {
		if dir == "" {
			continue
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "mclgd:", err)
			os.Exit(2)
		}
	}

	switch *role {
	case "worker":
		runWorker(logger, *addr, *pool, *ecoDir, *ecoSessions, *drainTimeout)
		return
	case "standalone", "coordinator":
	default:
		fmt.Fprintf(os.Stderr, "mclgd: unknown -role %q (want standalone, coordinator, or worker)\n", *role)
		os.Exit(2)
	}

	cfg := serve.Config{
		Workers:           *pool,
		QueueCap:          *queueCap,
		CacheCap:          *cacheCap,
		DefaultJobTimeout: *jobTimeout,
		MaxJobTimeout:     *maxJobTime,
		AuditAll:          *auditAll,
		WindowsAll:        *windowsAll,
		WindowRows:        *windowRows,
		HedgeQuantile:     *hedgeQ,
		ExactWindows:      *exactK,
		JournalDir:        *journalDir,
		ECODir:            *ecoDir,
		ECOSessionCap:     *ecoSessions,
		Logger:            logger,
	}

	var extra []func(w io.Writer)
	if len(limits) > 0 {
		gate := cluster.NewTenantGate(limits)
		cfg.Gate = gate
		extra = append(extra, gate.WritePrometheus)
		logger.Info("tenant gate enabled", "limits", cluster.FormatTenantLimits(limits))
	}
	if *role == "coordinator" {
		var workerAddrs []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				workerAddrs = append(workerAddrs, p)
			}
		}
		coord := cluster.NewCoordinator(cluster.CoordinatorConfig{
			Peers:  workerAddrs,
			Logger: logger,
		})
		cfg.Dispatcher = coord
		extra = append(extra, coord.Metrics().WritePrometheus)
		pctx, pcancel := context.WithTimeout(context.Background(), 5*time.Second)
		coord.CheckPeers(pctx)
		pcancel()
		logger.Info("coordinator role", "peers", workerAddrs)
	}
	if len(extra) > 0 {
		cfg.ExtraMetrics = func(w io.Writer) {
			for _, f := range extra {
				f(w)
			}
		}
	}

	srv := serve.New(cfg)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mclgd:", err)
		os.Exit(2)
	}
	handler := srv.Handler()
	if *pprofOn {
		// The pprof handlers register themselves on http.DefaultServeMux at
		// import time; mounting that mux under /debug/ keeps the profiling
		// surface opt-in and the service mux otherwise untouched.
		mux := http.NewServeMux()
		mux.Handle("/debug/", http.DefaultServeMux)
		mux.Handle("/", handler)
		handler = mux
		logger.Info("pprof enabled", "path", "/debug/pprof/")
	}
	logger.Info("mclgd listening", "addr", ln.Addr().String(), "role", *role,
		"pool", *pool, "queue", *queueCap, "cache", *cacheCap,
		"audit", *auditAll, "windows", *windowsAll, "journal_dir", *journalDir,
		"eco_dir", *ecoDir, "eco_sessions", *ecoSessions)
	serveUntilSignal(logger, ln, handler, srv.Drain, *drainTimeout)
	logger.Info("mclgd stopped")
}

// runWorker serves the shard protocol: remote window solves and hosted ECO
// sessions. On SIGTERM the worker flips /readyz to 503 (so coordinators stop
// routing to it), finishes in-flight shard jobs within the grace period, and
// exits; hosted sessions are migrated by the coordinator's drain call before
// the signal in an orchestrated drain, or resumed from durable logs after.
func runWorker(logger *slog.Logger, addr string, pool int, ecoDir string, ecoSessions int, drainTimeout time.Duration) {
	wk := cluster.NewWorker(cluster.WorkerConfig{
		ID:         addr,
		Solves:     pool,
		ECODir:     ecoDir,
		SessionCap: ecoSessions,
		Logger:     logger,
	})

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mclgd:", err)
		os.Exit(2)
	}
	logger.Info("mclgd worker listening", "addr", ln.Addr().String(),
		"pool", pool, "eco_dir", ecoDir, "eco_sessions", ecoSessions)
	serveUntilSignal(logger, ln, wk.Handler(), wk.Drain, drainTimeout)
	logger.Info("mclgd worker stopped")
}

// serveUntilSignal serves handler on ln until SIGINT or SIGTERM, then drains
// first, so in-flight jobs finish (or are canceled at the grace deadline)
// and their responses flush, and only then stops the listener.
func serveUntilSignal(logger *slog.Logger, ln net.Listener, handler http.Handler, drain func(context.Context) error, grace time.Duration) {
	httpSrv := &http.Server{Handler: handler}
	errCh := make(chan error, 1)
	go func() {
		if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		logger.Info("draining", "signal", sig.String(), "grace", grace.String())
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, "mclgd:", err)
		os.Exit(2)
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := drain(drainCtx); err != nil {
		logger.Warn("drain deadline passed with jobs in flight", "err", err.Error())
	}
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		logger.Warn("http shutdown", "err", err.Error())
	}
}
