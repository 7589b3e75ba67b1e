package serve

import (
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"mclg/internal/core"
	"mclg/internal/serve/report"
	"mclg/internal/window"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/metrics.golden from the current exposition")

// TestMetricsGolden pins the whole /metrics exposition byte for byte: every
// series the daemon exports, driven to fixed values (fixed histogram
// observations included), in its exact order with its HELP and TYPE lines
// and the pre-registered zero series. Dashboards and perfbench scrape these
// names, so any drift must be deliberate.
func TestMetricsGolden(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, CacheCap: 4, WarmCap: 2})
	st := s.stats

	st.queueDepth.Add(3)
	st.inflight.Add(2)

	// Five results through a 4-entry cache: 4 resident, 1 eviction.
	for _, k := range []string{"a", "b", "c", "d", "e"} {
		f, _, _ := s.cache.join(k)
		s.cache.complete(k, f, &report.Report{Design: k})
	}
	st.cacheHits.Add(7)
	st.cacheMisses.Add(5)

	// Three topologies through a 2-state warm store: 2 resident, 1 eviction.
	for _, k := range []string{"t1", "t2", "t3"} {
		s.warm.GetOrCreate(k, core.NewWarmState)
	}
	st.warmHits.Add(4)
	st.warmMisses.Add(1)
	st.warmIterSaved.Add(1234567)

	st.solveAllocs.Add(9876543)
	st.solveSamples.Add(6)
	st.rejectedFull.Add(1)
	st.rejectedDraining.Add(2)
	st.rejectedLimited.Add(3)

	st.audits.With("pass").Inc()
	st.audits.With("pass").Inc()
	st.audits.With("fail").Inc()
	st.windowDone(&window.Stats{
		Solved: 5, Resumed: 1, Retries: 2, Panics: 1, HedgesIssued: 3, HedgesWon: 1, Degraded: 1,
		Exact: &window.ExactStats{Selected: 2, Improved: 1, Proven: 1, Skipped: 1, MaxGap: 0.125},
	})
	st.exactDone(&window.ExactStats{Selected: 1, MaxGap: 0.0625}) // lower gap: max holds

	st.ecoSessions.Add(2)
	st.ecoEvents.With("created").Add(3)
	st.ecoEvents.With("deltas").Add(17)
	st.ecoEvents.With("closed").Add(1)
	st.ecoApplies.With("ok").Inc()
	st.ecoApplies.With("ok").Inc()
	st.ecoApplies.With("invalid_input").Inc()

	st.jobs.With("ok").Inc()
	st.jobs.With("ok").Inc()
	st.jobs.With("canceled").Inc()
	st.jobs.With("panic").Inc()

	// One observation per bucket region, exact binary fractions so the sums
	// print identically everywhere; 96 s lands only in +Inf.
	obs := []float64{0.0009765625, 0.0078125, 0.5, 4, 96}
	for i, stage := range []string{"parse", "solve", "audit", "total", "eco_create", "eco_apply", "eco_commit"} {
		for _, v := range obs[:1+i%len(obs)] {
			st.stages.With(stage).Observe(v)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("testdata", "metrics.golden"), got)
}

// checkGolden compares got to the golden file at path, rewriting it instead
// under -update.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s (run with -update to generate): %v", path, err)
	}
	if string(got) != string(want) {
		t.Fatalf("/metrics drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestMallocsMatchesMemStats pins what mclgd_solve_allocs_total counts:
// the runtime/metrics sum mallocs reads is runtime.MemStats.Mallocs. Read
// back to back they may differ only by what other goroutines allocate in
// between; a missing counter (tiny allocations, say) is off by thousands.
func TestMallocsMatchesMemStats(t *testing.T) {
	s := mallocSamples()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	n := mallocs(s)
	if n < ms.Mallocs || n-ms.Mallocs > 64 {
		t.Fatalf("mallocs = %d, MemStats.Mallocs = %d", n, ms.Mallocs)
	}
}
