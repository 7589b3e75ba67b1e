package cluster

import (
	"context"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"mclg/internal/serve"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/metrics.golden from the current exposition")

// TestMetricsGolden pins the /metrics exposition of a coordinator daemon
// byte for byte: the daemon's own series at zero followed, through
// serve.Config.ExtraMetrics, by the tenant gate and every cluster series
// driven to fixed values — two named workers with fixed shard latencies
// included — in the order mclgd appends them.
func TestMetricsGolden(t *testing.T) {
	g, _ := gateAt(map[string]TenantLimit{"acme": {Rate: 1, Burst: 1}})
	g.Admit("acme", PriorityInteractive) // admitted: spends the only token
	g.Admit("acme", PriorityInteractive) // throttled
	g.Admit("other", PriorityBatch)      // unlimited tenant: admitted

	m := NewMetrics()
	// w2 routes first; the exposition still lists workers sorted.
	m.routedTo("http://w2:9", 0.0078125)
	m.routedTo("http://w1:9", 0.5)
	m.routedTo("http://w1:9", 96)
	m.hedgedRemote.Add(2)
	m.failovers.Add(3)
	m.localFallbacks.Add(1)
	m.cacheLocalHits.Add(4)
	m.cacheRemoteHits.Add(5)
	m.served.Add(6)
	m.solveErrors.Add(1)
	m.refusedDrain.Add(2)
	m.migratedSessions.Add(1)
	m.migrationErrors.Add(1)

	s := serve.New(serve.Config{Workers: 1, ExtraMetrics: func(w io.Writer) {
		g.WritePrometheus(w)
		m.WritePrometheus(w)
	}})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		_ = s.Drain(context.Background())
	}()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join("testdata", "metrics.golden")
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
