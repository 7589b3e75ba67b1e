package mclg

// End-to-end test for the cluster: a real coordinator mclgd sharding window
// solves over two real worker mclgd processes, driven by the real mclg
// client. Verifies the determinism contract at the process level (cluster
// placement bit-identical to a standalone windowed run), survival of a
// worker SIGKILL mid-job, and the coordinator's cluster metrics surface.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestE2EClusterSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	mclgd := buildCmd(t, "mclgd")
	mclg := buildCmd(t, "mclg")

	// drainLogs goroutines keep the stderr pipes from filling; they exit on
	// their own once the deferred kills close the pipes.
	w1, w1url, w1sc := startDaemon(t, mclgd, "mclgd worker listening", "-role", "worker")
	defer func() { _ = w1.Process.Kill() }()
	_ = drainLogs(w1sc)
	w2, w2url, w2sc := startDaemon(t, mclgd, "mclgd worker listening", "-role", "worker")
	defer func() { _ = w2.Process.Kill() }()
	_ = drainLogs(w2sc)

	const windowRows = "4"
	coord, coordURL, csc := startDaemon(t, mclgd, "mclgd listening",
		"-role", "coordinator", "-peers", w1url+","+w2url,
		"-windows", "-window-rows", windowRows)
	defer func() { _ = coord.Process.Kill() }()
	_ = drainLogs(csc)

	type rep struct {
		Legal   bool   `json:"legal"`
		PosHash string `json:"pos_hash"`
	}
	run := func(args ...string) rep {
		t.Helper()
		cmd := exec.Command(mclg, append(args, "-json")...)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("mclg %v: %v\nstderr:\n%s", args, err, stderr.String())
		}
		var r rep
		if err := json.Unmarshal(out, &r); err != nil {
			t.Fatalf("mclg %v: unparsable -json output: %v\n%s", args, err, out)
		}
		if !r.Legal || r.PosHash == "" {
			t.Fatalf("mclg %v: not a legal result: %+v", args, r)
		}
		return r
	}

	// The determinism contract, end to end: for each benchmark the cluster
	// (coordinator + 2 workers, shards over HTTP) must produce the placement
	// digest of a standalone windowed run with the same partition.
	trio := []struct {
		bench string
		scale string
	}{
		{"des_perf_1", "0.004"},
		{"fft_2", "0.004"},
		{"superblue19", "0.002"},
	}
	for _, bm := range trio {
		remote := run("-server", coordURL, "-bench", bm.bench, "-scale", bm.scale)
		local := run("-bench", bm.bench, "-scale", bm.scale, "-windows", "-window-rows", windowRows)
		if remote.PosHash != local.PosHash {
			t.Errorf("%s@%s: cluster pos_hash %s != standalone windowed %s",
				bm.bench, bm.scale, remote.PosHash, local.PosHash)
		}
	}

	// Kill a worker mid-job: a slow windowed job is in flight when worker 1
	// dies without warning (SIGKILL, no drain). The coordinator must fail
	// over and still deliver the bit-identical placement. The job is about
	// 150 windows of a 100k-cell design, seconds of shard traffic.
	type result struct {
		rep rep
		err error
		out string
	}
	slowArgs := []string{"-server", coordURL, "-bench", "superblue19", "-scale", fmt.Sprint(slowScale), "-json"}
	inFlight := make(chan result, 1)
	go func() {
		out, err := exec.Command(mclg, slowArgs...).Output()
		var r rep
		if err == nil {
			err = json.Unmarshal(out, &r)
		}
		inFlight <- result{r, err, string(out)}
	}()
	if !waitMetrics(t, coordURL, 30*time.Second, "mclgd_inflight_jobs 1") {
		t.Fatal("the windowed job never reached the coordinator's pool")
	}
	time.Sleep(300 * time.Millisecond) // let shard solves reach the workers
	if err := w1.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	var crashed result
	select {
	case crashed = <-inFlight:
	case <-time.After(120 * time.Second):
		t.Fatal("windowed job never completed after the worker crash")
	}
	if crashed.err != nil {
		t.Fatalf("job failed across the worker crash: %v\n%s", crashed.err, crashed.out)
	}
	if !crashed.rep.Legal {
		t.Errorf("job across the worker crash returned an illegal result: %+v", crashed.rep)
	}
	local := run("-bench", "superblue19", "-scale", fmt.Sprint(slowScale),
		"-windows", "-window-rows", windowRows)
	if crashed.rep.PosHash != local.PosHash {
		t.Errorf("worker crash changed the placement: cluster %s != standalone %s",
			crashed.rep.PosHash, local.PosHash)
	}

	// The coordinator's metrics must show real shard traffic: every worker
	// was routed to, and the cluster series are all present.
	resp, err := http.Get(coordURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	metrics := string(raw)
	for _, series := range []string{
		"mclgd_cluster_routed_total",
		"mclgd_cluster_hedged_total",
		"mclgd_cluster_failovers_total",
		"mclgd_cluster_local_fallbacks_total",
		"mclgd_cluster_cache_hits_total",
	} {
		if !strings.Contains(metrics, series) {
			t.Errorf("coordinator /metrics missing %s", series)
		}
	}
	routed := 0
	for _, wurl := range []string{w1url, w2url} {
		needle := `mclgd_cluster_routed_total{worker="` + wurl + `"}`
		found := false
		for _, line := range strings.Split(metrics, "\n") {
			if strings.HasPrefix(line, needle) {
				found = true
				var n int
				if _, err := fmt.Sscanf(line[len(needle):], "%d", &n); err == nil {
					routed += n
				}
			}
		}
		if !found {
			t.Errorf("coordinator /metrics has no routed counter for %s", wurl)
		}
	}
	if routed == 0 {
		t.Error("coordinator routed no window jobs to its workers")
	}
	// The kill must have landed mid-job: some shard bound for the dead
	// worker failed over to the survivor or fell back to a local solve.
	recovered := 0
	for _, line := range strings.Split(metrics, "\n") {
		for _, series := range []string{"mclgd_cluster_failovers_total", "mclgd_cluster_local_fallbacks_total"} {
			if strings.HasPrefix(line, series) {
				var n int
				if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &n); err == nil {
					recovered += n
				}
			}
		}
	}
	if recovered == 0 {
		t.Error("no shard failed over or fell back locally: the worker kill missed the job")
	}
}
