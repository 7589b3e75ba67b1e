package mclg

// End-to-end tests for the serving layer: a real mclgd process driven by
// the real mclg client binary over HTTP, including SIGTERM drain.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// startMclgd launches the daemon on an ephemeral port and returns its base
// URL plus the running command. The caller owns shutdown.
func startMclgd(t *testing.T, bin string, extraArgs ...string) (*exec.Cmd, string, *bufio.Scanner) {
	t.Helper()
	return startDaemon(t, bin, "mclgd listening", extraArgs...)
}

// startDaemon launches an mclgd process in any role and waits for the given
// structured announcement line (standalone/coordinator say "mclgd listening",
// the worker role says "mclgd worker listening") plus a ready /readyz.
func startDaemon(t *testing.T, bin, readyMsg string, extraArgs ...string) (*exec.Cmd, string, *bufio.Scanner) {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0"}, extraArgs...)
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// The first structured log line announces the bound address.
	sc := bufio.NewScanner(stderr)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var addr string
	for sc.Scan() {
		var ev struct {
			Msg  string `json:"msg"`
			Addr string `json:"addr"`
		}
		if json.Unmarshal(sc.Bytes(), &ev) == nil && ev.Msg == readyMsg {
			addr = ev.Addr
			break
		}
	}
	if addr == "" {
		_ = cmd.Process.Kill()
		t.Fatalf("mclgd never announced %q", readyMsg)
	}
	url := "http://" + addr
	for i := 0; i < 100; i++ {
		resp, err := http.Get(url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return cmd, url, sc
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	_ = cmd.Process.Kill()
	t.Fatal("mclgd never became ready")
	return nil, "", nil
}

// waitMetrics polls a daemon's /metrics until every want line is present,
// reporting whether that happened within the timeout.
func waitMetrics(t *testing.T, url string, timeout time.Duration, want ...string) bool {
	t.Helper()
	for deadline := time.Now().Add(timeout); time.Now().Before(deadline); {
		resp, err := http.Get(url + "/metrics")
		if err != nil {
			t.Fatalf("metrics scrape: %v", err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		all := true
		for _, w := range want {
			all = all && strings.Contains(string(raw), w)
		}
		if all {
			return true
		}
		time.Sleep(20 * time.Millisecond)
	}
	return false
}

// slowScale is a superblue19 scale (about 100k cells) whose plain solve
// still takes seconds on a 2-vCPU machine, for tests that need a job in
// flight and then need it to finish.
const slowScale = 0.2

// drainLogs consumes the daemon's remaining stderr so the process never
// blocks on a full pipe, returning everything read.
func drainLogs(sc *bufio.Scanner) chan string {
	out := make(chan string, 1)
	go func() {
		var sb strings.Builder
		for sc.Scan() {
			sb.WriteString(sc.Text())
			sb.WriteByte('\n')
		}
		out <- sb.String()
	}()
	return out
}

// TestE2EMclgJSONLocal checks that a local (serverless) -json run emits the
// same machine-readable schema the daemon returns.
func TestE2EMclgJSONLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	mclg := buildCmd(t, "mclg")
	out, err := exec.Command(mclg, "-bench", "fft_2", "-scale", "0.004", "-json").Output()
	if err != nil {
		t.Fatalf("mclg -json: %v\n%s", err, out)
	}
	var rep struct {
		Design     string  `json:"design"`
		Legal      bool    `json:"legal"`
		Converged  bool    `json:"converged"`
		Iterations int     `json:"iterations"`
		PosHash    string  `json:"pos_hash"`
		WallMS     float64 `json:"wall_ms"`
		Cache      string  `json:"cache"`
	}
	if err := json.Unmarshal(out, &rep); err != nil {
		t.Fatalf("stdout is not one JSON document: %v\n%s", err, out)
	}
	if rep.Design != "fft_2" || !rep.Legal || !rep.Converged || rep.Iterations == 0 || rep.PosHash == "" {
		t.Errorf("unexpected report: %+v", rep)
	}
	if rep.Cache != "" {
		t.Errorf("local run must not claim a cache disposition, got %q", rep.Cache)
	}
}

// TestE2EClientRetryAfterFullQueue saturates a tiny daemon (pool 1, queue 1)
// with slow jobs, verifies raw submissions are refused with 429 + Retry-After,
// and then checks that `mclg -retry` rides out the refusals: it backs off as
// told and ultimately returns a legal result once capacity frees up.
func TestE2EClientRetryAfterFullQueue(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	mclgd := buildCmd(t, "mclgd")
	mclg := buildCmd(t, "mclg")
	daemon, url, sc := startMclgd(t, mclgd, "-pool", "1", "-queue", "1")
	logs := drainLogs(sc)
	defer func() { _ = daemon.Process.Kill(); <-logs }()

	// Deliberately slow jobs: superblue19 at a scale that takes seconds,
	// each at a distinct scale so the daemon's identical-request coalescing
	// cannot merge them — every post must claim its own pool or queue slot.
	scaleSeq := 0
	nextSlowBody := func() string {
		scaleSeq++
		return fmt.Sprintf(`{"bench":"superblue19","scale":%g}`, slowScale-float64(scaleSeq)*0.001)
	}
	post := func(body string) (*http.Response, error) {
		return http.Post(url+"/v1/legalize", "application/json", strings.NewReader(body))
	}
	postSlow := func() (*http.Response, error) { return post(nextSlowBody()) }
	launchSlow := func() {
		body := nextSlowBody() // on this goroutine: scaleSeq is not shared
		go func() {
			resp, err := post(body)
			if err != nil {
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}()
	}
	launchSlow() // occupies the pool
	launchSlow() // occupies the queue

	// Wait until the daemon's own gauges show both slots taken, then a raw
	// probe must be refused. Probing before saturation would be admitted and
	// block for the whole job — the metrics gauge avoids that race.
	if !waitMetrics(t, url, 10*time.Second, "mclgd_inflight_jobs 1", "mclgd_queue_depth 1") {
		t.Fatal("daemon with -pool 1 -queue 1 never filled up under two slow jobs")
	}
	resp, err := postSlow()
	if err != nil {
		t.Fatalf("probe post: %v", err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("probe against a full daemon: HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("queue-full 429 carried no Retry-After hint")
	}

	// The retrying client must survive the full queue. Capture stdout and
	// stderr separately: -json keeps stdout to one document, while the retry
	// chatter lands on stderr.
	cmd := exec.Command(mclg, "-server", url, "-retry", "8", "-bench", "fft_2", "-scale", "0.004", "-json")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("mclg -retry 8 failed against a saturated daemon: %v\nstderr:\n%s", err, stderr.String())
	}
	var rep struct {
		Legal   bool   `json:"legal"`
		PosHash string `json:"pos_hash"`
	}
	if err := json.Unmarshal(out, &rep); err != nil {
		t.Fatalf("client -json output unparsable: %v\n%s", err, out)
	}
	if !rep.Legal || rep.PosHash == "" {
		t.Errorf("retried job returned %+v, want a legal result", rep)
	}
	// Saturation was confirmed milliseconds before the client launched and
	// the stacked jobs hold the daemon for seconds, so the client must have
	// been refused at least once and said so.
	if s := stderr.String(); !strings.Contains(s, "server busy (HTTP 429), retry") {
		t.Errorf("client stderr carries no retry message despite a saturated daemon:\n%s", s)
	}
}

func TestE2EMclgdServeSubmitAndDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	mclgd := buildCmd(t, "mclgd")
	mclg := buildCmd(t, "mclg")
	daemon, url, sc := startMclgd(t, mclgd)
	logs := drainLogs(sc)
	defer func() { _ = daemon.Process.Kill() }()

	// Submit the same benchmark twice through the client: first a solve,
	// then a cache hit with the identical placement digest.
	type rep struct {
		Legal   bool   `json:"legal"`
		Cache   string `json:"cache"`
		PosHash string `json:"pos_hash"`
	}
	submit := func() rep {
		// -json keeps stdout to exactly one JSON document (chatter goes
		// to stderr), so capture stdout alone.
		out, err := exec.Command(mclg, "-server", url, "-bench", "fft_2", "-scale", "0.004", "-json").Output()
		if err != nil {
			t.Fatalf("client submit failed: %v\n%s", err, out)
		}
		var r rep
		if err := json.Unmarshal(out, &r); err != nil {
			t.Fatalf("client -json output unparsable: %v\n%s", err, out)
		}
		return r
	}
	first := submit()
	if !first.Legal || first.Cache != "miss" {
		t.Fatalf("first submit: %+v, want legal miss", first)
	}
	second := submit()
	if !second.Legal || second.Cache != "hit" || second.PosHash != first.PosHash {
		t.Fatalf("second submit: %+v, want hit with pos_hash %s", second, first.PosHash)
	}

	// The observability surface reflects the traffic.
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"mclgd_cache_hits_total 1",
		"mclgd_cache_misses_total 1",
		`mclgd_jobs_total{class="ok"} 1`,
	} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// SIGTERM while a heavier job is in flight: the job must complete with
	// a verified-legal result and the daemon must exit 0 after draining.
	type clientResult struct {
		rep rep
		err error
		out string
	}
	inFlight := make(chan clientResult, 1)
	go func() {
		out, err := exec.Command(mclg, "-server", url, "-bench", "superblue19",
			"-scale", fmt.Sprint(slowScale), "-json").Output()
		var r rep
		if err == nil {
			err = json.Unmarshal(out, &r)
		}
		inFlight <- clientResult{r, err, string(out)}
	}()
	if !waitMetrics(t, url, 30*time.Second, "mclgd_inflight_jobs 1") {
		t.Fatal("the heavier job never reached the daemon's pool")
	}
	if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	select {
	case res := <-inFlight:
		if res.err != nil {
			t.Fatalf("in-flight job failed across SIGTERM: %v\n%s", res.err, res.out)
		}
		if !res.rep.Legal {
			t.Errorf("drained job returned an illegal result: %+v", res.rep)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("in-flight job never completed after SIGTERM")
	}

	waitErr := make(chan error, 1)
	go func() { waitErr <- daemon.Wait() }()
	select {
	case err := <-waitErr:
		if err != nil {
			t.Fatalf("mclgd exited uncleanly after SIGTERM: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("mclgd never exited after SIGTERM")
	}
	if lg := <-logs; !strings.Contains(lg, "mclgd stopped") {
		t.Errorf("daemon logs missing drain completion:\n%s", lg)
	}
}

// TestE2EMclgdRefusesUnusableDirs starts mclgd with a journal or ECO
// directory below a regular file, which no mkdir can create: in either role
// the daemon must exit 2 naming the mkdir error instead of serving.
func TestE2EMclgdRefusesUnusableDirs(t *testing.T) {
	mclgd := buildCmd(t, "mclgd")
	file := filepath.Join(t.TempDir(), "F")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-journal-dir", filepath.Join(file, "j")},
		{"-eco-dir", filepath.Join(file, "e")},
		{"-role", "worker", "-eco-dir", filepath.Join(file, "e")},
	} {
		// A daemon that serves instead is killed at the deadline.
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		out, err := exec.CommandContext(ctx, mclgd, append([]string{"-addr", "127.0.0.1:0"}, args...)...).CombinedOutput()
		cancel()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
			t.Errorf("mclgd %v: %v, want exit code 2:\n%s", args, err, out)
			continue
		}
		if want := "mclgd: mkdir " + file + ": not a directory\n"; string(out) != want {
			t.Errorf("mclgd %v printed %q, want %q", args, out, want)
		}
	}
}

// TestE2EMclgServerParity runs the same jobs through mclg locally and through
// mclg -server against one mclgd: both build the daemon's request, so an
// accepted job reports the same placement, rung, window counts and
// certificate, and a refused one prints the same error line and exits 2.
func TestE2EMclgServerParity(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	mclgd := buildCmd(t, "mclgd")
	mclg := buildCmd(t, "mclg")
	daemon, url, sc := startMclgd(t, mclgd)
	logs := drainLogs(sc)
	defer func() { _ = daemon.Process.Kill(); <-logs }()

	type parity struct {
		PosHash  string `json:"pos_hash"`
		Legal    bool   `json:"legal"`
		Method   string `json:"method"`
		Rung     string `json:"rung"`
		Attempts int    `json:"attempts"`
		Windows  *struct {
			Total        int `json:"total"`
			Solved       int `json:"solved"`
			Resumed      int `json:"resumed"`
			Retries      int `json:"retries"`
			Panics       int `json:"panics"`
			HedgesIssued int `json:"hedges_issued"`
			HedgesWon    int `json:"hedges_won"`
			Degraded     int `json:"degraded"`
		} `json:"windows"`
		Certificate *struct {
			PosHash string `json:"pos_hash"`
		} `json:"certificate"`
	}
	job := []string{"-bench", "fft_2", "-scale", "0.004"}
	for _, flags := range [][]string{
		nil,
		{"-resilient"},
		{"-windows", "-window-rows", "4"},
		{"-method", "dac16"},
		{"-audit"},
	} {
		var reps [2]parity
		var outs [2]string
		for i, mode := range [][]string{nil, {"-server", url}} {
			args := append(append(append(append([]string{}, mode...), job...), flags...), "-json")
			out, err := exec.Command(mclg, args...).Output()
			if err != nil {
				t.Fatalf("mclg %v: %v\n%s", args, err, out)
			}
			if err := json.Unmarshal(out, &reps[i]); err != nil {
				t.Fatalf("mclg %v: stdout is not one JSON document: %v\n%s", args, err, out)
			}
			outs[i] = string(out)
		}
		local, served := reps[0], reps[1]
		if !local.Legal || local.PosHash == "" {
			t.Errorf("%v: local run %+v, want a legal placement", flags, local)
		}
		if (local.Windows == nil) != (served.Windows == nil) ||
			local.Windows != nil && *local.Windows != *served.Windows ||
			(local.Certificate == nil) != (served.Certificate == nil) ||
			local.Certificate != nil && local.Certificate.PosHash != served.Certificate.PosHash {
			t.Errorf("%v: window counts or certificate differ:\nlocal:\n%s\nserved:\n%s", flags, outs[0], outs[1])
		}
		local.Windows, served.Windows, local.Certificate, served.Certificate = nil, nil, nil, nil
		if local != served {
			t.Errorf("%v: local %+v, served %+v", flags, local, served)
		}
	}

	for _, flags := range [][]string{
		{"-method", "bogus"},
		{"-windows", "-resilient"},
		{"-hedge", "0.5"},
		{"-windows", "-exact", "-1"},
	} {
		var lines [2]string
		for i, mode := range [][]string{nil, {"-server", url}} {
			args := append(append(append([]string{}, mode...), job...), flags...)
			out, err := exec.Command(mclg, args...).CombinedOutput()
			if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
				t.Fatalf("mclg %v: %v, want exit code 2:\n%s", args, err, out)
			}
			lines[i] = string(out)
		}
		if lines[0] != lines[1] || !strings.HasPrefix(lines[0], "mclg: ") || strings.Count(lines[0], "\n") != 1 {
			t.Errorf("%v: want one identical error line, got local %q, served %q", flags, lines[0], lines[1])
		}
	}
}
