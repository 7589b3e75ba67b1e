package serve

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"mclg/internal/design"
	"mclg/internal/faults"
	"mclg/internal/gen"
	"mclg/internal/mclgerr"
	"mclg/internal/serve/report"
	"mclg/internal/window"
)

// TestRetryAfterJitterBounds pins the 429 backpressure hint: always within
// [retryAfterMin, retryAfterMax] whole seconds, and actually jittered — a
// fixed hint would synchronize every refused client onto one retry instant.
func TestRetryAfterJitterBounds(t *testing.T) {
	distinct := map[string]bool{}
	for i := 0; i < 300; i++ {
		v := retryAfterHint()
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("Retry-After %q is not an integer: %v", v, err)
		}
		if n < retryAfterMin || n > retryAfterMax {
			t.Fatalf("Retry-After %d out of [%d, %d]", n, retryAfterMin, retryAfterMax)
		}
		distinct[v] = true
	}
	if len(distinct) < 2 {
		t.Errorf("300 hints yielded %d distinct value(s); the hint is not jittered", len(distinct))
	}
}

// TestWindowedJob runs a windowed solve through the full HTTP surface: the
// response carries the supervision trace, the result caches, and the window
// counters reach /metrics.
func TestWindowedJob(t *testing.T) {
	if testing.Short() {
		t.Skip("solves a benchmark")
	}
	_, ts := newTestServer(t, Config{})
	req := &Request{Bench: "fft_2", Scale: 0.004, Windows: true, WindowRows: 4}

	var first report.Report
	if resp := post(t, ts.URL, req, &first); resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d", resp.StatusCode)
	}
	if !first.Legal || first.PosHash == "" {
		t.Fatalf("windowed job: %+v", first)
	}
	ws := first.Windows
	if ws == nil {
		t.Fatal("windowed response carries no window stats")
	}
	if ws.Windows < 2 || ws.Solved+ws.Resumed != ws.Windows {
		t.Fatalf("window stats %+v: want multiple windows, all accounted for", ws)
	}

	var second report.Report
	post(t, ts.URL, req, &second)
	if second.Cache != "hit" || second.PosHash != first.PosHash || second.Windows == nil {
		t.Errorf("cached windowed response: cache=%q hash=%s windows=%v",
			second.Cache, second.PosHash, second.Windows)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	body := string(raw)
	if !strings.Contains(body, `mclgd_windows_total{event="solved"} `+strconv.Itoa(ws.Solved)) {
		t.Errorf("/metrics missing solved window counter (stats %+v):\n%s", ws, body)
	}
	if !strings.Contains(body, `mclgd_windows_total{event="degraded"} 0`) {
		t.Error("/metrics missing pre-registered degraded counter")
	}
}

// TestWindowsAllConfig: a daemon running with WindowsAll windows eligible
// jobs without the request asking and leaves baseline methods alone.
func TestWindowsAllConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("solves a benchmark")
	}
	_, ts := newTestServer(t, Config{WindowsAll: true, WindowRows: 4})

	var rep report.Report
	if resp := post(t, ts.URL, &Request{Bench: "fft_2", Scale: 0.004}, &rep); resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d", resp.StatusCode)
	}
	if rep.Windows == nil || rep.Windows.Windows < 2 {
		t.Fatalf("WindowsAll did not window an eligible job: %+v", rep.Windows)
	}

	var base report.Report
	if resp := post(t, ts.URL, &Request{Bench: "fft_2", Scale: 0.004, Method: "dac16"}, &base); resp.StatusCode != http.StatusOK {
		t.Fatalf("baseline under WindowsAll: HTTP %d", resp.StatusCode)
	}
	if base.Windows != nil {
		t.Error("WindowsAll windowed a baseline method")
	}
}

// TestWindowedRequestValidation covers the windowed-mode request rules.
func TestWindowedRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, body := range map[string]string{
		"windows resilient":        `{"bench":"fft_2","windows":true,"resilient":true}`,
		"windows audit":            `{"bench":"fft_2","windows":true,"audit":true}`,
		"windows baseline":         `{"bench":"fft_2","windows":true,"method":"dac16"}`,
		"window_rows sans windows": `{"bench":"fft_2","window_rows":4}`,
		"hedge sans windows":       `{"bench":"fft_2","hedge":0.5}`,
		"negative window_rows":     `{"bench":"fft_2","windows":true,"window_rows":-1}`,
		"hedge out of range":       `{"bench":"fft_2","windows":true,"hedge":1.5}`,
		"exact sans windows":       `{"bench":"fft_2","exact":2}`,
		"negative exact":           `{"bench":"fft_2","windows":true,"exact":-1}`,
	} {
		t.Run(name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/legalize", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("HTTP %d, want 400", resp.StatusCode)
			}
		})
	}
}

// TestWindowedCacheKey pins the windowed content-addressing rules: windows
// and window_rows change the result, so they change the key; hedge is pure
// scheduling and must not.
func TestWindowedCacheKey(t *testing.T) {
	plain := &Request{Bench: "fft_2", Scale: 0.004}
	windowed := &Request{Bench: "fft_2", Scale: 0.004, Windows: true, WindowRows: 4}
	rows8 := &Request{Bench: "fft_2", Scale: 0.004, Windows: true, WindowRows: 8}
	hedged := &Request{Bench: "fft_2", Scale: 0.004, Windows: true, WindowRows: 4, Hedge: 0.5}
	exact := &Request{Bench: "fft_2", Scale: 0.004, Windows: true, WindowRows: 4, Exact: 2}
	for _, r := range []*Request{plain, windowed, rows8, hedged, exact} {
		if err := r.validate(); err != nil {
			t.Fatal(err)
		}
	}
	if plain.key() == windowed.key() {
		t.Error("windows must change the cache key")
	}
	if windowed.key() == rows8.key() {
		t.Error("window_rows must change the cache key")
	}
	if windowed.key() != hedged.key() {
		t.Error("hedge must not change the cache key (result-neutral)")
	}
	if windowed.key() == exact.key() {
		t.Error("exact must change the cache key (verified improvements commit)")
	}
}

// TestExactWindowedJob drives the exact refinement post-pass through the full
// HTTP surface: the response's window stats carry the per-window gap trace
// and the mclgd_exact_* series reach /metrics.
func TestExactWindowedJob(t *testing.T) {
	if testing.Short() {
		t.Skip("solves a benchmark")
	}
	_, ts := newTestServer(t, Config{})
	req := &Request{Bench: "fft_2", Scale: 0.004, Windows: true, WindowRows: 4, Exact: 2}

	var rep report.Report
	if resp := post(t, ts.URL, req, &rep); resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d", resp.StatusCode)
	}
	if !rep.Legal {
		t.Fatal("exact-refined placement not legal")
	}
	if rep.Windows == nil || rep.Windows.Exact == nil {
		t.Fatalf("response carries no exact stats: %+v", rep.Windows)
	}
	ex := rep.Windows.Exact
	if ex.Selected == 0 || ex.Selected > 2 {
		t.Errorf("selected %d windows, want 1..2", ex.Selected)
	}
	if len(ex.Gaps) != ex.Selected-ex.Skipped {
		t.Errorf("%d gap entries for %d finished windows", len(ex.Gaps), ex.Selected-ex.Skipped)
	}
	for _, g := range ex.Gaps {
		if g.Gap < 0 || g.Gap > 1 {
			t.Errorf("window %d gap %g outside [0, 1]", g.Window, g.Gap)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	body := string(raw)
	if !strings.Contains(body, `mclgd_exact_total{event="selected"} `+strconv.Itoa(ex.Selected)) {
		t.Errorf("/metrics missing exact selected counter (stats %+v)", ex)
	}
	if !strings.Contains(body, `mclgd_exact_total{event="proven"} `+strconv.Itoa(ex.Proven)) {
		t.Errorf("/metrics missing exact proven counter (stats %+v)", ex)
	}
	if !strings.Contains(body, "mclgd_exact_max_gap ") {
		t.Error("/metrics missing mclgd_exact_max_gap gauge")
	}
}

// chaosDispatcher is a WindowDispatcher that runs window.Legalize with chaos
// sabotaging each window attempt before its clean local solve.
type chaosDispatcher struct{ chaos *faults.WindowChaos }

func (c chaosDispatcher) DispatchWindows(ctx context.Context, d *design.Design, opts window.Options) (*window.Stats, error) {
	base := opts.Core
	opts.SolveWindow = func(ctx context.Context, d *design.Design, p *window.Plan, w, attempt int) (*window.Result, error) {
		sub, idx := window.BuildSub(d, p, &p.Bands[w])
		if err := c.chaos.Inject(ctx, w, attempt, sub); err != nil {
			return nil, mclgerr.Canceled(err)
		}
		return window.SolveSub(ctx, sub, idx, w, base)
	}
	return window.Legalize(ctx, d, opts)
}

// stallSeed finds a seed under which exactly one of the job's windows stalls
// persistently, so one worker wedges on it while the other commits the rest.
func stallSeed(t *testing.T, windows int) uint64 {
	t.Helper()
	for seed := uint64(1); seed < 10000; seed++ {
		c := &faults.WindowChaos{Seed: seed, StallFrac: 0.15, MaxAttempt: 1 << 30}
		n := 0
		for w := 0; w < windows; w++ {
			if c.Fault(w, 0) == faults.FaultStall {
				n++
			}
		}
		if n == 1 {
			return seed
		}
	}
	t.Fatal("no seed stalls exactly one window")
	return 0
}

// TestDrainUnderChaosJournalResume is the crash-recovery acceptance test,
// driven through the daemon lifecycle: a windowed job runs under active
// fault injection (one window stalled persistently), the server is drained
// on a short deadline — the SIGTERM path — mid-job, and the write-ahead
// journal must hold only checker-verified window commits. A restarted
// daemon pointed at the same journal directory then resumes the job,
// re-solving only the incomplete windows (verified by the window counters)
// and landing on the placement the fault-free windowed run produces.
func TestDrainUnderChaosJournalResume(t *testing.T) {
	if testing.Short() {
		t.Skip("solves benchmarks across daemon restarts")
	}
	const windowRows = 2
	req := func() *Request {
		return &Request{Bench: "fft_2", Scale: 0.004, Windows: true, WindowRows: windowRows,
			Options: &OptionsJSON{Workers: 2}}
	}

	// Fault-free reference run on a throwaway server.
	var want report.Report
	_, tsRef := newTestServer(t, Config{})
	if resp := post(t, tsRef.URL, req(), &want); resp.StatusCode != http.StatusOK {
		t.Fatalf("reference run: HTTP %d", resp.StatusCode)
	}

	e, err := gen.FindEntry("fft_2")
	if err != nil {
		t.Fatal(err)
	}
	d, err := gen.Generate(gen.SuiteSpec(e, 0.004))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := window.Partition(d, windowRows, window.DefaultContextRows)
	if err != nil {
		t.Fatal(err)
	}
	windows := len(plan.Bands)
	if windows < 3 {
		t.Fatalf("need several windows, got %d", windows)
	}

	journalDir := t.TempDir()
	chaos := &faults.WindowChaos{Seed: stallSeed(t, windows), StallFrac: 0.15, MaxAttempt: 1 << 30}
	s1 := New(Config{Workers: 1, JournalDir: journalDir, Dispatcher: chaosDispatcher{chaos}})
	ts1 := httptest.NewServer(s1.Handler())
	defer ts1.Close()

	vreq := req()
	if err := vreq.validate(); err != nil {
		t.Fatal(err)
	}
	journalPath := filepath.Join(journalDir, vreq.key()+".wal")

	done := make(chan int, 1)
	go func() {
		var eb errorBody
		resp := post(t, ts1.URL, req(), &eb)
		done <- resp.StatusCode
	}()

	// Wait until the healthy windows have committed (header + records); the
	// stalled window keeps its worker wedged in the chaos injection.
	waitFor(t, "journal to fill with verified commits", func() bool {
		raw, err := os.ReadFile(journalPath)
		return err == nil && strings.Count(string(raw), "\n") >= windows-1
	})

	// SIGTERM path: drain with a grace period the stalled window cannot
	// meet, so the job is canceled through its context mid-injection.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := s1.Drain(ctx); err == nil {
		t.Error("drain under a persistent stall should hit the grace deadline")
	}
	if status := <-done; status != http.StatusGatewayTimeout {
		t.Fatalf("chaos-stalled job: HTTP %d, want 504 (canceled, nothing committed)", status)
	}

	// The journal survived the drain: a header, then one line per verified
	// window commit. The restarted daemon must resume every one of them.
	raw, err := os.ReadFile(journalPath)
	if err != nil {
		t.Fatalf("journal gone after drain: %v", err)
	}
	resumed := strings.Count(string(raw), "\n") - 1
	if resumed < 1 || resumed >= windows {
		t.Fatalf("journal holds %d of %d windows; want the healthy ones only", resumed, windows)
	}

	// Daemon restart: same journal directory, chaos gone (the fault was
	// transient infrastructure trouble). The job resumes from the journal.
	s2 := New(Config{Workers: 1, JournalDir: journalDir})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s2.Drain(ctx)
	})

	var rep report.Report
	if resp := post(t, ts2.URL, req(), &rep); resp.StatusCode != http.StatusOK {
		t.Fatalf("resumed job: HTTP %d", resp.StatusCode)
	}
	ws := rep.Windows
	if ws == nil {
		t.Fatal("resumed response carries no window stats")
	}
	if ws.Resumed != resumed {
		t.Errorf("resumed %d windows, want %d (stats %+v)", ws.Resumed, resumed, ws)
	}
	if ws.Solved != windows-resumed {
		t.Errorf("re-solved %d windows, want only the %d incomplete ones (stats %+v)",
			ws.Solved, windows-resumed, ws)
	}
	if !rep.Legal {
		t.Error("resumed placement not legal")
	}
	if rep.PosHash != want.PosHash {
		t.Errorf("resumed hash %s != fault-free hash %s", rep.PosHash, want.PosHash)
	}
	// The job committed, so its journal is gone.
	if _, err := os.Stat(journalPath); !os.IsNotExist(err) {
		t.Errorf("journal not removed after successful commit: %v", err)
	}
}
