package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mclg/internal/bookshelf"
	"mclg/internal/cluster"
	"mclg/internal/design"
	"mclg/internal/gen"
	"mclg/internal/serve/report"
)

// newTestServer builds a server + httptest frontend; the cleanup drains it.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	return s, ts
}

// post submits a request and decodes the response into out (which may be a
// *report.Report or *errorBody), returning the HTTP response for headers.
func post(t *testing.T, url string, req *Request, out any) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/legalize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("unmarshal response (HTTP %d): %v\n%s", resp.StatusCode, err, raw)
		}
	}
	return resp
}

func TestLegalizeBenchMissThenHit(t *testing.T) {
	if testing.Short() {
		t.Skip("solves a benchmark")
	}
	_, ts := newTestServer(t, Config{})
	req := &Request{Bench: "fft_2", Scale: 0.004}

	var first report.Report
	if resp := post(t, ts.URL, req, &first); resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d", resp.StatusCode)
	}
	if !first.Legal || first.Cache != "miss" || first.PosHash == "" {
		t.Fatalf("first response: %+v", first)
	}
	var second report.Report
	post(t, ts.URL, req, &second)
	if second.Cache != "hit" {
		t.Errorf("second response cache = %q, want hit", second.Cache)
	}
	if second.PosHash != first.PosHash {
		t.Errorf("cache hit changed pos_hash: %s vs %s", second.PosHash, first.PosHash)
	}
}

// TestConcurrentIdenticalJobsSingleSolve is the dedup acceptance test: two
// concurrent jobs of the same design+options must produce exactly one solve
// and one cache hit, with bit-identical placements.
func TestConcurrentIdenticalJobsSingleSolve(t *testing.T) {
	if testing.Short() {
		t.Skip("solves a benchmark")
	}
	s, ts := newTestServer(t, Config{Workers: 2})
	req := &Request{Bench: "des_perf_1", Scale: 0.004, IncludePlacement: true}

	var wg sync.WaitGroup
	reports := make([]*report.Report, 2)
	for i := range reports {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var rep report.Report
			if resp := post(t, ts.URL, req, &rep); resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: HTTP %d", i, resp.StatusCode)
				return
			}
			reports[i] = &rep
		}(i)
	}
	wg.Wait()
	if reports[0] == nil || reports[1] == nil {
		t.Fatal("a request failed")
	}

	hits, misses := s.stats.cacheHits.Get(), s.stats.cacheMisses.Get()
	if misses != 1 || hits != 1 {
		t.Errorf("cache traffic: %d misses, %d hits, want exactly 1 and 1", misses, hits)
	}
	caches := []string{reports[0].Cache, reports[1].Cache}
	if !(caches[0] == "miss" && caches[1] == "hit" || caches[0] == "hit" && caches[1] == "miss") {
		t.Errorf("cache labels = %v, want one miss + one hit", caches)
	}
	if reports[0].PosHash != reports[1].PosHash {
		t.Errorf("pos_hash diverged: %s vs %s", reports[0].PosHash, reports[1].PosHash)
	}
	if reports[0].Placement == nil || reports[1].Placement == nil {
		t.Fatal("placements missing from responses")
	}
	if !reflect.DeepEqual(reports[0].Placement, reports[1].Placement) {
		t.Error("placements are not bit-identical")
	}
}

// TestQueueSaturation is the admission-control acceptance test: with one
// busy worker and a full queue, the next job gets 429 + Retry-After; a hard
// drain then cancels the stuck jobs through their contexts, surfacing 504s
// instead of hung waiters.
func TestQueueSaturation(t *testing.T) {
	if testing.Short() {
		t.Skip("occupies a worker with a heavy solve")
	}
	s := New(Config{Workers: 1, QueueCap: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	slow := func(scale float64) *Request {
		// Audited jobs: the audit's tight MMSIM-only re-solve runs for tens
		// of seconds at these scales, so the jobs are still busy when the
		// drain cancels them; distinct scales → distinct cache keys, so no
		// dedup interferes.
		return &Request{Bench: "superblue19", Scale: scale, Audit: true, TimeoutMS: 60000}
	}

	type outcome struct {
		status int
		body   errorBody
	}
	results := make(chan outcome, 2)
	submit := func(req *Request) {
		var eb errorBody
		resp := post(t, ts.URL, req, &eb)
		results <- outcome{resp.StatusCode, eb}
	}

	go submit(slow(0.004))
	waitFor(t, "worker busy", func() bool { return s.stats.inflight.Get() == 1 })
	go submit(slow(0.0039))
	waitFor(t, "queue occupied", func() bool { return s.stats.queueDepth.Get() == 1 })

	var eb errorBody
	resp := post(t, ts.URL, slow(0.0038), &eb)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third job: HTTP %d, want 429 (%+v)", resp.StatusCode, eb)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}
	if eb.Class != "queue_full" {
		t.Errorf("429 class = %q, want queue_full", eb.Class)
	}
	if s.stats.rejectedFull.Get() != 1 {
		t.Errorf("rejected_total{queue_full} = %d, want 1", s.stats.rejectedFull.Get())
	}

	// Hard drain: the grace period expires immediately, so the in-flight
	// and queued jobs are canceled through their contexts and their
	// waiters receive typed 504s.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err == nil {
		t.Error("hard drain should report the context error")
	}
	for i := 0; i < 2; i++ {
		select {
		case out := <-results:
			if out.status != http.StatusGatewayTimeout || out.body.Class != "canceled" {
				t.Errorf("canceled job: HTTP %d class %q, want 504 canceled", out.status, out.body.Class)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("canceled job never responded")
		}
	}
}

// TestQueuedJobDeadlineCoversWait pins the timeout_ms contract "queue wait
// included": a job still waiting for the one solve slot when its deadline
// passes gets its 504 then, not when the slot frees.
func TestQueuedJobDeadlineCoversWait(t *testing.T) {
	if testing.Short() {
		t.Skip("occupies the solve slot with a heavy solve")
	}
	s := New(Config{Workers: 1, QueueCap: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// An audited job holds the slot for tens of seconds (see
	// TestQueueSaturation); the hard drain below cancels it.
	held := make(chan int, 1)
	go func() {
		body := `{"bench":"superblue19","scale":0.004,"audit":true,"timeout_ms":60000}`
		resp, err := http.Post(ts.URL+"/v1/legalize", "application/json", strings.NewReader(body))
		if err != nil {
			t.Error(err)
			held <- 0
			return
		}
		resp.Body.Close()
		held <- resp.StatusCode
	}()
	waitFor(t, "slot held", func() bool { return s.stats.inflight.Get() == 1 })

	start := time.Now()
	var eb errorBody
	resp := post(t, ts.URL, &Request{Bench: "fft_2", Scale: 0.004, TimeoutMS: 200}, &eb)
	if wait := time.Since(start); wait > 2*time.Second {
		t.Errorf("queued job with timeout_ms 200 answered after %v, want within 2 s", wait.Round(time.Millisecond))
	}
	if resp.StatusCode != http.StatusGatewayTimeout || eb.Class != "canceled" {
		t.Errorf("queued job: HTTP %d class %q, want 504 canceled", resp.StatusCode, eb.Class)
	}
	if v := s.stats.queueDepth.Get(); v != 0 {
		t.Errorf("queue depth = %d after the queued job timed out, want 0", v)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_ = s.Drain(ctx)
	select {
	case status := <-held:
		if status != http.StatusGatewayTimeout {
			t.Errorf("held job after hard drain: HTTP %d, want 504", status)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("held job never responded to the hard drain")
	}
}

// TestDrainFinishesInFlight is the graceful-shutdown acceptance test: a job
// racing a drain still completes with an uncorrupted (verified-legal)
// result, and post-drain the server refuses work.
func TestDrainFinishesInFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("solves a benchmark")
	}
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	done := make(chan *report.Report, 1)
	go func() {
		var rep report.Report
		if resp := post(t, ts.URL, &Request{Bench: "fft_2", Scale: 0.01}, &rep); resp.StatusCode != http.StatusOK {
			t.Errorf("in-flight job: HTTP %d", resp.StatusCode)
		}
		done <- &rep
	}()
	waitFor(t, "job admitted", func() bool {
		if s.stats.inflight.Get() == 1 || s.stats.queueDepth.Get() == 1 {
			return true
		}
		// The job may already have finished — that still exercises the
		// drain-after-work path below.
		return s.stats.jobs.With("ok").Get() >= 1
	})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("graceful drain failed: %v", err)
	}
	rep := <-done
	if !rep.Legal || rep.PosHash == "" {
		t.Errorf("drained job returned a corrupt result: %+v", rep)
	}

	// Readiness flips and new work is refused with 503.
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz after drain: HTTP %d, want 503", resp.StatusCode)
	}
	var eb errorBody
	if resp := post(t, ts.URL, &Request{Bench: "fft_2", Scale: 0.004}, &eb); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit after drain: HTTP %d, want 503", resp.StatusCode)
	}
}

func TestMetricsSurface(t *testing.T) {
	if testing.Short() {
		t.Skip("solves a benchmark")
	}
	_, ts := newTestServer(t, Config{})
	req := &Request{Bench: "fft_2", Scale: 0.004}
	post(t, ts.URL, req, nil)
	post(t, ts.URL, req, nil)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	body := string(raw)
	for _, want := range []string{
		"mclgd_queue_depth 0",
		"mclgd_inflight_jobs 0",
		"mclgd_cache_hits_total 1",
		"mclgd_cache_misses_total 1",
		"mclgd_cache_entries 1",
		`mclgd_jobs_total{class="ok"} 1`,
		`mclgd_jobs_total{class="canceled"} 0`,
		`mclgd_rejected_total{reason="queue_full"} 0`,
		`mclgd_stage_seconds_bucket{stage="solve",le="+Inf"} 1`,
		`mclgd_stage_seconds_count{stage="parse"} 1`,
		`mclgd_stage_seconds_count{stage="total"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if resp.Header.Get("Content-Type") != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("metrics content type = %q", resp.Header.Get("Content-Type"))
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: HTTP %d", resp.StatusCode)
	}
}

// invalidRequests are bodies /v1/legalize refuses with 400 invalid_input;
// they also seed FuzzDecodeRequest.
var invalidRequests = []struct {
	name string
	body string
}{
	{"empty", `{}`},
	{"unknown bench", `{"bench":"nope"}`},
	{"bench and files", `{"bench":"fft_2","files":{"nodes":"x","pl":"y","scl":"z"}}`},
	{"bad method", `{"bench":"fft_2","method":"magic"}`},
	{"resilient baseline", `{"bench":"fft_2","method":"dac16","resilient":true}`},
	{"audit baseline", `{"bench":"fft_2","method":"dac16","audit":true}`},
	{"audit resilient", `{"bench":"fft_2","resilient":true,"audit":true}`},
	{"negative timeout", `{"bench":"fft_2","timeout_ms":-1}`},
	{"scale out of range", `{"bench":"fft_2","scale":99}`},
	{"files missing scl", `{"files":{"nodes":"x","pl":"y"}}`},
	{"unknown file component", `{"files":{"nodes":"x","pl":"y","scl":"z","foo":"w"}}`},
	{"unknown field", `{"bench":"fft_2","wat":1}`},
	{"removed autotune option", `{"bench":"fft_2","options":{"autotune":true}}`},
	{"malformed json", `{`},
}

func TestInvalidRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range invalidRequests {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/legalize", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var eb errorBody
			raw, _ := io.ReadAll(resp.Body)
			_ = json.Unmarshal(raw, &eb)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("HTTP %d, want 400 (%s)", resp.StatusCode, raw)
			}
			if eb.Class != "invalid_input" {
				t.Errorf("class = %q, want invalid_input", eb.Class)
			}
		})
	}
}

// bookshelfFiles serializes a design into the upload-files map.
func bookshelfFiles(t testing.TB, d *design.Design) map[string]string {
	t.Helper()
	dir := t.TempDir()
	if err := bookshelf.Write(d, filepath.Join(dir, "up.aux")); err != nil {
		t.Fatal(err)
	}
	files := map[string]string{}
	for comp, name := range map[string]string{
		"nodes": "up.nodes", "nets": "up.nets", "pl": "up.pl", "scl": "up.scl", "wts": "up.wts",
	} {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			continue // optional components may not exist
		}
		files[comp] = string(raw)
	}
	return files
}

// TestUploadBookshelf round-trips a generated design through Bookshelf file
// upload and checks the daemon legalizes it.
func TestUploadBookshelf(t *testing.T) {
	if testing.Short() {
		t.Skip("solves a benchmark")
	}
	e, err := gen.FindEntry("pci_bridge32_b")
	if err != nil {
		t.Fatal(err)
	}
	d, err := gen.Generate(gen.SuiteSpec(e, 0.004))
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{})
	var rep report.Report
	if resp := post(t, ts.URL, &Request{Files: bookshelfFiles(t, d)}, &rep); resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d", resp.StatusCode)
	}
	if !rep.Legal {
		t.Error("uploaded design not legalized")
	}
	if rep.Cells != len(d.Cells) {
		t.Errorf("cells = %d, want %d", rep.Cells, len(d.Cells))
	}
}

// TestNearMatchResubmit re-submits an upload whose cells moved by under a
// thousandth of a site, the near-match class of serve-mix. Only the pl text
// differs, so the re-submit is a cache miss that solves again; its placement
// must equal a fresh daemon's for the same input, both solves must be
// sampled for allocation accounting, and the retired warm-start series must
// read 0.
func TestNearMatchResubmit(t *testing.T) {
	if testing.Short() {
		t.Skip("solves a benchmark three times")
	}
	e, err := gen.FindEntry("pci_bridge32_b")
	if err != nil {
		t.Fatal(err)
	}
	d, err := gen.Generate(gen.SuiteSpec(e, 0.004))
	if err != nil {
		t.Fatal(err)
	}
	base := bookshelfFiles(t, d)
	rng := rand.New(rand.NewSource(431))
	for _, c := range d.Cells {
		if !c.Fixed {
			c.GX += (rng.Float64()*2 - 1) * 1e-3
			c.X = c.GX
		}
	}
	near := bookshelfFiles(t, d)
	for comp := range base {
		if (comp == "pl") == (base[comp] == near[comp]) {
			t.Fatalf("the perturbation must change pl and only pl; %s changed: %v", comp, base[comp] != near[comp])
		}
	}

	_, ts := newTestServer(t, Config{})
	var first, again report.Report
	if resp := post(t, ts.URL, &Request{Files: base}, &first); resp.StatusCode != http.StatusOK {
		t.Fatalf("first solve: HTTP %d", resp.StatusCode)
	}
	if resp := post(t, ts.URL, &Request{Files: near}, &again); resp.StatusCode != http.StatusOK {
		t.Fatalf("near-match re-submit: HTTP %d", resp.StatusCode)
	}
	if again.Cache != "miss" {
		t.Errorf("near-match re-submit cache = %q, want miss (a different exact key)", again.Cache)
	}
	if first.Warm || again.Warm {
		t.Errorf("warm = %v/%v, want false: no solve starts from another", first.Warm, again.Warm)
	}

	_, ref := newTestServer(t, Config{})
	var fresh report.Report
	if resp := post(t, ref.URL, &Request{Files: near}, &fresh); resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh daemon: HTTP %d", resp.StatusCode)
	}
	if again.PosHash != fresh.PosHash {
		t.Fatalf("near-match pos_hash %s != fresh daemon's %s", again.PosHash, fresh.PosHash)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"\nmclgd_solve_alloc_samples_total 2\n",
		"\nmclgd_warm_iterations_saved_total 0\n",
	} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("/metrics lacks %q", strings.TrimSpace(want))
		}
	}
}

// TestUploadErrorNamesComponent posts one malformed upload twice. Uploads
// parse in memory, so both refusals are byte-identical and name the
// component and line, with no server path in them.
func TestUploadErrorNamesComponent(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body, err := json.Marshal(&Request{Files: map[string]string{
		"nodes": "UCLA nodes 1.0\nNumNodes : 2\nNumTerminals : 0\n\n  a 4 10\n  a 4 10\n",
		"pl":    "UCLA pl 1.0\na 3 0 : N\n",
		"scl": "UCLA scl 1.0\nCoreRow Horizontal\n  Coordinate : 0\n  Height : 10\n  Sitewidth : 1\n" +
			"  SubrowOrigin : 0  NumSites : 50\nEnd\n",
	}})
	if err != nil {
		t.Fatal(err)
	}
	var bodies [2][]byte
	for i := range bodies {
		resp, err := http.Post(ts.URL+"/v1/legalize", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		var eb errorBody
		if err := json.Unmarshal(raw, &eb); err != nil {
			t.Fatalf("unmarshal response (HTTP %d): %v\n%s", resp.StatusCode, err, raw)
		}
		if resp.StatusCode != http.StatusBadRequest || eb.Class != "invalid_input" {
			t.Fatalf("submission %d: HTTP %d class %q, want 400 invalid_input: %s", i, resp.StatusCode, eb.Class, raw)
		}
		bodies[i] = raw
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Errorf("the same upload got two different refusals:\n%s%s", bodies[0], bodies[1])
	}
	if !bytes.Contains(bodies[0], []byte("nodes:6")) {
		t.Errorf("refusal does not name the component and line nodes:6: %s", bodies[0])
	}
	if bytes.Contains(bodies[0], []byte(os.TempDir())) {
		t.Errorf("refusal leaks the server's temp directory %s: %s", os.TempDir(), bodies[0])
	}
}

// TestUploadNeedsNoTempDir submits a valid upload to a daemon whose temp
// directory does not exist. Nothing on the upload path touches the file
// system, so it must be legalized, not refused as the client's fault.
func TestUploadNeedsNoTempDir(t *testing.T) {
	if testing.Short() {
		t.Skip("solves a benchmark")
	}
	e, err := gen.FindEntry("fft_2")
	if err != nil {
		t.Fatal(err)
	}
	d, err := gen.Generate(gen.SuiteSpec(e, 0.004))
	if err != nil {
		t.Fatal(err)
	}
	files := bookshelfFiles(t, d)
	t.Setenv("TMPDIR", filepath.Join(t.TempDir(), "missing"))

	_, ts := newTestServer(t, Config{})
	var out struct {
		report.Report
		errorBody
	}
	if resp := post(t, ts.URL, &Request{Files: files, IncludePlacement: true}, &out); resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d %s: %s", resp.StatusCode, out.Class, out.Error)
	}
	rep := out.Report
	if !rep.Legal || rep.Cells != len(d.Cells) || rep.Placement == nil || len(rep.Placement.X) != len(d.Cells) {
		t.Errorf("legal=%v cells=%d placement=%+v, want a legal placement of %d cells",
			rep.Legal, rep.Cells, rep.Placement, len(d.Cells))
	}
}

// TestRequestKeysPinned pins key to exact digests. Window journals are
// named <key>.wal and the result cache is content-addressed by key, so a
// change in how it is derived must be deliberate.
func TestRequestKeysPinned(t *testing.T) {
	cases := []struct {
		name string
		req  *Request
		key  string
	}{
		{
			name: "upload",
			req: &Request{Files: map[string]string{
				"nodes": "UCLA nodes 1.0\n  a 4 10\n", "pl": "UCLA pl 1.0\na 3 0 : N\n",
				"scl": "s", "nets": "n", "wts": "w",
			}},
			key: "35b408c69076be3793d13a4751b2c74509ec5b2f763fe065925d51964cf47121",
		},
		{
			name: "bench",
			req:  &Request{Bench: "fft_2", Scale: 0.004},
			key:  "9e0f3fbd7a1d2cbd2f4e30b6ffbe5df5bad8ed07858d4bc10c183a95dac46da8",
		},
	}
	for _, tc := range cases {
		if err := tc.req.validate(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := tc.req.key(); got != tc.key {
			t.Errorf("%s: key = %s, want %s", tc.name, got, tc.key)
		}
	}
}

// TestCacheKeyCanonicalization pins the content-addressing rules: omitted
// options hash like spelled-out defaults, Workers is result-neutral and
// excluded, and any result-affecting knob or source change changes the key.
func TestCacheKeyCanonicalization(t *testing.T) {
	base := &Request{Bench: "fft_2", Scale: 0.004}
	if err := base.validate(); err != nil {
		t.Fatal(err)
	}
	k := base.key()

	explicit := &Request{Bench: "fft_2", Scale: 0.004,
		Options: &OptionsJSON{Lambda: 1000, Beta: 0.5, Theta: 0.5, Eps: 1e-4}}
	if err := explicit.validate(); err != nil {
		t.Fatal(err)
	}
	if explicit.key() != k {
		t.Error("spelled-out defaults must hash like omitted options")
	}

	workers := &Request{Bench: "fft_2", Scale: 0.004, Options: &OptionsJSON{Workers: 8}}
	if err := workers.validate(); err != nil {
		t.Fatal(err)
	}
	if workers.key() != k {
		t.Error("workers must not enter the cache key (determinism contract)")
	}

	for name, req := range map[string]*Request{
		"lambda":    {Bench: "fft_2", Scale: 0.004, Options: &OptionsJSON{Lambda: 500}},
		"scale":     {Bench: "fft_2", Scale: 0.005},
		"bench":     {Bench: "fft_1", Scale: 0.004},
		"method":    {Bench: "fft_2", Scale: 0.004, Method: "dac16"},
		"resilient": {Bench: "fft_2", Scale: 0.004, Resilient: true},
	} {
		if err := req.validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if req.key() == k {
			t.Errorf("changing %s must change the cache key", name)
		}
	}
}

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestAuditOnCommit exercises the audit wiring: a job with "audit": true
// comes back with a sealed certificate whose re-run placement matches the
// served one, the certificate survives the cache, an unaudited request is a
// distinct cache entry without one, and the audit counters and stage
// histogram appear on /metrics.
func TestAuditOnCommit(t *testing.T) {
	if testing.Short() {
		t.Skip("solves and audits a benchmark")
	}
	_, ts := newTestServer(t, Config{})
	req := &Request{Bench: "fft_2", Scale: 0.004, Audit: true}

	var first report.Report
	if resp := post(t, ts.URL, req, &first); resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d", resp.StatusCode)
	}
	cert := first.Certificate
	if cert == nil {
		t.Fatal("audited response carries no certificate")
	}
	if !cert.Pass || !cert.Verify() {
		t.Fatalf("certificate not passing/verifying: %s", cert.Summary())
	}
	if cert.PosHash != first.PosHash {
		t.Errorf("certificate PosHash %s != report PosHash %s", cert.PosHash, first.PosHash)
	}

	var second report.Report
	post(t, ts.URL, req, &second)
	if second.Cache != "hit" || second.Certificate == nil || second.Certificate.Hash != cert.Hash {
		t.Errorf("cached audited response lost or changed the certificate (cache=%q)", second.Cache)
	}

	var plain report.Report
	post(t, ts.URL, &Request{Bench: "fft_2", Scale: 0.004}, &plain)
	if plain.Cache != "miss" {
		t.Errorf("unaudited request shared the audited cache entry (cache=%q)", plain.Cache)
	}
	if plain.Certificate != nil {
		t.Error("unaudited response carries a certificate")
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	body := string(raw)
	for _, want := range []string{
		`mclgd_audit_total{result="pass"} 1`,
		`mclgd_audit_total{result="fail"} 0`,
		`mclgd_audit_total{result="error"} 0`,
		`mclgd_stage_seconds_count{stage="audit"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestAuditAllConfig: a daemon running with AuditAll certifies eligible jobs
// without the request asking, and skips ineligible (baseline) jobs instead
// of refusing them.
func TestAuditAllConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("solves and audits a benchmark")
	}
	_, ts := newTestServer(t, Config{AuditAll: true})

	var rep report.Report
	if resp := post(t, ts.URL, &Request{Bench: "fft_2", Scale: 0.004}, &rep); resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d", resp.StatusCode)
	}
	if rep.Certificate == nil || !rep.Certificate.Pass {
		t.Fatal("AuditAll did not attach a passing certificate to an eligible job")
	}

	var base report.Report
	if resp := post(t, ts.URL, &Request{Bench: "fft_2", Scale: 0.004, Method: "dac16"}, &base); resp.StatusCode != http.StatusOK {
		t.Fatalf("baseline under AuditAll: HTTP %d", resp.StatusCode)
	}
	if base.Certificate != nil {
		t.Error("AuditAll audited a baseline method")
	}
}

// TestTenantGate429 pins the admission-gate surface: a tenant past its
// token-bucket limit gets 429 with the gate's Retry-After hint, interactive
// priority keeps its reserved headroom when batch is refused, cache hits are
// never charged, and tenant identity stays out of the cache key.
func TestTenantGate429(t *testing.T) {
	if testing.Short() {
		t.Skip("solves a benchmark")
	}
	// Burst 2.5 at 0.5 tokens/s: batch needs 1 + 0.25*2.5 = 1.625 tokens, so
	// the first batch job is admitted (2.5 -> 1.5) and the second refused,
	// while an interactive job (need 1) still fits the remaining 1.5.
	gate := cluster.NewTenantGate(map[string]cluster.TenantLimit{
		"acme": {Rate: 0.5, Burst: 2.5},
	})
	_, ts := newTestServer(t, Config{Gate: gate})

	var rep report.Report
	if resp := post(t, ts.URL, &Request{Bench: "fft_2", Scale: 0.004, Tenant: "acme"}, &rep); resp.StatusCode != http.StatusOK {
		t.Fatalf("first batch job: HTTP %d", resp.StatusCode)
	}

	var eb errorBody
	resp := post(t, ts.URL, &Request{Bench: "des_perf_1", Scale: 0.004, Tenant: "acme"}, &eb)
	if resp.StatusCode != http.StatusTooManyRequests || eb.Class != "rate_limited" {
		t.Fatalf("second batch job: HTTP %d class %q, want 429 rate_limited", resp.StatusCode, eb.Class)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 carried no Retry-After hint")
	} else if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Fatalf("Retry-After %q is not a positive integer second count", ra)
	}

	// The refused job at interactive priority fits the reserved headroom.
	var irep report.Report
	if resp := post(t, ts.URL, &Request{Bench: "des_perf_1", Scale: 0.004, Tenant: "acme", Priority: "interactive"}, &irep); resp.StatusCode != http.StatusOK {
		t.Fatalf("interactive job: HTTP %d", resp.StatusCode)
	}

	// A repeat of the first job is a cache hit: served without a charge, and
	// under a different tenant name — tenant is not part of the cache key.
	admittedBefore, _ := gate.Counts()
	var hit report.Report
	if resp := post(t, ts.URL, &Request{Bench: "fft_2", Scale: 0.004, Tenant: "someone-else"}, &hit); resp.StatusCode != http.StatusOK {
		t.Fatalf("cache-hit job: HTTP %d", resp.StatusCode)
	}
	if hit.Cache != "hit" || hit.PosHash != rep.PosHash {
		t.Fatalf("repeat job: cache=%q pos_hash match=%v, want a hit with the same placement", hit.Cache, hit.PosHash == rep.PosHash)
	}
	if admittedAfter, _ := gate.Counts(); admittedAfter != admittedBefore {
		t.Fatalf("cache hit charged the tenant gate (%d -> %d admissions)", admittedBefore, admittedAfter)
	}

	// Refusals are visible on /metrics.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(raw), `mclgd_rejected_total{reason="rate_limited"} 1`) {
		t.Error("/metrics missing the rate_limited rejection count")
	}

	// A malformed priority is an input error, not a gate decision.
	var bad errorBody
	if resp := post(t, ts.URL, &Request{Bench: "fft_2", Scale: 0.004, Priority: "urgent"}, &bad); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("priority \"urgent\": HTTP %d, want 400", resp.StatusCode)
	}
}
