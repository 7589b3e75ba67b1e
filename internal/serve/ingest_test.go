package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"maps"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mclg/internal/bookshelf"
	"mclg/internal/gen"
	"mclg/internal/serve/report"
)

// tinyUpload is a two-cell upload whose nodes and nets texts open with the
// given header lines.
func tinyUpload(nodesHeader, netsHeader string) map[string]string {
	return map[string]string{
		"nodes": "UCLA nodes 1.0\n" + nodesHeader + "  a 4 10\n  b 3 10\n",
		"pl":    "UCLA pl 1.0\na 3 0 : N\nb 10 2 : N\n",
		"scl": "UCLA scl 1.0\nCoreRow Horizontal\n  Coordinate : 0\n  Height : 10\n  Sitewidth : 1\n" +
			"  SubrowOrigin : 0  NumSites : 50\nEnd\n",
		"nets": "UCLA nets 1.0\n" + netsHeader + "NetDegree : 2 n\n  a I : 0 0\n  b O : 1 1\n",
	}
}

// serveOnce runs one request body through h and returns the response and
// the bytes the process allocated meanwhile.
func serveOnce(t *testing.T, h http.Handler, body []byte) (*httptest.ResponseRecorder, uint64) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/legalize", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	h.ServeHTTP(rec, req)
	runtime.ReadMemStats(&m1)
	return rec, m1.TotalAlloc - m0.TotalAlloc
}

// TestHostileHeadersDoNotPresize sends the handler few-hundred-byte uploads
// whose headers declare two billion records, a count past int's range or a
// negative one, once or a thousand times over. Each header only sizes what
// the text can hold, once, so each upload is solved or refused as its
// records alone decide, the way a reader that skips the headers sees it,
// with under 1 MiB allocated per few-hundred-byte request.
func TestHostileHeadersDoNotPresize(t *testing.T) {
	s := New(Config{})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	h := s.Handler()
	marshal := func(files map[string]string) []byte {
		body, err := json.Marshal(&Request{Files: files})
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	// The header-free upload, served twice: once to prime the solver's
	// pools, once more (a cache hit) to check the answer holds.
	var want report.Report
	for i := 0; i < 2; i++ {
		rec, _ := serveOnce(t, h, marshal(tinyUpload("", "")))
		if rec.Code != http.StatusOK {
			t.Fatalf("header-free upload: HTTP %d: %s", rec.Code, rec.Body)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &want); err != nil {
			t.Fatal(err)
		}
	}
	for _, count := range []string{"2000000000", "99999999999999999999", "-7"} {
		nodesHeader := "NumNodes : " + count + "\nNumTerminals : " + count + "\n"
		netsHeader := "NumNets : " + count + "\nNumPins : " + count + "\n"
		t.Run("solved/"+count, func(t *testing.T) {
			body := marshal(tinyUpload(nodesHeader, netsHeader))
			if len(body) > 600 {
				t.Fatalf("body is %d bytes, want a few hundred", len(body))
			}
			rec, alloc := serveOnce(t, h, body)
			var got report.Report
			if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &got) != nil {
				t.Fatalf("HTTP %d: %s", rec.Code, rec.Body)
			}
			if got.Cache != "miss" || got.PosHash != want.PosHash || got.Cells != want.Cells {
				t.Errorf("cache %s, pos_hash %s, %d cells; want a miss with %s and %d cells",
					got.Cache, got.PosHash, got.Cells, want.PosHash, want.Cells)
			}
			if alloc >= 1<<20 {
				t.Errorf("serving a %d-byte upload allocated %d bytes, want < 1 MiB", len(body), alloc)
			}
		})
		t.Run("refused/"+count, func(t *testing.T) {
			files := tinyUpload(nodesHeader, netsHeader)
			files["nets"] += "  zz I : 0 0\n"
			rec, alloc := serveOnce(t, h, marshal(files))
			var eb errorBody
			if rec.Code != http.StatusBadRequest || json.Unmarshal(rec.Body.Bytes(), &eb) != nil {
				t.Fatalf("HTTP %d: %s", rec.Code, rec.Body)
			}
			if want := `mclg: invalid input: bookshelf: nets:7: unknown node "zz"`; eb.Error != want {
				t.Errorf("refusal %q, want %q", eb.Error, want)
			}
			if alloc >= 1<<20 {
				t.Errorf("refusing the upload allocated %d bytes, want < 1 MiB", alloc)
			}
		})
	}
	// Repeated, a header sizes the storage once: the thousand copies cost
	// their bytes, not a thousand presizes.
	t.Run("repeated", func(t *testing.T) {
		const count = "2000000000"
		nodesHeader := strings.Repeat("NumNodes : "+count+"\nNumTerminals : "+count+"\n", 1000)
		netsHeader := strings.Repeat("NumNets : "+count+"\nNumPins : "+count+"\n", 1000)
		body := marshal(tinyUpload(nodesHeader, netsHeader))
		rec, alloc := serveOnce(t, h, body)
		var got report.Report
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &got) != nil {
			t.Fatalf("HTTP %d: %s", rec.Code, rec.Body)
		}
		if got.Cache != "miss" || got.PosHash != want.PosHash || got.Cells != want.Cells {
			t.Errorf("cache %s, pos_hash %s, %d cells; want a miss with %s and %d cells",
				got.Cache, got.PosHash, got.Cells, want.PosHash, want.Cells)
		}
		if limit := 64 * len(body); alloc >= uint64(limit) {
			t.Errorf("serving a %d-byte upload allocated %d bytes, want < 64 per byte (%d)", len(body), alloc, limit)
		}
	})
}

// TestValidateReadsUploadInPlace validates uploads held as Files, as an
// /v1/eco create carries them, and as the views of a decoded body: neither
// is copied, so validating allocates nothing.
func TestValidateReadsUploadInPlace(t *testing.T) {
	files := tinyUpload("", "")
	body, err := json.Marshal(&Request{Files: files})
	if err != nil {
		t.Fatal(err)
	}
	var decoded Request
	if err := ReadRequest(bytes.NewReader(body), &decoded); err != nil {
		t.Fatal(err)
	}
	defer decoded.Release()
	for name, req := range map[string]*Request{"Files": {Files: files}, "views": &decoded} {
		if allocs := testing.AllocsPerRun(10, func() {
			if err := req.validate(); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s: validate took %g allocations, want 0", name, allocs)
		}
	}
}

// TestConcurrentUploadsKeepTheirBodies guards both ingest pools: the body
// buffers and the stores uploads are parsed into. It sends eight small
// distinct uploads and their repeats at once, then, while the stores hold
// those parses, a larger upload and one whose nets name an unknown node
// beside more repeats, so leaders, joined followers and cache hits all hand
// their buffers back, and stores grow, fail and go back, while other
// requests read theirs. Every answer, pos_hash or refusal, must equal a
// sequential run's: a buffer or a store given back while still read would
// parse, hash or solve another request's bytes (and under -race, report
// the overlap).
func TestConcurrentUploadsKeepTheirBodies(t *testing.T) {
	if testing.Short() {
		t.Skip("solves nine benchmarks")
	}
	upload := func(name string, scale float64, seed int64) map[string]string {
		e, err := gen.FindEntry(name)
		if err != nil {
			t.Fatal(err)
		}
		spec := gen.SuiteSpec(e, scale)
		spec.Seed += seed
		d, err := gen.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		return bookshelfFiles(t, d)
	}
	var uploads []map[string]string
	for i, name := range []string{"fft_2", "des_perf_1", "pci_bridge32_b", "superblue19"} {
		uploads = append(uploads, upload(name, 0.004, int64(i)), upload(name, 0.004, int64(i+4)))
	}
	small := len(uploads)
	failing := upload("fft_2", 0.004, 9)
	failing["nets"] += "  zz I : 0 0\n"
	uploads = append(uploads, upload("fft_2", 0.03, 0), failing)
	var bodies [][]byte
	for _, files := range uploads {
		body, err := json.Marshal(&Request{Files: files})
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	// send returns the job's pos_hash, or its status and error for a
	// refusal.
	send := func(url string, body []byte) (string, error) {
		resp, err := http.Post(url+"/v1/legalize", "application/json", bytes.NewReader(body))
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		var rep struct {
			report.Report
			errorBody
		}
		if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
			return "", fmt.Errorf("HTTP %d, decode error %v", resp.StatusCode, err)
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Sprintf("HTTP %d: %s", resp.StatusCode, rep.Error), nil
		}
		return rep.PosHash, nil
	}

	_, ref := newTestServer(t, Config{})
	want := make([]string, len(bodies))
	for i, body := range bodies {
		h, err := send(ref.URL, body)
		if err != nil {
			t.Fatalf("sequential upload %d: %v", i, err)
		}
		want[i] = h
	}
	for i, h := range want[:len(want)-1] {
		if strings.HasPrefix(h, "HTTP ") {
			t.Fatalf("sequential upload %d: %s, want a pos_hash", i, h)
		}
	}
	if h := want[len(want)-1]; !strings.HasPrefix(h, "HTTP 400: ") {
		t.Fatalf("sequential run: failing upload %q, want a 400 refusal", h)
	}

	_, ts := newTestServer(t, Config{Workers: 2, QueueCap: 64})
	const repeats = 4
	burst := func(n int) {
		var wg sync.WaitGroup
		for r := 0; r < repeats; r++ {
			for i, body := range bodies[:n] {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got, err := send(ts.URL, body)
					if err != nil {
						t.Errorf("upload %d, send %d: %v", i, r, err)
					} else if got != want[i] {
						t.Errorf("upload %d, send %d: %s, sequential run %s", i, r, got, want[i])
					}
				}()
			}
		}
		wg.Wait()
	}
	burst(small)
	burst(len(bodies))
}

// TestLargeUploadLeavesTheStore checks that an upload over maxStoredUpload
// bytes parses into storage of its own: the store it was given keeps the
// design it held and builds the next small upload's design in it again.
func TestLargeUploadLeavesTheStore(t *testing.T) {
	files := tinyUpload("", "")
	var s bookshelf.Store
	held, err := (&Request{Files: files}).loadDesign(&s)
	if err != nil {
		t.Fatal(err)
	}
	large := maps.Clone(files)
	large["wts"] = strings.Repeat("#\n", maxStoredUpload/2) // comment lines
	d, err := (&Request{Files: large}).loadDesign(&s)
	if err != nil {
		t.Fatal(err)
	}
	if d == held {
		t.Fatal("the large upload was parsed into the store")
	}
	if again, err := (&Request{Files: files}).loadDesign(&s); err != nil || again != held {
		t.Fatalf("a small upload after it: design %p, %v; want the store's %p", again, err, held)
	}
}

// jobRecords captures the attributes of the daemon's "job done" records.
type jobRecords struct {
	mu   sync.Mutex
	jobs []map[string]slog.Value
}

func (l *jobRecords) Enabled(context.Context, slog.Level) bool { return true }
func (l *jobRecords) WithAttrs([]slog.Attr) slog.Handler       { return l }
func (l *jobRecords) WithGroup(string) slog.Handler            { return l }

func (l *jobRecords) Handle(_ context.Context, rec slog.Record) error {
	if rec.Message != "job done" {
		return nil
	}
	attrs := map[string]slog.Value{}
	rec.Attrs(func(a slog.Attr) bool {
		attrs[a.Key] = a.Value
		return true
	})
	l.mu.Lock()
	l.jobs = append(l.jobs, attrs)
	l.mu.Unlock()
	return nil
}

func (l *jobRecords) all() []map[string]slog.Value {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]map[string]slog.Value(nil), l.jobs...)
}

// TestJobDoneLogsAuditTime checks that the "job done" record names an
// audited job's audit time beside its parse and solve times, and logs 0 for
// a job that was not audited.
func TestJobDoneLogsAuditTime(t *testing.T) {
	if testing.Short() {
		t.Skip("solves and audits a benchmark")
	}
	log := &jobRecords{}
	_, ts := newTestServer(t, Config{Logger: slog.New(log)})
	for _, audit := range []bool{true, false} {
		var rep report.Report
		if resp := post(t, ts.URL, &Request{Bench: "fft_2", Scale: 0.004, Audit: audit}, &rep); resp.StatusCode != http.StatusOK {
			t.Fatalf("audit=%v: HTTP %d", audit, resp.StatusCode)
		}
	}
	jobs := log.all()
	if len(jobs) != 2 {
		t.Fatalf("%d job done records, want 2", len(jobs))
	}
	for i, audited := range []bool{true, false} {
		job := jobs[i]
		for _, key := range []string{"parse_ms", "solve_ms", "audit_ms", "total_ms"} {
			if v, ok := job[key]; !ok || v.Kind() != slog.KindFloat64 {
				t.Fatalf("record %d: %s = %v, want a float64 (record %v)", i, key, v, job)
			}
		}
		audit, total := job["audit_ms"].Float64(), job["total_ms"].Float64()
		switch {
		case audited && (audit <= 0 || audit > total):
			t.Errorf("audited job: audit_ms %g, want in (0, total_ms %g]", audit, total)
		case !audited && audit != 0:
			t.Errorf("unaudited job: audit_ms %g, want 0", audit)
		}
	}
	if s := fmt.Sprint(jobs[0]["class"]); !strings.Contains(s, "ok") {
		t.Errorf("audited job class %s, want ok", s)
	}
}
