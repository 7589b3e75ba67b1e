package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mclg/internal/eco"
	"mclg/internal/gen"
	"mclg/internal/serve/report"
)

// serveHTTP wraps an existing Server in an httptest frontend and returns
// its base URL; cleanup closes the frontend and drains the server.
func serveHTTP(t *testing.T, s *Server) string {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	return ts.URL
}

// postECO submits one /v1/eco action and decodes the response.
func postECO(t *testing.T, url string, req *ecoRequest) (*ecoResponse, *http.Response) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/eco", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out ecoResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("unmarshal eco response: %v\n%s", err, raw)
		}
	}
	return &out, resp
}

// ecoMoves builds a valid move batch for the fft_2@0.004 bench: the first n
// movable cells pushed to distinct legal-ish targets inside the core.
func ecoMoves(t *testing.T, n int) []eco.Delta {
	t.Helper()
	e, err := gen.FindEntry("fft_2")
	if err != nil {
		t.Fatal(err)
	}
	d, err := gen.Generate(gen.SuiteSpec(e, 0.004))
	if err != nil {
		t.Fatal(err)
	}
	var out []eco.Delta
	for _, c := range d.Cells {
		if c.Fixed {
			continue
		}
		out = append(out, eco.Delta{
			Op: eco.OpMove, Cell: c.ID,
			X: d.Core.Lo.X + float64(4+2*len(out))*d.SiteW,
			Y: d.Core.Lo.Y + float64(1+len(out)%3)*d.RowHeight,
		})
		if len(out) == n {
			return out
		}
	}
	t.Fatalf("bench has fewer than %d movable cells", n)
	return nil
}

// TestECOSessionLifecycle drives the full create → apply → commit → close
// loop over HTTP against an in-memory (non-durable) registry.
func TestECOSessionLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("solves a benchmark")
	}
	_, ts := newTestServer(t, Config{})

	created, resp := postECO(t, ts.URL, &ecoRequest{Action: "create", Bench: "fft_2", Scale: 0.004})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create: HTTP %d", resp.StatusCode)
	}
	if created.Session == "" || created.Seq != 0 || created.PosHash == "" {
		t.Fatalf("create response: %+v", created)
	}

	applied, resp := postECO(t, ts.URL, &ecoRequest{
		Action: "apply", Session: created.Session, Deltas: ecoMoves(t, 3),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("apply: HTTP %d", resp.StatusCode)
	}
	if applied.Seq != 1 || applied.Apply == nil || applied.Apply.Runs == 0 {
		t.Fatalf("apply response: %+v", applied)
	}
	if applied.PosHash == created.PosHash {
		t.Fatalf("apply did not change the placement hash")
	}

	committed, resp := postECO(t, ts.URL, &ecoRequest{
		Action: "commit", Session: created.Session, IncludePlacement: true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("commit: HTTP %d", resp.StatusCode)
	}
	cert := committed.Certificate
	if cert == nil || !cert.Pass || !cert.Match || !cert.Legal {
		t.Fatalf("commit certificate: %+v", cert)
	}
	if cert.PosHash != applied.PosHash {
		t.Fatalf("certificate hash %s != applied hash %s", cert.PosHash, applied.PosHash)
	}
	if committed.Placement == nil || len(committed.Placement.X) != committed.Cells {
		t.Fatalf("commit placement missing or wrong size: %+v", committed.Placement)
	}

	if _, resp = postECO(t, ts.URL, &ecoRequest{Action: "close", Session: created.Session}); resp.StatusCode != http.StatusOK {
		t.Fatalf("close: HTTP %d", resp.StatusCode)
	}
	// The session is gone: further applies are invalid input.
	if _, resp = postECO(t, ts.URL, &ecoRequest{
		Action: "apply", Session: created.Session, Deltas: ecoMoves(t, 1),
	}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("apply after close: HTTP %d, want 400", resp.StatusCode)
	}
}

// TestECOCreateDefaultsScaleLikeLegalize pins the create's design source to
// /v1/legalize's: a bench without scale builds the design at the default
// scale 0.01 on both endpoints, not the paper-size design that scale 0 means
// to the generator.
func TestECOCreateDefaultsScaleLikeLegalize(t *testing.T) {
	if testing.Short() {
		t.Skip("solves a benchmark")
	}
	_, ts := newTestServer(t, Config{})
	var rep report.Report
	if resp := post(t, ts.URL, &Request{Bench: "fft_2"}, &rep); resp.StatusCode != http.StatusOK {
		t.Fatalf("legalize: HTTP %d", resp.StatusCode)
	}
	created, resp := postECO(t, ts.URL, &ecoRequest{Action: "create", Bench: "fft_2"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create: HTTP %d", resp.StatusCode)
	}
	if created.Cells != rep.Cells {
		t.Errorf("create without scale opened %d cells, /v1/legalize of the same source has %d", created.Cells, rep.Cells)
	}
}

// TestECOInvalidRequests pins the request validation and typed rejection
// surface: malformed actions, missing sessions, and invalid deltas all fail
// with 400 and never create state.
func TestECOInvalidRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	cases := []*ecoRequest{
		{Action: "mutate"},
		{Action: "create", Bench: "fft_2", Scale: 0.004, Session: "bad id!"},
		{Action: "create", Bench: "fft_2", Scale: 0.004, Deltas: []eco.Delta{{Op: eco.OpDelete, Cell: 1}}},
		{Action: "apply", Deltas: []eco.Delta{{Op: eco.OpDelete, Cell: 1}}},
		{Action: "apply", Session: "nope", Deltas: []eco.Delta{{Op: eco.OpDelete, Cell: 1}}},
		{Action: "commit"},
		{Action: "close", Session: "nope"},
	}
	for _, req := range cases {
		if _, resp := postECO(t, ts.URL, req); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%+v: HTTP %d, want 400", req, resp.StatusCode)
		}
	}
	if n := s.eco.count(); n != 0 {
		t.Fatalf("invalid requests left %d sessions", n)
	}
}

// TestECOReservedSessionRefused pins the slot a create holds while it runs:
// apply, commit and close on it get a typed 400 and leave the reservation
// in place, instead of reaching the session that does not exist yet.
func TestECOReservedSessionRefused(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	id, err := s.eco.reserve("pending")
	if err != nil {
		t.Fatal(err)
	}
	defer s.eco.install(id, nil)
	for _, req := range []*ecoRequest{
		{Action: "apply", Session: id, Deltas: []eco.Delta{{Op: eco.OpDelete, Cell: 1}}},
		{Action: "commit", Session: id},
		{Action: "close", Session: id},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/eco", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Errorf("%s on a reserved slot: %v", req.Action, err)
			continue
		}
		var eb errorBody
		err = json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || err != nil || eb.Class != "invalid_input" {
			t.Errorf("%s on a reserved slot: HTTP %d, class %q (decode error %v), want 400 invalid_input",
				req.Action, resp.StatusCode, eb.Class, err)
		}
	}
	if n := s.eco.count(); n != 1 {
		t.Errorf("%d sessions after the refusals, want the reservation's 1", n)
	}
}

// TestECORestartRecovery is the durability acceptance test: a daemon restart
// mid-session must resume the session from its delta log bit-identically —
// the recovered hash matches the pre-crash hash, subsequent applies continue
// the sequence, and the replay certificate still passes.
func TestECORestartRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("solves benchmarks across a restart")
	}
	dir := t.TempDir()
	moves := ecoMoves(t, 4)

	// First daemon: durable create + two applied batches, then it "dies"
	// (the test server goes away without closing the session).
	s1 := New(Config{ECODir: dir})
	ts1 := serveHTTP(t, s1)
	created, resp := postECO(t, ts1, &ecoRequest{Action: "create", Session: "r1", Bench: "fft_2", Scale: 0.004})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create: HTTP %d", resp.StatusCode)
	}
	a1, resp := postECO(t, ts1, &ecoRequest{Action: "apply", Session: "r1", Deltas: moves[:2]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("apply 1: HTTP %d", resp.StatusCode)
	}
	a2, resp := postECO(t, ts1, &ecoRequest{Action: "apply", Session: "r1", Deltas: moves[2:3]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("apply 2: HTTP %d", resp.StatusCode)
	}

	// Second daemon over the same log dir: the session must come back.
	s2 := New(Config{ECODir: dir})
	ts2 := serveHTTP(t, s2)
	if n := s2.eco.count(); n != 1 {
		t.Fatalf("recovered %d sessions, want 1", n)
	}
	sess, err := s2.eco.get("r1")
	if err != nil {
		t.Fatalf("recovered session: %v", err)
	}
	if sess.Resumed() != 2 || sess.Seq() != 2 {
		t.Fatalf("resumed=%d seq=%d, want 2/2", sess.Resumed(), sess.Seq())
	}
	if h := sess.PosHash(); h != a2.PosHash {
		t.Fatalf("recovered hash %s != pre-crash hash %s", h, a2.PosHash)
	}
	if sess.BaseHash() != created.PosHash {
		t.Fatalf("recovered base hash %s != created hash %s", sess.BaseHash(), created.PosHash)
	}

	// The resumed session keeps going: a third batch, then a passing commit.
	a3, resp := postECO(t, ts2, &ecoRequest{Action: "apply", Session: "r1", Deltas: moves[3:]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart apply: HTTP %d", resp.StatusCode)
	}
	if a3.Seq != 3 || a3.PosHash == a1.PosHash {
		t.Fatalf("post-restart apply response: %+v", a3)
	}
	committed, resp := postECO(t, ts2, &ecoRequest{Action: "commit", Session: "r1"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("commit: HTTP %d", resp.StatusCode)
	}
	if c := committed.Certificate; c == nil || !c.Pass || c.Batches != 3 {
		t.Fatalf("post-restart certificate: %+v", committed.Certificate)
	}

	// Close removes the log: a third daemon finds nothing to recover.
	if _, resp := postECO(t, ts2, &ecoRequest{Action: "close", Session: "r1"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("close: HTTP %d", resp.StatusCode)
	}
	s3 := New(Config{ECODir: dir})
	serveHTTP(t, s3)
	if n := s3.eco.count(); n != 0 {
		t.Fatalf("closed session resurrected: %d sessions after restart", n)
	}
}

// TestECOMetricsSurface checks the eco series are pre-registered and move.
func TestECOMetricsSurface(t *testing.T) {
	if testing.Short() {
		t.Skip("solves a benchmark")
	}
	_, ts := newTestServer(t, Config{})
	if _, resp := postECO(t, ts.URL, &ecoRequest{Action: "create", Bench: "fft_2", Scale: 0.004}); resp.StatusCode != http.StatusOK {
		t.Fatalf("create: HTTP %d", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	body := string(raw)
	for _, want := range []string{
		"mclgd_eco_sessions 1",
		`mclgd_eco_events_total{event="created"} 1`,
		`mclgd_eco_applies_total{class="ok"} 0`,
		`mclgd_stage_seconds_count{stage="eco_create"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
