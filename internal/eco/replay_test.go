package eco

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"mclg/internal/core"
	"mclg/internal/design"
	"mclg/internal/metrics"
)

// sampleBatches builds three batches over d exercising every op: a move
// wave, an insert + resize, and a delete. Deterministic in d.
func sampleBatches(d *design.Design) [][]Delta {
	ids := pickMovable(d, 4)
	var moves []Delta
	for _, id := range ids[:3] {
		c := d.Cells[id]
		moves = append(moves, Delta{
			Op: OpMove, Cell: id,
			X: min(c.X+3*d.SiteW, d.Core.Hi.X-c.W),
			Y: min(c.Y+d.RowHeight, d.Core.Hi.Y-c.H),
		})
	}
	cx := d.Core.Lo.X + (d.Core.Hi.X-d.Core.Lo.X)/2
	cy := d.Core.Lo.Y + d.RowHeight
	return [][]Delta{
		moves,
		{
			{Op: OpInsert, Name: "u_rt1", W: 3 * d.SiteW, H: d.RowHeight, X: cx, Y: cy},
			{Op: OpResize, Cell: ids[3], W: d.Cells[ids[3]].W, H: 2 * d.RowHeight},
		},
		{{Op: OpDelete, Cell: ids[0]}},
	}
}

// TestReplayBitIdenticalAcrossWorkers is the determinism property test: the
// committed state is a pure function of (base design, delta log), so
// replaying the log with any worker count — in a fresh session, scheduling
// different — must land on the exact committed placement hash.
func TestReplayBitIdenticalAcrossWorkers(t *testing.T) {
	base := testDesign(t, "fft_2", 0.01)
	opts := Options{Core: core.Options{Workers: 1}}
	s, err := Create(context.Background(), "live", base.Clone(), opts)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for i, batch := range sampleBatches(s.Design()) {
		if _, err := s.Apply(context.Background(), batch); err != nil {
			t.Fatalf("batch %d: %v", i+1, err)
		}
	}
	want := s.PosHash()

	for _, workers := range []int{1, 2, 8} {
		ropts := Options{Core: core.Options{Workers: workers}}
		rs, err := Replay(context.Background(), base.Clone(), s.Log(), ropts)
		if err != nil {
			t.Fatalf("Replay workers=%d: %v", workers, err)
		}
		if h := rs.PosHash(); h != want {
			t.Fatalf("workers=%d: replay hash %s != live hash %s", workers, h, want)
		}
		if rep := design.CheckLegal(rs.Design()); !rep.Legal() {
			t.Fatalf("workers=%d: replayed placement illegal: %s", workers, rep.String())
		}
	}

	cert, err := s.Certify(context.Background())
	if err != nil {
		t.Fatalf("Certify: %v", err)
	}
	if !cert.Pass || !cert.Match || !cert.Legal {
		t.Fatalf("certificate failed: %s", cert.Summary())
	}
	if !cert.Verify() {
		t.Fatalf("sealed certificate does not verify: %s", cert.Summary())
	}
}

// TestResumeAcrossRestart simulates a process crash mid-session: the durable
// log is reopened by a second Create, which must replay the accepted batches
// to the exact committed state, and the resumed session must continue
// identically to one that never crashed.
func TestResumeAcrossRestart(t *testing.T) {
	base := testDesign(t, "fft_2", 0.004)
	path := filepath.Join(t.TempDir(), "s1.ecolog")
	batches := sampleBatches(base)
	ctx := context.Background()

	// The uninterrupted control: all three batches in one in-memory session.
	ctrl, err := Create(ctx, "ctrl", base.Clone(), Options{})
	if err != nil {
		t.Fatalf("Create control: %v", err)
	}
	for i, b := range batches {
		if _, err := ctrl.Apply(ctx, b); err != nil {
			t.Fatalf("control batch %d: %v", i+1, err)
		}
	}

	// The crashing run: two batches accepted, then the process dies.
	s1, err := Create(ctx, "s1", base.Clone(), Options{LogPath: path})
	if err != nil {
		t.Fatalf("Create durable: %v", err)
	}
	for i, b := range batches[:2] {
		if _, err := s1.Apply(ctx, b); err != nil {
			t.Fatalf("durable batch %d: %v", i+1, err)
		}
	}
	crashHash, crashSeq := s1.PosHash(), s1.Seq()
	s1.flog.Close() // simulate SIGKILL: file handle gone, log file stays

	// Restart: same path, same base, same options.
	s2, err := Create(ctx, "s1", base.Clone(), Options{LogPath: path})
	if err != nil {
		t.Fatalf("resume Create: %v", err)
	}
	defer s2.Close()
	if s2.Resumed() != 2 {
		t.Fatalf("Resumed() = %d, want 2", s2.Resumed())
	}
	if s2.Seq() != crashSeq || s2.PosHash() != crashHash {
		t.Fatalf("resumed state seq=%d hash=%s, want seq=%d hash=%s",
			s2.Seq(), s2.PosHash(), crashSeq, crashHash)
	}

	// The resumed session continues exactly like the uninterrupted one.
	if _, err := s2.Apply(ctx, batches[2]); err != nil {
		t.Fatalf("post-resume batch: %v", err)
	}
	if s2.PosHash() != ctrl.PosHash() {
		t.Fatalf("post-resume hash %s != uninterrupted hash %s", s2.PosHash(), ctrl.PosHash())
	}
	cert, err := s2.Certify(ctx)
	if err != nil {
		t.Fatalf("Certify resumed session: %v", err)
	}
	if !cert.Pass {
		t.Fatalf("resumed session certificate failed: %s", cert.Summary())
	}
}

// TestResumeUnterminatedTail covers a crash that lands the last record on
// disk without its newline: the intact record still resumes, and the next
// accepted batch must survive a second restart instead of fusing with it
// into one unreadable line.
func TestResumeUnterminatedTail(t *testing.T) {
	base := testDesign(t, "fft_2", 0.004)
	path := filepath.Join(t.TempDir(), "s.ecolog")
	batches := sampleBatches(base)
	ctx := context.Background()

	s1, err := Create(ctx, "s", base.Clone(), Options{LogPath: path})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := s1.Apply(ctx, batches[0]); err != nil {
		t.Fatalf("batch 1: %v", err)
	}
	s1.flog.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, bytes.TrimSuffix(data, []byte("\n")), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Create(ctx, "s", base.Clone(), Options{LogPath: path})
	if err != nil {
		t.Fatalf("resume Create: %v", err)
	}
	if s2.Seq() != 1 {
		t.Fatalf("resumed at seq %d, want 1", s2.Seq())
	}
	if _, err := s2.Apply(ctx, batches[1]); err != nil {
		t.Fatalf("batch 2: %v", err)
	}
	want := s2.PosHash()
	s2.flog.Close()

	s3, err := Create(ctx, "s", base.Clone(), Options{LogPath: path})
	if err != nil {
		t.Fatalf("second resume Create: %v", err)
	}
	defer s3.Close()
	if s3.Seq() != 2 || s3.PosHash() != want {
		t.Fatalf("second resume at seq %d hash %s, want seq 2 hash %s", s3.Seq(), s3.PosHash(), want)
	}
}

var updateFixture = flag.Bool("update", false, "rewrite testdata/session_v1.ecolog from the current writer")

// fixturePosHash is the committed placement hash after the two batches
// recorded in testdata/session_v1.ecolog.
const fixturePosHash = "7529d4e43cfcba37"

// TestLogFixtureResumes pins the session log format: a checked-in log from
// the version-1 writer resumes to the same seq and placement hash, and a
// fresh session applying the same batches writes the same bytes.
func TestLogFixtureResumes(t *testing.T) {
	ctx := context.Background()
	base := testDesign(t, "fft_2", 0.004)
	batches := sampleBatches(base)[:2]
	meta := []byte(`{"bench":"fft_2","scale":0.004}`)
	fixture := filepath.Join("testdata", "session_v1.ecolog")

	fresh := filepath.Join(t.TempDir(), "fresh.ecolog")
	s1, err := Create(ctx, "fx", base.Clone(), Options{LogPath: fresh, LogMeta: meta})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for i, b := range batches {
		if _, err := s1.Apply(ctx, b); err != nil {
			t.Fatalf("batch %d: %v", i+1, err)
		}
	}
	s1.flog.Close()
	got, err := os.ReadFile(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if *updateFixture {
		if err := os.WriteFile(fixture, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatalf("reading fixture: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("fresh log bytes differ from %s:\n%s\nwant:\n%s", fixture, got, want)
	}

	id, gotMeta, err := ReadLogMeta(fixture)
	if err != nil || id != "fx" || !bytes.Equal(gotMeta, meta) {
		t.Fatalf("ReadLogMeta = %q, %s, %v; want fx, %s", id, gotMeta, err, meta)
	}
	path := filepath.Join(t.TempDir(), "resume.ecolog")
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Create(ctx, "fx", base.Clone(), Options{LogPath: path, LogMeta: meta})
	if err != nil {
		t.Fatalf("resume Create: %v", err)
	}
	defer s2.Close()
	if s2.Resumed() != 2 || s2.Seq() != 2 || s2.PosHash() != fixturePosHash {
		t.Fatalf("resumed %d batches to seq %d hash %s; want 2, 2, %s",
			s2.Resumed(), s2.Seq(), s2.PosHash(), fixturePosHash)
	}
}

// TestStaleLogRejectedOnResume pins the resume safety contract: a log
// written over a different base design must not replay — the signature in
// the header invalidates it and the session starts fresh.
func TestStaleLogRejectedOnResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stale.ecolog")
	ctx := context.Background()

	d1 := testDesign(t, "fft_2", 0.004)
	s1, err := Create(ctx, "s", d1, Options{LogPath: path})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := s1.Apply(ctx, sampleBatches(s1.Design())[0]); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	s1.flog.Close()

	// A different design under the same session id and path: the header
	// signature mismatches, the log resets, nothing replays.
	d2 := testDesign(t, "fft_2", 0.01)
	s2, err := Create(ctx, "s", d2, Options{LogPath: path})
	if err != nil {
		t.Fatalf("Create over stale log: %v", err)
	}
	defer s2.Close()
	if s2.Resumed() != 0 {
		t.Fatalf("Resumed() = %d from a stale log, want 0", s2.Resumed())
	}
}

// TestECODisplacementBoundedVsColdSolve is the quality property test: the
// incremental dirty-window solve must stay legal and land within a bounded
// displacement factor of a cold full re-legalization given the same targets.
// The observed gap is logged so quality drift shows up in test output.
func TestECODisplacementBoundedVsColdSolve(t *testing.T) {
	base := testDesign(t, "fft_2", 0.01)
	ctx := context.Background()
	s, err := Create(ctx, "disp", base.Clone(), Options{})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	d := s.Design()
	ids := pickMovable(d, 5)
	var deltas []Delta
	for i, id := range ids {
		c := d.Cells[id]
		deltas = append(deltas, Delta{
			Op: OpMove, Cell: id,
			X: min(c.X+float64(2+i)*d.SiteW, d.Core.Hi.X-c.W),
			Y: min(c.Y+d.RowHeight, d.Core.Hi.Y-c.H),
		})
	}
	if _, err := s.Apply(ctx, deltas); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	got := s.Design()
	if rep := design.CheckLegal(got); !rep.Legal() {
		t.Fatalf("ECO placement illegal: %s", rep.String())
	}
	ecoDisp := metrics.MeasureDisplacement(got).TotalSites

	// Cold reference: the same netlist and targets, legalized from scratch.
	cold := base.Clone()
	for i, id := range ids {
		cold.Cells[id].GX, cold.Cells[id].GY = deltas[i].X, deltas[i].Y
	}
	if _, err := core.NewResilient(core.ResilientOptions{}).LegalizeContext(ctx, cold); err != nil {
		t.Fatalf("cold solve: %v", err)
	}
	if rep := design.CheckLegal(cold); !rep.Legal() {
		t.Fatalf("cold placement illegal: %s", rep.String())
	}
	coldDisp := metrics.MeasureDisplacement(cold).TotalSites

	// The ECO solve optimizes only the dirty windows against frozen context,
	// so it can never beat the cold solve by much — but it must not be
	// unboundedly worse either. Factor 3 (plus a small absolute slack for
	// near-zero baselines) is far above the observed gap and far below
	// anything a stale-window bug would produce.
	const factor, slack = 3.0, 16.0
	t.Logf("displacement: eco %.1f sites vs cold %.1f sites (ratio %.2f)",
		ecoDisp, coldDisp, ecoDisp/coldDisp)
	if ecoDisp > factor*coldDisp+slack {
		t.Fatalf("ECO displacement %.1f sites exceeds %.0fx cold solve (%.1f sites)",
			ecoDisp, factor, coldDisp)
	}
}
