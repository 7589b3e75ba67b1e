package eco

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"mclg/internal/design"
	"mclg/internal/gen"
	"mclg/internal/mclgerr"
)

// testDesign generates a deterministic suite benchmark at a small scale.
func testDesign(t testing.TB, bench string, scale float64) *design.Design {
	t.Helper()
	e, err := gen.FindEntry(bench)
	if err != nil {
		t.Fatalf("FindEntry(%s): %v", bench, err)
	}
	d, err := gen.Generate(gen.SuiteSpec(e, scale))
	if err != nil {
		t.Fatalf("Generate(%s@%g): %v", bench, scale, err)
	}
	return d
}

// testSession creates a session over a small benchmark.
func testSession(t testing.TB, bench string, scale float64, opts Options) *Session {
	t.Helper()
	s, err := Create(context.Background(), "test", testDesign(t, bench, scale), opts)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	return s
}

// pickMovable returns the IDs of the first n movable cells.
func pickMovable(d *design.Design, n int) []int {
	var out []int
	for _, c := range d.Cells {
		if !c.Fixed {
			out = append(out, c.ID)
			if len(out) == n {
				break
			}
		}
	}
	return out
}

func TestApplyMoveCommitsLegalState(t *testing.T) {
	s := testSession(t, "fft_2", 0.004, Options{})
	d := s.Design()
	ids := pickMovable(d, 3)

	var deltas []Delta
	for _, id := range ids {
		c := d.Cells[id]
		// Push each cell a couple of rows up and a few sites right.
		deltas = append(deltas, Delta{
			Op: OpMove, Cell: id,
			X: min(c.X+4*d.SiteW, d.Core.Hi.X-c.W),
			Y: min(c.Y+2*d.RowHeight, d.Core.Hi.Y-c.H),
		})
	}
	res, err := s.Apply(context.Background(), deltas)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if res.Seq != 1 {
		t.Errorf("Seq = %d, want 1", res.Seq)
	}
	if res.Runs == 0 || res.Bands == 0 {
		t.Errorf("expected dirty bands/runs, got %+v", res)
	}
	got := s.Design()
	if rep := design.CheckLegal(got); !rep.Legal() {
		t.Fatalf("committed state illegal: %s", rep.String())
	}
	if s.PosHash() != res.PosHash {
		t.Errorf("session hash %s != result hash %s", s.PosHash(), res.PosHash)
	}
	// The moved cells' targets must have been retargeted.
	for i, id := range ids {
		c := got.Cells[id]
		if c.GX != deltas[i].X || c.GY != deltas[i].Y {
			t.Errorf("cell %d target = (%g,%g), want (%g,%g)", id, c.GX, c.GY, deltas[i].X, deltas[i].Y)
		}
	}
}

func TestApplyInsertDeleteResize(t *testing.T) {
	s := testSession(t, "fft_2", 0.004, Options{})
	d := s.Design()
	ids := pickMovable(d, 2)
	ctx := context.Background()

	// Insert a new single-height cell near the core center.
	cx := (d.Core.Lo.X + d.Core.Hi.X) / 2
	cy := (d.Core.Lo.Y + d.Core.Hi.Y) / 2
	if _, err := s.Apply(ctx, []Delta{{Op: OpInsert, Name: "u_eco1", W: 4 * d.SiteW, H: d.RowHeight, X: cx, Y: cy}}); err != nil {
		t.Fatalf("insert: %v", err)
	}
	got := s.Design()
	if len(got.Cells) != len(d.Cells)+1 {
		t.Fatalf("cells = %d, want %d", len(got.Cells), len(d.Cells)+1)
	}
	newID := len(got.Cells) - 1
	if got.Cells[newID].Name != "u_eco1" {
		t.Errorf("inserted cell name = %q", got.Cells[newID].Name)
	}

	// Resize an existing cell to double height.
	if _, err := s.Apply(ctx, []Delta{{Op: OpResize, Cell: ids[0], W: got.Cells[ids[0]].W, H: 2 * d.RowHeight}}); err != nil {
		t.Fatalf("resize: %v", err)
	}
	got = s.Design()
	if got.Cells[ids[0]].RowSpan != 2 {
		t.Errorf("resized cell span = %d, want 2", got.Cells[ids[0]].RowSpan)
	}

	// Delete a cell: survivors renumber densely and stay legal.
	if _, err := s.Apply(ctx, []Delta{{Op: OpDelete, Cell: ids[1]}}); err != nil {
		t.Fatalf("delete: %v", err)
	}
	got = s.Design()
	if len(got.Cells) != len(d.Cells) {
		t.Fatalf("cells after delete = %d, want %d", len(got.Cells), len(d.Cells))
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("post-delete design invalid: %v", err)
	}
	if rep := design.CheckLegal(got); !rep.Legal() {
		t.Fatalf("post-delete state illegal: %s", rep.String())
	}
	if s.Seq() != 3 {
		t.Errorf("seq = %d, want 3", s.Seq())
	}
}

func TestApplyRejectsInvalidDeltas(t *testing.T) {
	s := testSession(t, "fft_2", 0.004, Options{})
	d := s.Design()
	id := pickMovable(d, 1)[0]
	var fixedID int = -1
	for _, c := range d.Cells {
		if c.Fixed {
			fixedID = c.ID
			break
		}
	}
	hash := s.PosHash()
	ctx := context.Background()

	cases := []struct {
		name   string
		deltas []Delta
	}{
		{"empty batch", nil},
		{"unknown op", []Delta{{Op: "swap", Cell: id}}},
		{"out of range id", []Delta{{Op: OpMove, Cell: len(d.Cells) + 7, X: d.Core.Lo.X, Y: d.Core.Lo.Y}}},
		{"negative id", []Delta{{Op: OpDelete, Cell: -1}}},
		{"out-of-core move", []Delta{{Op: OpMove, Cell: id, X: d.Core.Hi.X + 100, Y: d.Core.Lo.Y}}},
		{"non-finite move", []Delta{{Op: OpMove, Cell: id, X: nan(), Y: d.Core.Lo.Y}}},
		{"resize off-row-height", []Delta{{Op: OpResize, Cell: id, W: d.SiteW, H: 1.5 * d.RowHeight}}},
		{"resize beyond rows", []Delta{{Op: OpResize, Cell: id, W: d.SiteW, H: float64(len(d.Rows)+1) * d.RowHeight}}},
		{"resize beyond core width", []Delta{{Op: OpResize, Cell: id, W: d.Core.Hi.X - d.Core.Lo.X + d.SiteW, H: d.RowHeight}}},
		{"insert outside core", []Delta{{Op: OpInsert, W: d.SiteW, H: d.RowHeight, X: d.Core.Lo.X - 50, Y: d.Core.Lo.Y}}},
		{"insert bad rail", []Delta{{Op: OpInsert, W: d.SiteW, H: d.RowHeight, X: d.Core.Lo.X, Y: d.Core.Lo.Y, Rail: "VXX"}}},
		{"valid then invalid is atomic", []Delta{
			{Op: OpMove, Cell: id, X: d.Core.Lo.X, Y: d.Core.Lo.Y},
			{Op: OpDelete, Cell: -5},
		}},
	}
	if fixedID >= 0 {
		cases = append(cases,
			struct {
				name   string
				deltas []Delta
			}{"move fixed cell", []Delta{{Op: OpMove, Cell: fixedID, X: d.Core.Lo.X, Y: d.Core.Lo.Y}}},
			struct {
				name   string
				deltas []Delta
			}{"delete fixed cell", []Delta{{Op: OpDelete, Cell: fixedID}}},
		)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := s.Apply(ctx, tc.deltas); !errors.Is(err, mclgerr.ErrInvalidInput) {
				t.Fatalf("Apply = %v, want ErrInvalidInput", err)
			}
		})
	}
	if s.PosHash() != hash || s.Seq() != 0 {
		t.Fatalf("rejected batches mutated the session: seq=%d hash=%s (want 0, %s)", s.Seq(), s.PosHash(), hash)
	}
}

// TestCreateRejectsNegativeRows pins that a negative window or margin height
// is refused as invalid input before Create opens anything, the durable log
// included.
func TestCreateRejectsNegativeRows(t *testing.T) {
	d := testDesign(t, "fft_2", 0.004)
	for _, opts := range []Options{{WindowRows: -1}, {MarginRows: -1}} {
		opts.LogPath = filepath.Join(t.TempDir(), "neg.ecolog")
		s, err := Create(context.Background(), "neg", d, opts)
		if s != nil {
			s.Close()
		}
		if !errors.Is(err, mclgerr.ErrInvalidInput) || mclgerr.Class(err) != "invalid_input" {
			t.Errorf("Create(WindowRows %d, MarginRows %d) = %v, want an invalid_input error",
				opts.WindowRows, opts.MarginRows, err)
		}
		if _, err := os.Stat(opts.LogPath); !os.IsNotExist(err) {
			t.Errorf("Create(WindowRows %d, MarginRows %d) wrote its log (stat: %v)", opts.WindowRows, opts.MarginRows, err)
		}
	}
}

func TestClosedSessionRejectsApplies(t *testing.T) {
	s := testSession(t, "fft_2", 0.004, Options{})
	id := pickMovable(s.Design(), 1)[0]
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	_, err := s.Apply(context.Background(), []Delta{{Op: OpDelete, Cell: id}})
	if !errors.Is(err, mclgerr.ErrInvalidInput) {
		t.Fatalf("Apply after close = %v, want ErrInvalidInput", err)
	}
}

func nan() float64 {
	var z float64
	return z / z
}

func min(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// TestRepairFallbackCommitsAndReplays drives the chow local-repair fallback:
// the failCascade hook fails the cascade of every run, so each batch commits
// only through repair. The committed placement must be legal, every run
// must count as repaired, untouched cells must keep their committed
// positions, and Replay and Certify — which see the hook through Options —
// must reproduce the placement.
func TestRepairFallbackCommitsAndReplays(t *testing.T) {
	ctx := context.Background()
	base := testDesign(t, "fft_2", 0.01)
	opts := Options{failCascade: func(rowLo, rowHi int) bool { return true }}
	s, err := Create(ctx, "repair", base.Clone(), opts)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	repaired := 0
	for i, batch := range sampleBatches(s.Design()) {
		before := s.Design()
		res, err := s.Apply(ctx, batch)
		if err != nil {
			t.Fatalf("batch %d: %v", i+1, err)
		}
		if res.Runs == 0 || res.Repaired != res.Runs {
			t.Fatalf("batch %d: %d of %d runs repaired, want all", i+1, res.Repaired, res.Runs)
		}
		repaired += res.Repaired
		got := s.Design()
		if rep := design.CheckLegal(got); !rep.Legal() {
			t.Fatalf("batch %d: repaired placement illegal: %s", i+1, rep.String())
		}
		if i == 0 { // moves only: IDs are stable
			moved := map[int]bool{}
			for _, dl := range batch {
				moved[dl.Cell] = true
			}
			for id, c := range got.Cells {
				if b := before.Cells[id]; !moved[id] && (c.X != b.X || c.Y != b.Y) {
					t.Fatalf("untouched cell %d moved from (%g,%g) to (%g,%g) under local repair", id, b.X, b.Y, c.X, c.Y)
				}
			}
		}
	}
	if st := s.Statistics(); st.Repaired != uint64(repaired) {
		t.Errorf("Stats.Repaired = %d, want %d", st.Repaired, repaired)
	}

	rs, err := Replay(ctx, base.Clone(), s.Log(), opts)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if rs.PosHash() != s.PosHash() {
		t.Fatalf("replay hash %s, committed %s", rs.PosHash(), s.PosHash())
	}
	cert, err := s.Certify(ctx)
	if err != nil {
		t.Fatalf("Certify: %v", err)
	}
	if !cert.Pass {
		t.Fatalf("certificate fails: replay %s, committed %s, legal %v", cert.ReplayHash, cert.PosHash, cert.Legal)
	}
}
