package window

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mclg/internal/design"
	"mclg/internal/regress"
)

var updateFixture = flag.Bool("update", false, "rewrite testdata/journal_v1.wal from the current writer")

// fixtureRecords are the windows recorded in testdata/journal_v1.wal.
var fixtureRecords = []struct {
	w     int
	cells []CellPos
}{
	{0, []CellPos{{ID: 1, X: 2.5, Y: 10}, {ID: 4, X: -0.1, Y: 20, Flipped: true}}},
	{2, []CellPos{{ID: 9, X: 1e-7, Y: 1234.000001}}},
}

// TestJournalFixtureResumes pins the on-disk format: a checked-in journal
// from the version-1 writer resumes with the same windows and cells, and a
// fresh journal recording the same windows writes the same bytes.
func TestJournalFixtureResumes(t *testing.T) {
	fixture := filepath.Join("testdata", "journal_v1.wal")
	fresh := filepath.Join(t.TempDir(), "fresh.wal")
	j, err := OpenFileJournal(fresh, 42, 3)
	if err != nil {
		t.Fatalf("OpenFileJournal: %v", err)
	}
	for _, r := range fixtureRecords {
		if err := j.Record(r.w, r.cells); err != nil {
			t.Fatalf("Record(%d): %v", r.w, err)
		}
	}
	j.Close()
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
		t.Fatalf("fresh journal bytes differ from %s:\n%s\nwant:\n%s", fixture, got, want)
	}

	path := filepath.Join(t.TempDir(), "resume.wal")
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenFileJournal(path, 42, 3)
	if err != nil {
		t.Fatalf("reopen fixture: %v", err)
	}
	defer j2.Close()
	if j2.Resumed() != len(fixtureRecords) {
		t.Fatalf("Resumed() = %d, want %d", j2.Resumed(), len(fixtureRecords))
	}
	for _, r := range fixtureRecords {
		if got, ok := j2.Lookup(r.w); !ok || !reflect.DeepEqual(got, r.cells) {
			t.Fatalf("Lookup(%d) = %v, %v; want %v", r.w, got, ok, r.cells)
		}
	}
	if _, ok := j2.Lookup(1); ok {
		t.Fatal("window 1 was never recorded")
	}
}

// journaledRun solves the benchmark with a FileJournal at path and returns
// the run stats and final hash.
func journaledRun(t *testing.T, d *design.Design, path string, sig uint64, windows int) (*Stats, string) {
	t.Helper()
	j, err := OpenFileJournal(path, sig, windows)
	if err != nil {
		t.Fatalf("OpenFileJournal: %v", err)
	}
	defer j.Close()
	opts := baseOptions(2)
	opts.Journal = j
	st, err := Legalize(context.Background(), d, opts)
	if err != nil {
		t.Fatalf("Legalize: %v", err)
	}
	return st, regress.PositionHash(d)
}

// TestJournalResume simulates a crash mid-job: a journal holding only the
// first half of the windows must be replayed — the resumed run re-solves
// only the incomplete windows (verified by the solve counters) and lands on
// the same placement hash as the uninterrupted run.
func TestJournalResume(t *testing.T) {
	d := genDesign(t, "fft_2", 0.004)
	opts := baseOptions(2)
	sig := Sig(d, opts.WindowRows, DefaultContextRows, opts.Core)
	p, err := Partition(d, opts.WindowRows, DefaultContextRows)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	windows := len(p.Bands)
	if windows < 2 {
		t.Fatalf("need multiple windows, got %d", windows)
	}

	dir := t.TempDir()
	full := filepath.Join(dir, "full.wal")
	st1, hash1 := journaledRun(t, d, full, sig, windows)
	if st1.Resumed != 0 || st1.Solved != windows {
		t.Fatalf("fresh run stats %+v, want all solved", st1)
	}

	// Truncate the completed journal to header + half the records — the
	// state a SIGKILL halfway through the job would have left behind.
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatalf("read journal: %v", err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	keep := 1 + windows/2 // header + half the windows
	partial := filepath.Join(dir, "partial.wal")
	if err := os.WriteFile(partial, bytes.Join(lines[:keep], nil), 0o644); err != nil {
		t.Fatalf("write partial journal: %v", err)
	}

	d2 := genDesign(t, "fft_2", 0.004)
	j, err := OpenFileJournal(partial, sig, windows)
	if err != nil {
		t.Fatalf("reopen partial journal: %v", err)
	}
	if j.Resumed() != windows/2 {
		t.Fatalf("Resumed() = %d, want %d", j.Resumed(), windows/2)
	}
	opts2 := baseOptions(2)
	opts2.Journal = j
	st2, err := Legalize(context.Background(), d2, opts2)
	if err != nil {
		t.Fatalf("resumed Legalize: %v", err)
	}
	j.Close()
	if st2.Resumed != windows/2 {
		t.Fatalf("resumed run replayed %d windows, want %d (stats %+v)", st2.Resumed, windows/2, st2)
	}
	if st2.Solved != windows-windows/2 {
		t.Fatalf("resumed run solved %d windows, want %d (stats %+v)", st2.Solved, windows-windows/2, st2)
	}
	if h := regress.PositionHash(d2); h != hash1 {
		t.Fatalf("resumed hash %s != uninterrupted hash %s", h, hash1)
	}
	if rep := design.CheckLegal(d2); !rep.Legal() {
		t.Fatalf("resumed placement illegal: %s", rep.String())
	}
}

// TestJournalTornTail verifies a crash mid-append is harmless. A torn
// final line is detected by checksum, dropped on replay, and overwritten by
// the next Record; an intact final record that lost only its newline is
// kept, and the next Record starts on a fresh line after it.
func TestJournalTornTail(t *testing.T) {
	cells0 := []CellPos{{ID: 1, X: 2, Y: 3}, {ID: 4, X: 5, Y: 6, Flipped: true}}
	for _, tc := range []struct {
		name    string
		tamper  func([]byte) []byte
		resumed int // windows replayed from the tampered file
	}{
		{"torn record", func(b []byte) []byte { return append(b, `{"w":1,"cells":[{"id":9,`...) }, 1},
		{"unterminated record", func(b []byte) []byte { return bytes.TrimSuffix(b, []byte("\n")) }, 1},
		{"unterminated header", func(b []byte) []byte { return b[:bytes.IndexByte(b, '\n')] }, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "torn.wal")
			j, err := OpenFileJournal(path, 42, 3)
			if err != nil {
				t.Fatalf("OpenFileJournal: %v", err)
			}
			if err := j.Record(0, cells0); err != nil {
				t.Fatalf("Record: %v", err)
			}
			j.Close()
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.tamper(data), 0o644); err != nil {
				t.Fatal(err)
			}

			j2, err := OpenFileJournal(path, 42, 3)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			if j2.Resumed() != tc.resumed {
				t.Fatalf("Resumed() = %d, want %d", j2.Resumed(), tc.resumed)
			}
			if got, ok := j2.Lookup(0); tc.resumed == 1 && (!ok || !reflect.DeepEqual(got, cells0)) {
				t.Fatalf("Lookup(0) = %v, %v; want %v", got, ok, cells0)
			}
			if _, ok := j2.Lookup(1); ok {
				t.Fatalf("torn record for window 1 must not replay")
			}
			// The next acknowledged record must survive another reopen.
			if err := j2.Record(1, []CellPos{{ID: 7, X: 8, Y: 9}}); err != nil {
				t.Fatalf("Record after tampered tail: %v", err)
			}
			j2.Close()
			j3, err := OpenFileJournal(path, 42, 3)
			if err != nil {
				t.Fatalf("reopen after repair: %v", err)
			}
			defer j3.Close()
			if j3.Resumed() != tc.resumed+1 {
				t.Fatalf("Resumed() = %d after repair, want %d", j3.Resumed(), tc.resumed+1)
			}
		})
	}
}

// TestJournalSigMismatch verifies a journal written under a different plan
// signature (changed input or options) is invalidated, not replayed.
func TestJournalSigMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sig.wal")
	j, err := OpenFileJournal(path, 1, 2)
	if err != nil {
		t.Fatalf("OpenFileJournal: %v", err)
	}
	if err := j.Record(0, []CellPos{{ID: 0, X: 1, Y: 2}}); err != nil {
		t.Fatalf("Record: %v", err)
	}
	j.Close()

	j2, err := OpenFileJournal(path, 2, 2)
	if err != nil {
		t.Fatalf("reopen with new sig: %v", err)
	}
	defer j2.Close()
	if j2.Resumed() != 0 {
		t.Fatalf("Resumed() = %d under a different signature, want 0", j2.Resumed())
	}
}

// TestSigSensitivity pins what the content address covers: geometry, global
// positions, and the window/solver parameters.
func TestSigSensitivity(t *testing.T) {
	d := genDesign(t, "fft_2", 0.004)
	opts := baseOptions(1)
	base := Sig(d, opts.WindowRows, DefaultContextRows, opts.Core)
	if got := Sig(d, opts.WindowRows, DefaultContextRows, opts.Core); got != base {
		t.Fatalf("Sig not deterministic: %x vs %x", got, base)
	}
	if got := Sig(d, opts.WindowRows+1, DefaultContextRows, opts.Core); got == base {
		t.Fatalf("Sig ignores windowRows")
	}
	d2 := genDesign(t, "fft_2", 0.004)
	d2.Cells[0].GX += 1
	if got := Sig(d2, opts.WindowRows, DefaultContextRows, opts.Core); got == base {
		t.Fatalf("Sig ignores global positions")
	}
	// Workers must NOT change the signature: the placement is
	// worker-count-independent, so a journal from a 1-worker run replays
	// under 8 workers.
	o8 := opts.Core
	o8.Workers = 8
	if got := Sig(d, opts.WindowRows, DefaultContextRows, o8); got != base {
		t.Fatalf("Sig must be worker-count-independent")
	}
}
