package window

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mclg/internal/core"
	"mclg/internal/design"
	"mclg/internal/mclgerr"
	"mclg/internal/regress"
	"mclg/internal/wal"
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
	j, _, err := openJournal(fresh, 42, 3)
	if err != nil {
		t.Fatalf("openJournal: %v", err)
	}
	for _, r := range fixtureRecords {
		if err := j.Append(newRecord(r.w, r.cells)); err != nil {
			t.Fatalf("Append(%d): %v", r.w, err)
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
	j2, recs, err := openJournal(path, 42, 3)
	if err != nil {
		t.Fatalf("reopen fixture: %v", err)
	}
	defer j2.Close()
	if len(recs) != len(fixtureRecords) {
		t.Fatalf("resumed %d records, want %d", len(recs), len(fixtureRecords))
	}
	for i, r := range fixtureRecords {
		if recs[i].W != r.w || !reflect.DeepEqual(recs[i].Cells, r.cells) {
			t.Fatalf("record %d = window %d %v; want window %d %v", i, recs[i].W, recs[i].Cells, r.w, r.cells)
		}
	}
}

// defaultSig is Sig of fft_2@0.004 in 4-row windows under the resolved
// default options: the signature a journal of such a job carries.
const defaultSig = "e932ca71ecfb5326"

// TestJournalSignsResolvedOptions pins the journal's header to Sig over the
// resolved solver options: a job with zero Core options signs its journal
// with the default signature, so journals written by earlier daemons, which
// signed the resolved options, still resume.
func TestJournalSignsResolvedOptions(t *testing.T) {
	d := genDesign(t, "fft_2", 0.004)
	path := filepath.Join(t.TempDir(), "job.wal")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := Options{
		WindowRows:  4,
		JournalPath: path,
		SolveWindow: func(context.Context, *design.Design, *Plan, int, int) (*Result, error) {
			cancel()
			return nil, mclgerr.Canceled(context.Canceled)
		},
	}
	if _, err := Legalize(ctx, d, opts); !errors.Is(err, mclgerr.ErrCanceled) {
		t.Fatalf("Legalize = %v, want a canceled error", err)
	}
	var hdr journalHeader
	if err := wal.ReadHeader(path, &hdr); err != nil {
		t.Fatalf("the canceled job's journal was not kept: %v", err)
	}
	if hdr.V != 1 || hdr.Sig != defaultSig {
		t.Fatalf("journal header %+v, want version 1 and sig %s", hdr, defaultSig)
	}
}

// TestJournalResume simulates a crash mid-job: a journal holding the first
// half of the windows must be replayed. The resumed run re-solves only the
// other windows (verified by the solve counters), lands on the placement of
// the run without a journal, and deletes the journal once it commits.
func TestJournalResume(t *testing.T) {
	ref := genDesign(t, "fft_2", 0.004)
	if _, err := Legalize(context.Background(), ref, baseOptions(2)); err != nil {
		t.Fatalf("reference Legalize: %v", err)
	}
	wantHash := regress.PositionHash(ref)

	d := genDesign(t, "fft_2", 0.004)
	opts := baseOptions(2)
	p, err := Partition(d, opts.WindowRows, DefaultContextRows)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	windows := len(p.Bands)
	if windows < 2 {
		t.Fatalf("need multiple windows, got %d", windows)
	}

	// Seed the journal with the first half of the windows: the state a
	// SIGKILL halfway through the job would have left behind.
	path := filepath.Join(t.TempDir(), "job.wal")
	sig := Sig(d, opts.WindowRows, DefaultContextRows, core.New(opts.Core).Opts)
	j, _, err := openJournal(path, sig, windows)
	if err != nil {
		t.Fatalf("openJournal: %v", err)
	}
	for w := 0; w < windows/2; w++ {
		res, err := solveClean(context.Background(), d, p, w, opts.Core)
		if err != nil {
			t.Fatalf("solve window %d: %v", w, err)
		}
		if err := j.Append(newRecord(w, res.Cells)); err != nil {
			t.Fatalf("Append(%d): %v", w, err)
		}
	}
	j.Close()

	opts.JournalPath = path
	st, err := Legalize(context.Background(), d, opts)
	if err != nil {
		t.Fatalf("resumed Legalize: %v", err)
	}
	if st.Resumed != windows/2 {
		t.Fatalf("resumed run replayed %d windows, want %d (stats %+v)", st.Resumed, windows/2, st)
	}
	if st.Solved != windows-windows/2 {
		t.Fatalf("resumed run solved %d windows, want %d (stats %+v)", st.Solved, windows-windows/2, st)
	}
	if h := regress.PositionHash(d); h != wantHash {
		t.Fatalf("resumed hash %s != uninterrupted hash %s", h, wantHash)
	}
	if rep := design.CheckLegal(d); !rep.Legal() {
		t.Fatalf("resumed placement illegal: %s", rep.String())
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("journal not deleted after the commit: %v", err)
	}
}

// TestJournalUnopenableIsSkipped runs a job whose journal cannot be created
// (its directory is missing): the job solves every window and commits the
// placement of a run without a journal.
func TestJournalUnopenableIsSkipped(t *testing.T) {
	ref := genDesign(t, "fft_2", 0.004)
	if _, err := Legalize(context.Background(), ref, baseOptions(2)); err != nil {
		t.Fatalf("reference Legalize: %v", err)
	}
	d := genDesign(t, "fft_2", 0.004)
	opts := baseOptions(2)
	opts.JournalPath = filepath.Join(t.TempDir(), "missing", "job.wal")
	st, err := Legalize(context.Background(), d, opts)
	if err != nil {
		t.Fatalf("Legalize with an unopenable journal: %v", err)
	}
	if st.Resumed != 0 || st.Solved != st.Windows {
		t.Fatalf("stats %+v, want every window solved", st)
	}
	if got, want := regress.PositionHash(d), regress.PositionHash(ref); got != want {
		t.Fatalf("hash %s != hash without a journal %s", got, want)
	}
}

// TestJournalTornTail verifies a crash mid-append is harmless. A torn
// final line is detected by checksum, dropped on replay, and overwritten by
// the next append; an intact final record that lost only its newline is
// kept, and the next append starts on a fresh line after it.
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
			j, _, err := openJournal(path, 42, 3)
			if err != nil {
				t.Fatalf("openJournal: %v", err)
			}
			if err := j.Append(newRecord(0, cells0)); err != nil {
				t.Fatalf("Append: %v", err)
			}
			j.Close()
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.tamper(data), 0o644); err != nil {
				t.Fatal(err)
			}

			j2, recs, err := openJournal(path, 42, 3)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			if len(recs) != tc.resumed {
				t.Fatalf("resumed %d records, want %d", len(recs), tc.resumed)
			}
			if tc.resumed == 1 && (recs[0].W != 0 || !reflect.DeepEqual(recs[0].Cells, cells0)) {
				t.Fatalf("record = window %d %v; want window 0 %v", recs[0].W, recs[0].Cells, cells0)
			}
			// The next acknowledged record must survive another reopen.
			if err := j2.Append(newRecord(1, []CellPos{{ID: 7, X: 8, Y: 9}})); err != nil {
				t.Fatalf("Append after tampered tail: %v", err)
			}
			j2.Close()
			j3, recs, err := openJournal(path, 42, 3)
			if err != nil {
				t.Fatalf("reopen after repair: %v", err)
			}
			defer j3.Close()
			if len(recs) != tc.resumed+1 || recs[tc.resumed].W != 1 {
				t.Fatalf("resumed %+v after repair, want %d records ending in window 1", recs, tc.resumed+1)
			}
		})
	}
}

// TestJournalSigMismatch verifies a journal written under a different plan
// signature (changed input or options) is invalidated, not replayed.
func TestJournalSigMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sig.wal")
	j, _, err := openJournal(path, 1, 2)
	if err != nil {
		t.Fatalf("openJournal: %v", err)
	}
	if err := j.Append(newRecord(0, []CellPos{{ID: 0, X: 1, Y: 2}})); err != nil {
		t.Fatalf("Append: %v", err)
	}
	j.Close()

	j2, recs, err := openJournal(path, 2, 2)
	if err != nil {
		t.Fatalf("reopen with new sig: %v", err)
	}
	defer j2.Close()
	if len(recs) != 0 {
		t.Fatalf("resumed %d records under a different signature, want 0", len(recs))
	}
}

// TestSigSensitivity pins what the content address covers of the plan:
// geometry, global positions, and the window parameters. The solver
// options are TestSigCoversEveryOption's.
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
}

// sigNeutral lists the core.Options fields Sig leaves out, with the reason.
var sigNeutral = map[string]string{
	// A journal from a 1-worker run replays under 8 workers.
	"Workers": "bounds concurrent windows; placements are worker-count-independent",
	"OnIter":  "a progress callback",
}

// TestSigCoversEveryOption sets each field of core.Options in turn and
// requires Sig to change, unless the field is on sigNeutral, in which case
// Sig must not change. A new option therefore fails here until Sig hashes
// it or it is listed with its reason. Default options keep defaultSig, so
// journals and ECO logs written under it still resume.
func TestSigCoversEveryOption(t *testing.T) {
	d := genDesign(t, "fft_2", 0.004)
	def := core.New(core.Options{}).Opts
	base := Sig(d, 4, DefaultContextRows, def)
	if got := fmt.Sprintf("%016x", base); got != defaultSig {
		t.Fatalf("default-option Sig = %s, want %s", got, defaultSig)
	}
	seen := map[string]bool{}
	rt := reflect.TypeOf(core.Options{})
	for i := 0; i < rt.NumField(); i++ {
		ft := rt.Field(i)
		seen[ft.Name] = true
		in := def
		f := reflect.ValueOf(&in).Elem().Field(i)
		switch ft.Type.Kind() {
		case reflect.Float64:
			f.SetFloat(f.Float() + 0.375)
		case reflect.Int:
			f.SetInt(f.Int() + 7)
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Func:
			f.Set(reflect.MakeFunc(ft.Type, func([]reflect.Value) []reflect.Value { return nil }))
		default:
			t.Fatalf("%s: no test value for kind %s", ft.Name, ft.Type.Kind())
		}
		changed := Sig(d, 4, DefaultContextRows, in) != base
		if _, neutral := sigNeutral[ft.Name]; neutral == changed {
			t.Errorf("%s: Sig changed = %v, want %v", ft.Name, changed, !neutral)
		}
	}
	for name := range sigNeutral {
		if !seen[name] {
			t.Errorf("sigNeutral lists %s, which is not a field", name)
		}
	}
}
