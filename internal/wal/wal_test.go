package wal

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mclg/internal/mclgerr"
)

type hdr struct {
	Owner string `json:"owner"`
}

type rec struct {
	Seq int `json:"seq"`
}

// open opens the test log owned by owner; records must count up from 1.
func open(t *testing.T, path, owner string) (*Log[rec], []rec) {
	t.Helper()
	l, recs, err := Open(path, "test-log", hdr{owner},
		func(h hdr) bool { return h.Owner == owner },
		func(n int, r rec) bool { return r.Seq == n+1 })
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, recs
}

func TestOpenKeepsIntactPrefix(t *testing.T) {
	const header = `{"owner":"a"}` + "\n"
	for _, tc := range []struct {
		name, file string
		resumed    int
		after      string // file bytes once reopened and appended to
	}{
		{"missing file", "", 0, header + `{"seq":1}` + "\n"},
		{"intact", header + `{"seq":1}` + "\n", 1, header + `{"seq":1}` + "\n" + `{"seq":2}` + "\n"},
		{"torn tail", header + `{"seq":1}` + "\n" + `{"se`, 1, header + `{"seq":1}` + "\n" + `{"seq":2}` + "\n"},
		{"rejected record", header + `{"seq":1}` + "\n" + `{"seq":5}` + "\n" + `{"seq":2}` + "\n", 1, header + `{"seq":1}` + "\n" + `{"seq":2}` + "\n"},
		{"unterminated record", header + `{"seq":1}`, 1, header + `{"seq":1}` + "\n" + `{"seq":2}` + "\n"},
		{"foreign header", `{"owner":"b"}` + "\n" + `{"seq":1}` + "\n", 0, header + `{"seq":1}` + "\n"},
		{"header only", header, 0, header + `{"seq":1}` + "\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "x.log")
			if tc.file != "" {
				if err := os.WriteFile(path, []byte(tc.file), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			l, recs := open(t, path, "a")
			if len(recs) != tc.resumed {
				t.Fatalf("resumed %d records, want %d", len(recs), tc.resumed)
			}
			if err := l.Append(rec{Seq: len(recs) + 1}); err != nil {
				t.Fatalf("Append: %v", err)
			}
			l.Close()
			if got, _ := os.ReadFile(path); string(got) != tc.after {
				t.Fatalf("file after append:\n%s\nwant:\n%s", got, tc.after)
			}
			_, recs = open(t, path, "a")
			if want := tc.resumed + 1; len(recs) != want || !reflect.DeepEqual(recs[want-1], rec{Seq: want}) {
				t.Fatalf("reopen resumed %v, want %d records", recs, want)
			}
		})
	}
}

func TestCloseRemoveAndReadHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.log")
	l, _ := open(t, path, "a")
	var h hdr
	if err := ReadHeader(path, &h); err != nil || h.Owner != "a" {
		t.Fatalf("ReadHeader = %+v, %v", h, err)
	}
	l.Close()
	if err := l.Append(rec{Seq: 1}); !errors.Is(err, mclgerr.ErrInvalidInput) {
		t.Fatalf("Append after Close = %v, want invalid input", err)
	}
	if err := l.Remove(); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if err := l.Remove(); err != nil {
		t.Fatalf("Remove of a missing file: %v", err)
	}
	if err := ReadHeader(path, &h); err == nil {
		t.Fatal("ReadHeader of a removed log succeeded")
	}
	empty := filepath.Join(t.TempDir(), "empty.log")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ReadHeader(empty, &h); !errors.Is(err, mclgerr.ErrInvalidInput) {
		t.Fatalf("ReadHeader of an empty log = %v, want invalid input", err)
	}
}
