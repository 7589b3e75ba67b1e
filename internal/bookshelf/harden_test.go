package bookshelf

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mclg/internal/design"
	"mclg/internal/mclgerr"
)

const (
	goodNodes = "UCLA nodes 1.0\nNumNodes : 2\nNumTerminals : 0\n  a 4 10\n  b 3 20\n"
	goodPl    = "UCLA pl 1.0\na 3 0 : N\nb 10 0 : N\n"
	goodScl   = "UCLA scl 1.0\nNumRows : 2\n" +
		"CoreRow Horizontal\n  Coordinate : 0\n  Height : 10\n  Sitewidth : 1\n  Sitespacing : 1\n  SubrowOrigin : 0  NumSites : 50\nEnd\n" +
		"CoreRow Horizontal\n  Coordinate : 10\n  Height : 10\n  Sitewidth : 1\n  Sitespacing : 1\n  SubrowOrigin : 0  NumSites : 50\nEnd\n"
	goodNets = "UCLA nets 1.0\nNumNets : 1\nNumPins : 2\nNetDegree : 2 n\n  a I : 0 0\n  b O : 1 1\n"
)

func writeSet(t *testing.T, nodes, pl, scl, nets string) Files {
	t.Helper()
	dir := t.TempDir()
	files := Files{
		Nodes: filepath.Join(dir, "d.nodes"),
		Pl:    filepath.Join(dir, "d.pl"),
		Scl:   filepath.Join(dir, "d.scl"),
		Nets:  filepath.Join(dir, "d.nets"),
	}
	for path, content := range map[string]string{
		files.Nodes: nodes, files.Pl: pl, files.Scl: scl, files.Nets: nets,
	} {
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return files
}

func TestReadAcceptsGoodFiles(t *testing.T) {
	d, err := ReadFiles(writeSet(t, goodNodes, goodPl, goodScl, goodNets), "good")
	if err != nil {
		t.Fatalf("ReadFiles: %v", err)
	}
	if len(d.Cells) != 2 || len(d.Rows) != 2 {
		t.Fatalf("got %d cells, %d rows; want 2 and 2", len(d.Cells), len(d.Rows))
	}
}

// Every corruption must be rejected with an ErrInvalidInput-matching error —
// the reader never panics and never hands a malformed design to the solver.
func TestReadRejectsCorruptFiles(t *testing.T) {
	cases := []struct {
		name                 string
		nodes, pl, scl, nets string
	}{
		{name: "nan-x-coordinate", pl: "a NaN 0 : N\nb 10 0 : N\n"},
		{name: "inf-y-coordinate", pl: "a 3 +Inf : N\nb 10 0 : N\n"},
		{name: "unparsable-coordinate", pl: "a zzz 0 : N\nb 10 0 : N\n"},
		{name: "duplicate-node-name", nodes: "a 4 10\na 3 10\n"},
		{name: "zero-width-node", nodes: "a 0 10\nb 3 20\n", pl: goodPl},
		{name: "negative-width-node", nodes: "a -4 10\nb 3 20\n"},
		{name: "nan-height-node", nodes: "a 4 NaN\nb 3 20\n"},
		{name: "height-not-row-multiple", nodes: "a 4 15\nb 3 20\n"},
		{name: "node-wider-than-core", nodes: "a 400 10\nb 3 20\n"},
		{
			name: "zero-site-spacing",
			scl: "CoreRow Horizontal\n  Coordinate : 0\n  Height : 10\n  Sitewidth : 1\n" +
				"  Sitespacing : 0\n  SubrowOrigin : 0  NumSites : 50\nEnd\n",
		},
		{
			name: "negative-site-spacing",
			scl: "CoreRow Horizontal\n  Coordinate : 0\n  Height : 10\n  Sitewidth : 1\n" +
				"  Sitespacing : -1\n  SubrowOrigin : 0  NumSites : 50\nEnd\n",
		},
		{
			name: "gapped-site-spacing",
			scl: "CoreRow Horizontal\n  Coordinate : 0\n  Height : 10\n  Sitewidth : 1\n" +
				"  Sitespacing : 2\n  SubrowOrigin : 0  NumSites : 50\nEnd\n",
		},
		{
			name: "overlapping-rows",
			scl: "CoreRow Horizontal\n  Coordinate : 0\n  Height : 10\n  Sitewidth : 1\n  SubrowOrigin : 0  NumSites : 50\nEnd\n" +
				"CoreRow Horizontal\n  Coordinate : 5\n  Height : 10\n  Sitewidth : 1\n  SubrowOrigin : 0  NumSites : 50\nEnd\n",
		},
		{
			name: "duplicate-row-coordinate",
			scl: "CoreRow Horizontal\n  Coordinate : 0\n  Height : 10\n  Sitewidth : 1\n  SubrowOrigin : 0  NumSites : 50\nEnd\n" +
				"CoreRow Horizontal\n  Coordinate : 0\n  Height : 10\n  Sitewidth : 1\n  SubrowOrigin : 0  NumSites : 50\nEnd\n",
		},
		{
			name: "nan-row-coordinate",
			scl:  "CoreRow Horizontal\n  Coordinate : NaN\n  Height : 10\n  Sitewidth : 1\n  SubrowOrigin : 0  NumSites : 50\nEnd\n",
		},
		{
			name: "zero-height-row",
			scl:  "CoreRow Horizontal\n  Coordinate : 0\n  Height : 0\n  Sitewidth : 1\n  SubrowOrigin : 0  NumSites : 50\nEnd\n",
		},
		{name: "nan-pin-offset", nets: "NetDegree : 2 n\n  a I : NaN 0\n  b O : 1 1\n"},
		{name: "truncated-nets-pin-before-degree", nets: "  a I : 0 0\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nodes, pl, scl, nets := goodNodes, goodPl, goodScl, goodNets
			if tc.nodes != "" {
				nodes = "UCLA nodes 1.0\n" + tc.nodes
			}
			if tc.pl != "" {
				pl = "UCLA pl 1.0\n" + tc.pl
			}
			if tc.scl != "" {
				scl = "UCLA scl 1.0\n" + tc.scl
			}
			if tc.nets != "" {
				nets = "UCLA nets 1.0\n" + tc.nets
			}
			for _, read := range []struct {
				entry string
				read  func() (*design.Design, error)
			}{
				{"ReadFiles", func() (*design.Design, error) { return ReadFiles(writeSet(t, nodes, pl, scl, nets), "corrupt") }},
				{"ReadTexts", func() (*design.Design, error) {
					return ReadTexts(Texts{Nodes: nodes, Pl: pl, Scl: scl, Nets: nets}, "corrupt")
				}},
			} {
				_, err := read.read()
				if err == nil {
					t.Fatalf("%s: corruption %q was accepted", read.entry, tc.name)
				}
				if !errors.Is(err, mclgerr.ErrInvalidInput) {
					t.Fatalf("%s: corruption %q: error %v does not match ErrInvalidInput", read.entry, tc.name, err)
				}
			}
		})
	}
}

// Terminals (fixed macros) legitimately have heights that are not a whole
// multiple of the row height; only movable cells are held to that rule.
func TestReadAcceptsOddHeightTerminal(t *testing.T) {
	nodes := "UCLA nodes 1.0\n  a 4 10\n  m 8 35 terminal\n"
	pl := "UCLA pl 1.0\na 3 0 : N\nm 20 0 : N /FIXED\n"
	d, err := ReadFiles(writeSet(t, nodes, pl, goodScl, ""), "macro")
	if err != nil {
		t.Fatalf("ReadFiles: %v", err)
	}
	if !d.Cells[1].Fixed {
		t.Fatal("terminal not marked fixed")
	}
}

// TestSplitFieldsMatchesStringsFields pins the line splitter to
// strings.Fields(strings.TrimSpace(line)): Unicode spaces split, and
// invalid UTF-8 stays inside a field.
func TestSplitFieldsMatchesStringsFields(t *testing.T) {
	lines := []string{
		"", " ", "\t\r\n", "a", "  a 4 10  ", "a\tb\rc\nd",
		"a\vb\fc", "\va\f",
		"a\u0085b", "a\u00a0b", "a\u2003b", "a\u3000b", "\u3000a\u00a0",
		"a\u200bb", // zero-width space is not a space
		"\xff", "a\xffb c", "a\xe2\x80b", "\xe3\x80", "a \xc2\x85 b", "\xc2 \xa0",
		"x\u00a0\u0085\u2003\u3000y z",
	}
	var got [][]byte
	for _, line := range lines {
		got = splitFields(got, []byte(line))
		want := strings.Fields(strings.TrimSpace(line))
		if len(got) != len(want) {
			t.Errorf("splitFields(%q) = %q, want %q", line, got, want)
			continue
		}
		for i := range want {
			if string(got[i]) != want[i] {
				t.Errorf("splitFields(%q) = %q, want %q", line, got, want)
				break
			}
		}
	}
}
