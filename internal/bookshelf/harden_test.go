package bookshelf

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"

	"mclg/internal/design"
	"mclg/internal/gen"
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
					return ReadTexts(texts(nodes, pl, scl, nets, ""), "corrupt")
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

// TestKeywordsMatchWholeFields reads names that start with, or hold, a
// Bookshelf keyword. Matched by prefix or substring, as the reader once did,
// the node NumNodes_x was skipped as a header (the .pl then named an unknown
// node), the pin on NumPinsA was dropped, the pin on NetDegreeX opened a new
// net, and u1/FIXED_reg was read as fixed. Headers keep matching with the
// colon, or the colon and the count, attached ("NumPins:3"), and
// "/FIXED_NI" after the coordinates still fixes a node.
func TestKeywordsMatchWholeFields(t *testing.T) {
	const (
		pinA = "  a I : 0 0\n"
		pinB = "  b O : 1 1\n"
	)
	cases := []struct {
		name            string
		nodes, pl, nets string
		fixed           string   // the one fixed cell
		pins            []string // the one net's pins, by cell name
	}{
		{
			name:  "node-named-like-a-header",
			nodes: "NumNodes: 3\nNumTerminals : 0\n  a 4 10\n  b 3 10\n  NumNodes_x 2 10\n",
			pl:    "a 3 0 : N\nb 10 0 : N\nNumNodes_x 20 0 : N\n",
			nets:  "NetDegree : 3 n\n" + pinA + pinB + "  NumNodes_x I : 0 0\n",
			pins:  []string{"a", "b", "NumNodes_x"},
		},
		{
			name:  "pin-on-a-cell-named-like-a-header",
			nodes: "  a 4 10\n  b 3 10\n  NumPinsA 2 10\n",
			pl:    "a 3 0 : N\nb 10 0 : N\nNumPinsA 20 0 : N\n",
			nets:  "NumNets: 1\nNumPins : 3\nNetDegree: 3 n\n" + pinA + "  NumPinsA I : 0 0\n" + pinB,
			pins:  []string{"a", "NumPinsA", "b"},
		},
		{
			name:  "pin-on-a-cell-named-like-NetDegree",
			nodes: "  a 4 10\n  b 3 10\n  NetDegreeX 2 10\n",
			pl:    "a 3 0 : N\nb 10 0 : N\nNetDegreeX 20 0 : N\n",
			nets:  "NetDegree : 3 n\n" + pinA + "  NetDegreeX O : 1 1\n" + pinB,
			pins:  []string{"a", "NetDegreeX", "b"},
		},
		{
			name:  "headers-with-counts-attached",
			nodes: "NumNodes:3\nNumTerminals:0\n  a 4 10\n  b 3 10\n  c 2 10\n",
			pl:    "a 3 0 : N\nb 10 0 : N\nc 20 0 : N\n",
			nets:  "NumNets:1\nNumPins:3\nNetDegree:3 n\n" + pinA + pinB + "  c I : 0 0\n",
			pins:  []string{"a", "b", "c"},
		},
		{
			name:  "movable-cell-named-with-FIXED",
			nodes: "  a 4 10\n  b 3 10\n  u1/FIXED_reg 2 10\n  m 2 10 terminal\n",
			pl:    "a 3 0 : N\nb 10 0 : N\nu1/FIXED_reg 20 0 : N\nm 30 0 : N /FIXED_NI\n",
			nets:  "NetDegree : 2 n\n" + pinA + pinB,
			fixed: "m",
			pins:  []string{"a", "b"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nodes, pl, nets := "UCLA nodes 1.0\n"+tc.nodes, "UCLA pl 1.0\n"+tc.pl, "UCLA nets 1.0\n"+tc.nets
			for _, read := range []struct {
				entry string
				read  func() (*design.Design, error)
			}{
				{"ReadFiles", func() (*design.Design, error) { return ReadFiles(writeSet(t, nodes, pl, goodScl, nets), "kw") }},
				{"ReadTexts", func() (*design.Design, error) { return ReadTexts(texts(nodes, pl, goodScl, nets, ""), "kw") }},
			} {
				d, err := read.read()
				if err != nil {
					t.Fatalf("%s: %v", read.entry, err)
				}
				for _, c := range d.Cells {
					if want := c.Name == tc.fixed; c.Fixed != want {
						t.Errorf("%s: %s fixed = %v, want %v", read.entry, c.Name, c.Fixed, want)
					}
				}
				if len(d.Nets) != 1 || len(d.Nets[0].Pins) != len(tc.pins) {
					t.Fatalf("%s: %d nets, want one net of %d pins", read.entry, len(d.Nets), len(tc.pins))
				}
				for k, name := range tc.pins {
					if got := d.Cells[d.Nets[0].Pins[k].CellID].Name; got != name {
						t.Errorf("%s: pin %d on %s, want %s", read.entry, k, got, name)
					}
				}
			}
		})
	}
}

// TestHeadersPresizeOrFallBack reads one generated design's texts with
// honest headers, without headers, and with headers that undercount,
// overcount, overflow an int, go negative, come after the records they
// count or come a thousand times over. Every variant reads the design the oracle reads, and none
// allocates more than a fixed multiple of its text. With honest headers the
// cells sit in one array and nothing grows by doubling.
func TestHeadersPresizeOrFallBack(t *testing.T) {
	g, err := gen.Generate(gen.Spec{Name: "hdr", SingleCells: 300, DoubleCells: 40, Density: 0.6, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	aux := filepath.Join(t.TempDir(), "hdr.aux")
	if err := Write(g, aux); err != nil {
		t.Fatal(err)
	}
	read := func(comp string) string {
		b, err := os.ReadFile(strings.TrimSuffix(aux, "aux") + comp)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	nodes, pl, scl, nets, wts := read("nodes"), read("pl"), read("scl"), read("nets"), read("wts")
	headers := regexp.MustCompile(`(?m)^(NumNodes|NumTerminals|NumNets|NumPins) : \d+\n`)
	counts := func(repl string) func(string) string {
		return func(s string) string {
			return headers.ReplaceAllStringFunc(s, func(h string) string {
				return h[:strings.Index(h, ":")+2] + repl + "\n"
			})
		}
	}
	moveDown := func(s string) string { // headers after the records
		var hs []string
		s = headers.ReplaceAllStringFunc(s, func(h string) string { hs = append(hs, h); return "" })
		return s + strings.Join(hs, "")
	}
	for _, tc := range []struct {
		name  string
		apply func(string) string
	}{
		{"honest", func(s string) string { return s }},
		{"missing", func(s string) string { return headers.ReplaceAllString(s, "") }},
		{"undercount", counts("1")},
		{"overcount", counts("2000000000")},
		{"overflow", counts("99999999999999999999")},
		{"negative", counts("-5")},
		{"trailing", moveDown},
		{"repeated", func(s string) string { // each header 1000 times over
			return headers.ReplaceAllStringFunc(s, func(h string) string { return strings.Repeat(h, 1000) })
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tx := texts(tc.apply(nodes), pl, scl, tc.apply(nets), wts)
			d, err := ReadTexts(tx, "fuzz")
			sameRead(t, "ReadTexts", tx, d, err, true)
			if err != nil {
				t.Fatal(err)
			}
			if len(d.Cells) != len(g.Cells) || len(d.Nets) != len(g.Nets) {
				t.Fatalf("read %d cells and %d nets, want %d and %d", len(d.Cells), len(d.Nets), len(g.Cells), len(g.Nets))
			}
			mallocs, bytes := parseCost(t, tx, nil)
			if limit := 64 * (len(tx.Nodes) + len(tx.Nets)); bytes > uint64(limit) {
				t.Errorf("parse allocated %d bytes, over 64 per byte of nodes and nets text (%d)", bytes, limit)
			}
			if tc.name != "honest" {
				return
			}
			// Presized, the parse allocates about one name per cell and net
			// besides its fixed storage, and the cells sit in one array.
			if limit := uint64(len(d.Cells) + len(d.Nets) + 64); mallocs > limit {
				t.Errorf("honest headers: %d allocations, want at most %d", mallocs, limit)
			}
			size := reflect.TypeOf(design.Cell{}).Size()
			for i := 1; i < len(d.Cells); i++ {
				if reflect.ValueOf(d.Cells[i]).Pointer()-reflect.ValueOf(d.Cells[i-1]).Pointer() != size {
					t.Fatalf("honest headers: cells %d and %d are not adjacent in one array", i-1, i)
				}
			}
		})
	}
}

// TestDeclaredCounts reads header counts spaced from the keyword and
// attached to it, and caps them at the records the text can hold and at
// maxPresize; a line without a usable count gives 0.
func TestDeclaredCounts(t *testing.T) {
	for _, tc := range []struct {
		line       string
		size, want int
	}{
		{"NumNodes : 5", 1000, 5},
		{"NumNodes: 5", 1000, 5},
		{"NumNodes :5", 1000, 5},
		{"NumNodes:5", 1000, 5},
		{"NumNodes", 1000, 0},
		{"NumNodes :", 1000, 0},
		{"NumNodes : x", 1000, 0},
		{"NumNodes::5", 1000, 0},
		{"NumNodes : -5", 1000, 0},
		{"NumNodes : 99999999999999999999", 1000, 0},
		{"NumNodes : 2000000000", 600, 600 / nodeBytes},
		{"NumNodes : 2000000000", 1 << 30, maxPresize},
	} {
		if got := declared(splitFields(nil, []byte(tc.line)), "NumNodes", tc.size, nodeBytes); got != tc.want {
			t.Errorf("%q in %d bytes: declared %d, want %d", tc.line, tc.size, got, tc.want)
		}
	}
}

// TestStoreReusesItsStorage reads the same texts twice into one Store. The
// second read must build its design in the first one's storage: the same
// Design, Cell structs, net list and pin array. It must also allocate less
// than a tenth of the bytes a fresh read does, which is what the store
// saves a daemon's ingest.
func TestStoreReusesItsStorage(t *testing.T) {
	tx := largerTexts(t)
	var s Store
	first, err := ReadTextsIn(&s, tx, "fuzz")
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Nets) == 0 || len(first.Nets[0].Pins) == 0 {
		t.Fatal("the design has no pinned net")
	}
	cells := slices.Clone(first.Cells)
	nets, pins := &first.Nets[0], &first.Nets[0].Pins[0]
	second, err := ReadTextsIn(&s, tx, "fuzz")
	sameRead(t, "second ReadTextsIn", tx, second, err, true)
	if second != first {
		t.Fatal("the second read built a new Design")
	}
	for i, c := range second.Cells {
		if c != cells[i] {
			t.Fatalf("the second read built a new Cell for cell %d", i)
		}
	}
	if &second.Nets[0] != nets {
		t.Error("the second read built a new net list")
	}
	if &second.Nets[0].Pins[0] != pins {
		t.Error("the second read built a new pin array")
	}
	_, fresh := parseCost(t, tx, nil)
	if _, reused := parseCost(t, tx, &s); reused*10 > fresh {
		t.Errorf("a read into a used store allocated %d bytes, a fresh read %d; want under a tenth", reused, fresh)
	}
}

// parseCost returns the allocations and bytes one ReadTextsIn of tx into s,
// or into a fresh Store when s is nil, takes: the least of three reads,
// because the counters are process-wide, so another goroutine's allocation
// (a finalizer, the race detector's) may land in one.
func parseCost(t *testing.T, tx Texts, s *Store) (mallocs, bytes uint64) {
	mallocs, bytes = math.MaxUint64, math.MaxUint64
	for range 3 {
		into := s
		if into == nil {
			into = new(Store)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		_, err := ReadTextsIn(into, tx, "cost")
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		mallocs, bytes = min(mallocs, m1.Mallocs-m0.Mallocs), min(bytes, m1.TotalAlloc-m0.TotalAlloc)
	}
	return mallocs, bytes
}
