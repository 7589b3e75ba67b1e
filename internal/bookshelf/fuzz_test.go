package bookshelf

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mclg/internal/gen"
	"mclg/internal/mclgerr"
)

// FuzzReadFiles feeds arbitrary bytes through the core parsers, once from
// files (ReadFiles), once from memory into a fresh Store (ReadTextsIn), and
// from memory into a Store that already holds another parse: a larger valid
// design, with fixed macros, multi-row cells on both rails and weighted
// nets, or a read of it that failed in its nets. The invariants: the reader
// must return either a well-formed design or an error — never panic and
// never produce a design with invalid geometry — and every entry point must
// read what oracleRead reads, the reader that grows all its storage as lines
// arrive: the same error (its text too, from memory), or the same design,
// every row, cell, net and pin field included.
func FuzzReadFiles(f *testing.F) {
	larger := largerTexts(f)
	failed := larger
	failed.Nets = append(bytes.Clone(larger.Nets), "  zz I : 0 0\n"...)
	f.Add(
		"UCLA nodes 1.0\nNumNodes : 1\nNumTerminals : 0\n  a 4 10\n",
		"UCLA pl 1.0\na 3 0 : N\n",
		"UCLA scl 1.0\nNumRows : 1\nCoreRow Horizontal\n  Coordinate : 0\n  Height : 10\n  Sitewidth : 1\n  SubrowOrigin : 0  NumSites : 50\nEnd\n",
		"UCLA nets 1.0\nNumNets : 1\nNumPins : 2\nNetDegree : 2 n\n  a I : 0 0\n  a O : 1 1\n",
	)
	f.Add("", "", "", "")
	f.Add("a -1 -5\n", "a NaN Inf : N\n", "CoreRow\nEnd\n", "NetDegree : 0\n")
	f.Add(
		"UCLA nodes 1.0\n  a 4 10 terminal\n",
		"a 1 2 : N /FIXED\n",
		"CoreRow Horizontal\nCoordinate : 5\nHeight : 10\nSitewidth : 2\nSubrowOrigin : 1 NumSites : 3\nEnd\n",
		"NetDegree : 1 solo\n  a I : 0 0\n",
	)
	// Corrupted variants of a valid file set: non-finite coordinates,
	// duplicate nodes, degenerate site spacing, overlapping rows, and a
	// truncated nets file. Each must be rejected, not crash the reader.
	f.Add(
		"UCLA nodes 1.0\n  a 4 10\n  a 4 10\n",
		"a NaN Inf : N\n",
		"CoreRow Horizontal\n  Coordinate : 0\n  Height : 10\n  Sitewidth : 1\n  Sitespacing : 0\n  SubrowOrigin : 0  NumSites : 50\nEnd\n",
		"  a I : 0 0\n",
	)
	f.Add(
		"UCLA nodes 1.0\n  a 0 -10\n",
		"a 1e308 -1e308 : N\n",
		"CoreRow Horizontal\n  Coordinate : 0\n  Height : 10\n  Sitewidth : 1\n  SubrowOrigin : 0  NumSites : 50\nEnd\n"+
			"CoreRow Horizontal\n  Coordinate : 5\n  Height : 10\n  Sitewidth : 1\n  SubrowOrigin : 0  NumSites : 50\nEnd\n",
		"NetDegree : 2 n\n  a I : NaN 0\n",
	)
	f.Add(
		"UCLA nodes 1.0\n  a 4 10\nNumNodes",
		"a 3 0",
		"CoreRow Horizontal\n  Coordinate : NaN\n  Height : Inf\n  Sitewidth",
		"NetDegree : 2",
	)
	// Keyword look-alikes: names that start with a header keyword, a
	// movable node whose name holds "/FIXED", and headers with and without
	// colons that undercount, overcount, overflow or go negative.
	f.Add(
		"UCLA nodes 1.0\nNumNodes: 1\nNumTerminals : 1\n  NumNodes_x 4 10\n  NumPinsA 3 10\n  NetDegreeX 2 10\n  u1/FIXED_reg 2 10\n  m 2 10 terminal\n",
		"NumNodes_x 3 0 : N\nNumPinsA 10 0 : N\nNetDegreeX 15 0 : N\nu1/FIXED_reg 20 0 : N\nm 30 0 : N /FIXED_NI\n",
		"CoreRow Horizontal\n  Coordinate : 0\n  Height : 10\n  Sitewidth : 1\n  SubrowOrigin : 0  NumSites : 50\nEnd\n",
		"NumNets: 1\nNumPins : -3\nNetDegree: 3 n\n  NumPinsA I : 0 0\n  NetDegreeX O : 1 1\n",
	)
	f.Add(
		"NumNodes : 99999999999999999999\n  a 4 10\n  b 4 10\n",
		"a 3 0 : N\nb 10 0 : N /FIXED\n",
		"CoreRow Horizontal\n  Coordinate : 0\n  Height : 10\n  Sitewidth : 1\n  SubrowOrigin : 0  NumSites : 50\nEnd\n",
		"NumNets : 2000000000\nNumPins : 2000000000\nNetDegree : 2 n\n  a I : 0 0\n  b O : 1 1\nNetDegree : 1\n  b\nNumPins : 1\n",
	)
	f.Add(
		"NumNodes:2\nNumNodes:2\nNumTerminals:0\n  a 4 10\n  b 4 10\n",
		"a 3 0 : N\nb 10 0 : N\n",
		"CoreRow Horizontal\n  Coordinate : 0\n  Height : 10\n  Sitewidth : 1\n  SubrowOrigin : 0  NumSites : 50\nEnd\n",
		"NumNets:1\nNumPins:2\nNumPins:2\nNetDegree:2\n  a I : 0 0\n  b O : 1 1\n",
	)
	// Names the larger design also holds ("o6", "macro0"): a store that kept
	// its name index would find "macro0", which these texts never declare,
	// or call "o6" a duplicate.
	f.Add(
		"UCLA nodes 1.0\n  o6 4 10\n",
		"o6 3 0 : N\nmacro0 1 1 : N /FIXED\n",
		"CoreRow Horizontal\n  Coordinate : 0\n  Height : 10\n  Sitewidth : 1\n  SubrowOrigin : 0  NumSites : 50\nEnd\n",
		"NetDegree : 1 n\n  o6 I : 0 0\n",
	)
	f.Fuzz(func(t *testing.T, nodes, pl, scl, nets string) {
		dir := t.TempDir()
		files := Files{
			Nodes: filepath.Join(dir, "f.nodes"),
			Pl:    filepath.Join(dir, "f.pl"),
			Scl:   filepath.Join(dir, "f.scl"),
			Nets:  filepath.Join(dir, "f.nets"),
		}
		os.WriteFile(files.Nodes, []byte(nodes), 0o644)
		os.WriteFile(files.Pl, []byte(pl), 0o644)
		os.WriteFile(files.Scl, []byte(scl), 0o644)
		os.WriteFile(files.Nets, []byte(nets), 0o644)
		d, err := ReadFiles(files, "fuzz")
		tx := texts(nodes, pl, scl, nets, "")
		dm, errm := ReadTextsIn(new(Store), tx, "fuzz")
		sameRead(t, "ReadFiles", tx, d, err, false)
		sameRead(t, "ReadTextsIn", tx, dm, errm, true)
		for _, prior := range []struct {
			name string
			tx   Texts
			ok   bool
		}{{"a larger design", larger, true}, {"a failed parse", failed, false}} {
			var s Store
			if _, err := ReadTextsIn(&s, prior.tx, "prior"); (err == nil) != prior.ok {
				t.Fatalf("reading %s: %v", prior.name, err)
			}
			ds, errs := ReadTextsIn(&s, tx, "fuzz")
			sameRead(t, "ReadTextsIn after "+prior.name, tx, ds, errs, true)
		}
		if errm != nil && !errors.Is(errm, mclgerr.ErrInvalidInput) {
			t.Fatalf("in-memory parse failed with %v, which does not match ErrInvalidInput", errm)
		}
		if err != nil {
			return
		}
		if d.RowHeight <= 0 || d.SiteW <= 0 {
			t.Fatalf("accepted degenerate geometry: h=%g sw=%g", d.RowHeight, d.SiteW)
		}
		if len(d.Rows) == 0 {
			t.Fatal("accepted design with no rows")
		}
		for _, n := range d.Nets {
			for _, p := range n.Pins {
				if p.CellID >= len(d.Cells) {
					t.Fatalf("pin references cell %d of %d", p.CellID, len(d.Cells))
				}
			}
		}
	})
}

// largerTexts writes a generated design of 160 cells, fixed macros, double-
// and triple-row cells and two weighted nets among them, and returns its
// texts.
func largerTexts(tb testing.TB) Texts {
	g, err := gen.Generate(gen.Spec{Name: "larger", SingleCells: 120, DoubleCells: 25, TripleCells: 10,
		FixedMacros: 5, Density: 0.6, Seed: 3})
	if err != nil {
		tb.Fatal(err)
	}
	g.Nets[0].Weight, g.Nets[len(g.Nets)-1].Weight = 3, 0.25
	aux := filepath.Join(tb.TempDir(), "larger.aux")
	if err := Write(g, aux); err != nil {
		tb.Fatal(err)
	}
	read := func(comp string) []byte {
		b, err := os.ReadFile(strings.TrimSuffix(aux, "aux") + comp)
		if err != nil {
			tb.Fatal(err)
		}
		return b
	}
	return Texts{Nodes: read("nodes"), Pl: read("pl"), Scl: read("scl"), Nets: read("nets"), Wts: read("wts")}
}
