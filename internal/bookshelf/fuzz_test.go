package bookshelf

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"mclg/internal/design"
	"mclg/internal/mclgerr"
)

// FuzzReadFiles feeds arbitrary bytes through the core parsers, once from
// files (ReadFiles) and once from memory (ReadTexts). The invariants: the
// reader must return either a well-formed design or an error — never panic
// and never produce a design with invalid geometry — and both entry points
// must agree: the same error class, or equal designs.
func FuzzReadFiles(f *testing.F) {
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
		dm, errm := ReadTexts(Texts{Nodes: nodes, Pl: pl, Scl: scl, Nets: nets}, "fuzz")
		if (err == nil) != (errm == nil) || mclgerr.Class(err) != mclgerr.Class(errm) {
			t.Fatalf("entry points disagree:\nReadFiles: %v\nReadTexts: %v", err, errm)
		}
		if errm != nil && !errors.Is(errm, mclgerr.ErrInvalidInput) {
			t.Fatalf("in-memory parse failed with %v, which does not match ErrInvalidInput", errm)
		}
		if err != nil {
			return
		}
		sameDesign(t, d, dm)
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

// sameDesign fails t unless a and b have the same cells (names, sizes,
// positions, Fixed flags) and the same nets (names, weights, pins).
func sameDesign(t *testing.T, a, b *design.Design) {
	t.Helper()
	if len(a.Cells) != len(b.Cells) || len(a.Nets) != len(b.Nets) {
		t.Fatalf("ReadFiles: %d cells, %d nets; ReadTexts: %d cells, %d nets",
			len(a.Cells), len(a.Nets), len(b.Cells), len(b.Nets))
	}
	for i, c := range a.Cells {
		m := b.Cells[i]
		if c.Name != m.Name || c.W != m.W || c.H != m.H || c.GX != m.GX || c.GY != m.GY || c.Fixed != m.Fixed {
			t.Fatalf("cell %d: ReadFiles %+v, ReadTexts %+v", i, *c, *m)
		}
	}
	for i, n := range a.Nets {
		m := b.Nets[i]
		if n.Name != m.Name || n.Weight != m.Weight || len(n.Pins) != len(m.Pins) {
			t.Fatalf("net %d: ReadFiles %q weight %g with %d pins, ReadTexts %q weight %g with %d pins",
				i, n.Name, n.Weight, len(n.Pins), m.Name, m.Weight, len(m.Pins))
		}
		for k, p := range n.Pins {
			if p != m.Pins[k] {
				t.Fatalf("net %d pin %d: ReadFiles %+v, ReadTexts %+v", i, k, p, m.Pins[k])
			}
		}
	}
}
