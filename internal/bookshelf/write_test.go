package bookshelf

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mclg/internal/design"
	"mclg/internal/gen"
)

// fmtWrite is Write as it was when fmt printed every line: the reference
// TestWriteMatchesFmt holds Write's bytes to.
func fmtWrite(d *design.Design, auxPath string) error {
	base := strings.TrimSuffix(auxPath, ".aux")
	name := filepath.Base(base)
	write := func(path string, fill func(w io.Writer)) error {
		var b bytes.Buffer
		fill(&b)
		return os.WriteFile(path, b.Bytes(), 0o644)
	}
	if err := write(auxPath, func(w io.Writer) {
		fmt.Fprintf(w, "RowBasedPlacement : %s.nodes %s.nets %s.wts %s.pl %s.scl\n", name, name, name, name, name)
	}); err != nil {
		return err
	}
	if err := write(base+".nodes", func(w io.Writer) {
		terminals := 0
		for _, c := range d.Cells {
			if c.Fixed {
				terminals++
			}
		}
		fmt.Fprintln(w, "UCLA nodes 1.0")
		fmt.Fprintf(w, "NumNodes : %d\n", len(d.Cells))
		fmt.Fprintf(w, "NumTerminals : %d\n", terminals)
		for _, c := range d.Cells {
			if c.Fixed {
				fmt.Fprintf(w, "  %s %g %g terminal\n", c.Name, c.W, c.H)
			} else {
				fmt.Fprintf(w, "  %s %g %g\n", c.Name, c.W, c.H)
			}
		}
	}); err != nil {
		return err
	}
	if err := write(base+".pl", func(w io.Writer) {
		fmt.Fprintln(w, "UCLA pl 1.0")
		for _, c := range d.Cells {
			suffix := ""
			if c.Fixed {
				suffix = " /FIXED"
			}
			fmt.Fprintf(w, "%s %g %g : N%s\n", c.Name, c.GX, c.GY, suffix)
		}
	}); err != nil {
		return err
	}
	if err := write(base+".scl", func(w io.Writer) {
		fmt.Fprintln(w, "UCLA scl 1.0")
		fmt.Fprintf(w, "NumRows : %d\n", len(d.Rows))
		for _, r := range d.Rows {
			fmt.Fprintln(w, "CoreRow Horizontal")
			fmt.Fprintf(w, "  Coordinate : %g\n", r.Y)
			fmt.Fprintf(w, "  Height : %g\n", r.Height)
			fmt.Fprintf(w, "  Sitewidth : %g\n", r.SiteW)
			fmt.Fprintf(w, "  Sitespacing : %g\n", r.SiteW)
			fmt.Fprintln(w, "  Siteorient : 1")
			fmt.Fprintln(w, "  Sitesymmetry : 1")
			fmt.Fprintf(w, "  SubrowOrigin : %g  NumSites : %d\n", r.OriginX, r.NumSites)
			fmt.Fprintln(w, "End")
		}
	}); err != nil {
		return err
	}
	if err := write(base+".nets", func(w io.Writer) {
		fixedPin := func(n design.Net) bool {
			for _, p := range n.Pins {
				if p.CellID < 0 {
					return true
				}
			}
			return false
		}
		pins, nets := 0, 0
		for _, n := range d.Nets {
			if !fixedPin(n) {
				nets++
				pins += len(n.Pins)
			}
		}
		fmt.Fprintln(w, "UCLA nets 1.0")
		fmt.Fprintf(w, "NumNets : %d\n", nets)
		fmt.Fprintf(w, "NumPins : %d\n", pins)
		for _, n := range d.Nets {
			if fixedPin(n) {
				continue
			}
			fmt.Fprintf(w, "NetDegree : %d %s\n", len(n.Pins), n.Name)
			for _, p := range n.Pins {
				c := d.Cells[p.CellID]
				fmt.Fprintf(w, "  %s I : %g %g\n", c.Name, p.DX-c.W/2, p.DY-c.H/2)
			}
		}
	}); err != nil {
		return err
	}
	return write(base+".wts", func(w io.Writer) {
		fmt.Fprintln(w, "UCLA wts 1.0")
		for i := range d.Nets {
			n := &d.Nets[i]
			if n.Weight != 0 && n.Weight != 1 {
				fmt.Fprintf(w, "%s %g\n", n.Name, n.Weight)
			}
		}
	})
}

// TestWriteMatchesFmt writes designs through Write and through fmtWrite and
// wants every file byte for byte the same: each suite design at two scales
// with three fixed macros and a weighted net, and a design of awkward
// numbers (negative zero, subnormal, huge, many-digit, infinite and NaN
// coordinates and offsets, a fixed pin's net, weights of every kind).
func TestWriteMatchesFmt(t *testing.T) {
	var designs []*design.Design
	for _, scale := range []float64{0.004, 0.02} {
		for _, e := range gen.Suite {
			spec := gen.SuiteSpec(e, scale)
			spec.FixedMacros = 3
			d, err := gen.Generate(spec)
			if err != nil {
				t.Fatalf("%s@%g: %v", e.Name, scale, err)
			}
			d.Nets[len(d.Nets)/2].Weight = 2.5
			designs = append(designs, d)
		}
	}
	odd := design.NewDesign(design.Config{Name: "odd", NumRows: 3, NumSites: 40, RowHeight: 1.1, SiteW: 0.1,
		OriginX: -1.0000000000000002, OriginY: 1e21})
	for i, v := range []float64{math.Copysign(0, -1), 5e-324, 1.7976931348623157e308, 1.9608610334519208, -123456.789, 1e-7, 1e21, 100000, math.Inf(1), math.NaN()} {
		c := odd.AddCell(fmt.Sprintf("c%d/é", i), 0.30000000000000004, 2.2, design.VDD)
		c.GX, c.GY, c.Fixed = v, -v, i%3 == 0
		odd.Nets = append(odd.Nets, design.Net{Name: fmt.Sprint("n", i), Weight: []float64{0, 1, 0.1, 3e-9}[i%4],
			Pins: []design.Pin{{CellID: i, DX: v, DY: 1 / 3.0}, {CellID: 0, DX: -v}}})
	}
	odd.Nets = append(odd.Nets, design.Net{Name: "pad", Weight: 7, Pins: []design.Pin{{CellID: -1}, {CellID: 0}}})
	designs = append(designs, odd)

	dir := t.TempDir()
	for _, d := range designs {
		got, want := filepath.Join(dir, "got.aux"), filepath.Join(dir, "want.aux")
		if err := Write(d, got); err != nil {
			t.Fatal(err)
		}
		if err := fmtWrite(d, want); err != nil {
			t.Fatal(err)
		}
		for _, ext := range []string{".aux", ".nodes", ".pl", ".scl", ".nets", ".wts"} {
			g, err1 := os.ReadFile(filepath.Join(dir, "got"+ext))
			w, err2 := os.ReadFile(filepath.Join(dir, "want"+ext))
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			if ext == ".aux" {
				w = bytes.ReplaceAll(w, []byte("want."), []byte("got."))
			}
			if !bytes.Equal(g, w) {
				t.Errorf("%s %s: Write's %d bytes differ from fmt's %d", d.Name, ext, len(g), len(w))
			}
		}
	}
}
