package bookshelf

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"

	"mclg/internal/design"
	"mclg/internal/mclgerr"
)

// oracleRead is the in-memory reader as it was before the parsers sized
// their storage from the headers: every index, cell, net and pin grows as
// the lines arrive. It keeps the keyword rules of the current reader: the
// header and NetDegree keywords match only as a whole first field, alone or
// with a colon and maybe the count attached, and a node is fixed by a
// "/FIXED" or "/FIXED_NI" field after its coordinates. It reads the rows and
// the weights with the reader's own parsers, into a fresh Store.
// FuzzReadFiles holds every entry point to it.
func oracleRead(t Texts, name string) (*design.Design, error) {
	var s Store
	rows, err := s.readScl(bytes.NewReader(t.Scl), "scl")
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, mclgerr.Invalidf("bookshelf: scl: no rows")
	}
	d, err := s.designFromRows(name, rows)
	if err != nil {
		return nil, err
	}
	idx, err := oracleNodes(bytes.NewReader(t.Nodes), "nodes", d)
	if err != nil {
		return nil, err
	}
	if err := oraclePl(bytes.NewReader(t.Pl), "pl", d, idx); err != nil {
		return nil, err
	}
	for _, c := range d.Cells {
		if c.EvenSpan() {
			r := d.RowAt(c.GY + d.RowHeight/2)
			if r < 0 {
				r = 0
			}
			c.BottomRail = d.Rows[r].Rail
		}
	}
	if err := oracleNets(bytes.NewReader(t.Nets), "nets", d, idx); err != nil {
		return nil, err
	}
	if err := s.readWts(bytes.NewReader(t.Wts), "wts"); err != nil {
		return nil, err
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// oracleScanner is the line scanner the reader used before it kept its line
// buffer in a Store.
func oracleScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxLine)
	return sc
}

// oracleKeyword is the keyword rule, spelled out on strings.
func oracleKeyword(field []byte, kw string) bool {
	s := string(field)
	return s == kw || strings.HasPrefix(s, kw+":")
}

func oracleNodes(r io.Reader, label string, d *design.Design) (map[string]int, error) {
	idx := make(map[string]int)
	sc := oracleScanner(r)
	var f [][]byte
	lineNo := 1
	for ; sc.Scan(); lineNo++ {
		f = splitFields(f, sc.Bytes())
		if skipLine(f) || oracleKeyword(f[0], "NumNodes") || oracleKeyword(f[0], "NumTerminals") {
			continue
		}
		if len(f) < 3 {
			return nil, mclgerr.Invalidf("bookshelf: %s:%d: bad node line %q", label, lineNo, bytes.TrimSpace(sc.Bytes()))
		}
		if _, dup := idx[string(f[0])]; dup {
			return nil, mclgerr.Invalidf("bookshelf: %s:%d: duplicate node %q", label, lineNo, f[0])
		}
		w, err1 := parseFloat(f[1])
		h, err2 := parseFloat(f[2])
		if err1 != nil || err2 != nil {
			return nil, mclgerr.Invalidf("bookshelf: %s:%d: bad node dimensions", label, lineNo)
		}
		name := string(f[0])
		var c *design.Cell
		var err error
		if len(f) > 3 && bytes.EqualFold(f[3], []byte("terminal")) {
			c, err = d.AddTerminalChecked(name, w, h)
		} else {
			c, err = d.AddCellChecked(name, w, h, design.VSS)
		}
		if err != nil {
			return nil, fmt.Errorf("bookshelf: %s:%d: %w", label, lineNo, err)
		}
		idx[name] = c.ID
	}
	return idx, scanErr(sc, label, lineNo)
}

func oraclePl(r io.Reader, label string, d *design.Design, idx map[string]int) error {
	sc := oracleScanner(r)
	var f [][]byte
	lineNo := 1
	for ; sc.Scan(); lineNo++ {
		f = splitFields(f, sc.Bytes())
		if skipLine(f) || len(f) < 3 {
			continue
		}
		id, ok := idx[string(f[0])]
		if !ok {
			return mclgerr.Invalidf("bookshelf: %s:%d: unknown node %q", label, lineNo, f[0])
		}
		x, err1 := parseFloat(f[1])
		y, err2 := parseFloat(f[2])
		if err1 != nil || err2 != nil {
			return mclgerr.Invalidf("bookshelf: %s:%d: bad coordinates", label, lineNo)
		}
		if !isFinite(x) || !isFinite(y) {
			return mclgerr.Invalidf("bookshelf: %s:%d: non-finite coordinates (%g, %g)", label, lineNo, x, y)
		}
		c := d.Cells[id]
		c.GX, c.GY = x, y
		c.X, c.Y = x, y
		for _, g := range f[3:] {
			if s := string(g); s == "/FIXED" || s == "/FIXED_NI" {
				c.Fixed = true
			}
		}
	}
	return scanErr(sc, label, lineNo)
}

func oracleNets(r io.Reader, label string, d *design.Design, idx map[string]int) error {
	sc := oracleScanner(r)
	first := len(d.Nets)
	var pins []design.Pin
	start := 0
	var f [][]byte
	lineNo := 1
	for ; sc.Scan(); lineNo++ {
		f = splitFields(f, sc.Bytes())
		if skipLine(f) || oracleKeyword(f[0], "NumNets") || oracleKeyword(f[0], "NumPins") {
			continue
		}
		if oracleKeyword(f[0], "NetDegree") {
			var name string
			if len(f) >= 4 {
				name = string(f[3])
			} else {
				name = "net" + strconv.Itoa(len(d.Nets))
			}
			d.Nets = append(d.Nets, design.Net{Name: name})
			start = len(pins)
			continue
		}
		if len(d.Nets) == first {
			return mclgerr.Invalidf("bookshelf: %s:%d: pin before NetDegree", label, lineNo)
		}
		id, ok := idx[string(f[0])]
		if !ok {
			return mclgerr.Invalidf("bookshelf: %s:%d: unknown node %q", label, lineNo, f[0])
		}
		dx, dy := 0.0, 0.0
		if len(f) >= 5 {
			var err1, err2 error
			dx, err1 = parseFloat(f[3])
			dy, err2 = parseFloat(f[4])
			if err1 != nil || err2 != nil {
				return mclgerr.Invalidf("bookshelf: %s:%d: bad pin offsets", label, lineNo)
			}
			if !isFinite(dx) || !isFinite(dy) {
				return mclgerr.Invalidf("bookshelf: %s:%d: non-finite pin offsets (%g, %g)", label, lineNo, dx, dy)
			}
		}
		c := d.Cells[id]
		pins = append(pins, design.Pin{CellID: id, DX: dx + c.W/2, DY: dy + c.H/2})
		d.Nets[len(d.Nets)-1].Pins = pins[start:len(pins):len(pins)]
	}
	if err := scanErr(sc, label, lineNo); err != nil {
		return err
	}
	at := 0
	for i := first; i < len(d.Nets); i++ {
		n := len(d.Nets[i].Pins)
		d.Nets[i].Pins = pins[at : at+n : at+n]
		at += n
	}
	return nil
}

// texts builds Texts from strings.
func texts(nodes, pl, scl, nets, wts string) Texts {
	return Texts{Nodes: []byte(nodes), Pl: []byte(pl), Scl: []byte(scl), Nets: []byte(nets), Wts: []byte(wts)}
}

// sameRead fails t unless got and gotErr are what the oracle reads from tx:
// both fail, with the same error class, and with the same text when
// exactErr is set (ReadFiles' errors name paths, not components), or both
// read the same design, field for field.
func sameRead(t testing.TB, entry string, tx Texts, got *design.Design, gotErr error, exactErr bool) {
	t.Helper()
	want, wantErr := oracleRead(tx, "fuzz")
	if (gotErr == nil) != (wantErr == nil) || mclgerr.Class(gotErr) != mclgerr.Class(wantErr) {
		t.Fatalf("%s error %v, oracle error %v", entry, gotErr, wantErr)
	}
	if wantErr != nil {
		if exactErr && gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s error %q, oracle error %q", entry, gotErr, wantErr)
		}
		return
	}
	if msg := diffDesigns(got, want); msg != "" {
		t.Fatalf("%s vs oracle: %s", entry, msg)
	}
}

// diffDesigns describes the first difference between a and b in their
// geometry, rows, cells (every field) and nets (names, weights and every
// pin field), or returns "".
func diffDesigns(a, b *design.Design) string {
	if a.Name != b.Name || a.Core != b.Core || a.RowHeight != b.RowHeight || a.SiteW != b.SiteW {
		return fmt.Sprintf("geometry %q %v %g %g, want %q %v %g %g",
			a.Name, a.Core, a.RowHeight, a.SiteW, b.Name, b.Core, b.RowHeight, b.SiteW)
	}
	if len(a.Rows) != len(b.Rows) || len(a.Cells) != len(b.Cells) || len(a.Nets) != len(b.Nets) {
		return fmt.Sprintf("%d rows, %d cells, %d nets; want %d, %d, %d",
			len(a.Rows), len(a.Cells), len(a.Nets), len(b.Rows), len(b.Cells), len(b.Nets))
	}
	for i := range a.Rows {
		if a.Rows[i] != b.Rows[i] {
			return fmt.Sprintf("row %d: %+v, want %+v", i, a.Rows[i], b.Rows[i])
		}
	}
	for i, c := range a.Cells {
		if *c != *b.Cells[i] {
			return fmt.Sprintf("cell %d: %+v, want %+v", i, *c, *b.Cells[i])
		}
	}
	for i, n := range a.Nets {
		m := b.Nets[i]
		if n.Name != m.Name || n.Weight != m.Weight || len(n.Pins) != len(m.Pins) {
			return fmt.Sprintf("net %d: %q weight %g with %d pins, want %q weight %g with %d pins",
				i, n.Name, n.Weight, len(n.Pins), m.Name, m.Weight, len(m.Pins))
		}
		for k, p := range n.Pins {
			if p != m.Pins[k] {
				return fmt.Sprintf("net %d pin %d: %+v, want %+v", i, k, p, m.Pins[k])
			}
		}
	}
	return ""
}
