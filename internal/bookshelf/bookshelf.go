// Package bookshelf reads and writes the UCLA Bookshelf placement format
// (.aux, .nodes, .pl, .scl, .nets) used by the ISPD contest benchmark
// families the paper evaluates on. It lets real benchmarks be plugged into
// the legalizer and lets the synthetic suite be exported for external
// tools.
//
// Power-rail types are not part of Bookshelf; on load, each row's rail is
// derived from its parity (VSS at the bottom row, alternating upward) and
// each even-row-height cell's designed bottom rail is taken from the rail
// of the row nearest its placed position — the same convention the paper's
// modified contest benchmarks use implicitly.
//
// Bookshelf pin offsets are measured from the cell center; the design model
// uses bottom-left corners, and the conversion happens on read/write.
package bookshelf

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"mclg/internal/design"
	"mclg/internal/mclgerr"
)

// Files names the Bookshelf component files. Wts (net weights) is
// optional.
type Files struct {
	Nodes, Nets, Pl, Scl, Wts string
}

// Texts holds the contents of the Bookshelf components, field for field as
// Files names their paths. The reader only reads them, so they may be views
// of a larger buffer such as a request body. Nets and Wts may be empty.
type Texts struct {
	Nodes, Nets, Pl, Scl, Wts []byte
}

// ReadAux parses a .aux file and returns the component file names resolved
// relative to the .aux location. Weights are optional: a named .wts file
// that does not exist is left out, so every reader of the set, whether it
// parses the files or uploads them, skips it alike.
func ReadAux(path string) (Files, error) {
	f, err := os.Open(path)
	if err != nil {
		return Files{}, err
	}
	defer f.Close()
	dir := filepath.Dir(path)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// "RowBasedPlacement : a.nodes a.nets a.wts a.pl a.scl"
		if i := strings.Index(line, ":"); i >= 0 {
			line = line[i+1:]
		}
		var out Files
		for _, tok := range strings.Fields(line) {
			p := filepath.Join(dir, tok)
			switch filepath.Ext(tok) {
			case ".nodes":
				out.Nodes = p
			case ".nets":
				out.Nets = p
			case ".pl":
				out.Pl = p
			case ".scl":
				out.Scl = p
			case ".wts":
				if _, err := os.Stat(p); !os.IsNotExist(err) {
					out.Wts = p
				}
			}
		}
		if out.Nodes == "" || out.Pl == "" || out.Scl == "" {
			return Files{}, fmt.Errorf("bookshelf: %s: missing component files in %q", path, line)
		}
		return out, nil
	}
	if err := sc.Err(); err != nil {
		return Files{}, err
	}
	return Files{}, fmt.Errorf("bookshelf: %s: empty aux file", path)
}

// Read loads a design from an .aux file.
func Read(auxPath string) (*design.Design, error) {
	files, err := ReadAux(auxPath)
	if err != nil {
		return nil, err
	}
	return ReadFiles(files, strings.TrimSuffix(filepath.Base(auxPath), ".aux"))
}

// ReadFiles loads a design from explicit component paths. Nets and Wts may
// be empty. Errors name the file and line ("/path/d.nodes:6").
func ReadFiles(files Files, name string) (*design.Design, error) {
	file := func(path, comp string) source {
		return func(parse parser) error {
			if path == "" && (comp == "nets" || comp == "wts") {
				return nil
			}
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			defer f.Close()
			size := 0 // unknown: nothing is presized
			if st, err := f.Stat(); err == nil && st.Mode().IsRegular() {
				size = int(st.Size())
			}
			return parse(f, path, size)
		}
	}
	return new(Store).read(name, file(files.Scl, "scl"), file(files.Nodes, "nodes"), file(files.Pl, "pl"),
		file(files.Nets, "nets"), file(files.Wts, "wts"))
}

// ReadTexts loads a design from in-memory component texts, such as an
// upload, with the same parsers and checks as ReadFiles. Errors name the
// component and line ("nodes:6"); every one matches ErrInvalidInput.
func ReadTexts(texts Texts, name string) (*design.Design, error) {
	return ReadTextsIn(new(Store), texts, name)
}

// ReadTextsIn is ReadTexts building the design in s. The design lives in s
// until the next read into s, which overwrites it whether or not either read
// succeeds, so s must not be read into while anything still reads the
// design. A Store serves one read at a time.
func ReadTextsIn(s *Store, texts Texts, name string) (*design.Design, error) {
	text := func(b []byte, comp string) source {
		return func(parse parser) error { return parse(bytes.NewReader(b), comp, len(b)) }
	}
	return s.read(name, text(texts.Scl, "scl"), text(texts.Nodes, "nodes"), text(texts.Pl, "pl"),
		text(texts.Nets, "nets"), text(texts.Wts, "wts"))
}

// Store is reusable storage for one parse: the design with its rows, cells
// (the Cell structs that its spare pointer slots point at included), net
// list and pin array, and the parse's own name and .wts indexes and line
// buffer. Read into again, it keeps the capacity the largest read built, so
// a parse no larger allocates little beyond the names it reads. The zero
// Store is ready to use.
type Store struct {
	d     *design.Design
	nodes map[string]int // cell IDs by name
	sized int            // the most names nodes has been sized or grown for
	nets  map[string]int // net indexes by name, for the weights
	pins  []design.Pin   // the one array every net's pins share
	line  []byte         // the line scanners' buffer
}

// A parser reads one component from r. label names it in error messages,
// and size is its length in bytes, or 0 when unknown: it bounds what a
// header's declared count may presize.
type parser func(r io.Reader, label string, size int) error

// A source hands parse one component's content, label and size, or returns
// nil without calling parse when an optional component is absent.
type source func(parse parser) error

// read runs the component parsers over their sources in dependency order,
// building the design in s.
func (s *Store) read(name string, scl, nodes, pl, nets, wts source) (*design.Design, error) {
	var d *design.Design
	if err := scl(func(r io.Reader, label string, _ int) error {
		rows, err := s.readScl(r, label)
		if err != nil {
			return err
		}
		if len(rows) == 0 {
			return mclgerr.Invalidf("bookshelf: %s: no rows", label)
		}
		d, err = s.designFromRows(name, rows)
		return err
	}); err != nil {
		return nil, err
	}
	if err := nodes(func(r io.Reader, label string, size int) error {
		return s.readNodes(r, label, size)
	}); err != nil {
		return nil, err
	}
	if err := pl(func(r io.Reader, label string, _ int) error {
		return s.readPl(r, label)
	}); err != nil {
		return nil, err
	}
	// Derive rails for even-span cells from their placed row.
	for _, c := range d.Cells {
		if c.EvenSpan() {
			r := d.RowAt(c.GY + d.RowHeight/2)
			if r < 0 {
				r = 0
			}
			c.BottomRail = d.Rows[r].Rail
		}
	}
	if err := nets(func(r io.Reader, label string, size int) error {
		return s.readNets(r, label, size)
	}); err != nil {
		return nil, err
	}
	if err := wts(func(r io.Reader, label string, _ int) error {
		return s.readWts(r, label)
	}); err != nil {
		return nil, err
	}
	// Final structural gate: anything the per-file parsers could not see in
	// isolation (cells wider than the core, spans taller than the core, …)
	// surfaces here as ErrInvalidInput instead of a downstream panic.
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// maxLine is the longest line the .nodes, .pl, .nets and .wts readers
// accept; .scl lines keep bufio's 64 KiB default.
const maxLine = 1 << 20

// lineBuf is the size of the store's line buffer: bufio's initial one, so a
// scanner grows a longer line's buffer by the same steps as its own.
const lineBuf = 4096

// scanner returns a line scanner over r that reads into s's line buffer; a
// longer line grows a buffer of its own, up to limit bytes. One scanner at
// a time may use it.
func (s *Store) scanner(r io.Reader, limit int) *bufio.Scanner {
	if s.line == nil {
		s.line = make([]byte, lineBuf)
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(s.line, limit)
	return sc
}

// scanErr types a scanner failure at line lineNo: a line over the limit is
// bad input; any other error comes from the reader and passes through.
func scanErr(sc *bufio.Scanner, label string, lineNo int) error {
	err := sc.Err()
	if errors.Is(err, bufio.ErrTooLong) {
		return mclgerr.Invalidf("bookshelf: %s:%d: %v", label, lineNo, err)
	}
	return err
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// splitFields appends the whitespace-separated fields of line to dst[:0]
// and returns it: strings.Fields(strings.TrimSpace(line)) without
// allocating once dst has grown. ASCII bytes are classified by table; other
// bytes are decoded as UTF-8, and invalid sequences count as non-space.
func splitFields(dst [][]byte, line []byte) [][]byte {
	dst = dst[:0]
	start := -1
	for i := 0; i < len(line); {
		c, size := line[i], 1
		space := false
		if c < utf8.RuneSelf {
			space = asciiSpace[c]
		} else {
			var r rune
			r, size = utf8.DecodeRune(line[i:])
			space = unicode.IsSpace(r)
		}
		if space {
			if start >= 0 {
				dst = append(dst, line[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
		i += size
	}
	if start >= 0 {
		dst = append(dst, line[start:])
	}
	return dst
}

// hasPrefix is bytes.HasPrefix against a string.
func hasPrefix(b []byte, prefix string) bool {
	return len(b) >= len(prefix) && string(b[:len(prefix)]) == prefix
}

// skipLine reports whether a line, split into fields, is blank, a comment
// or the format header ("UCLA nodes 1.0").
func skipLine(fields [][]byte) bool {
	return len(fields) == 0 || fields[0][0] == '#' || hasPrefix(fields[0], "UCLA")
}

// keyword reports whether field is the keyword kw, alone or with a colon
// and maybe its count attached ("NumNodes", "NumNodes:", "NumNodes:5"); a
// name that merely starts with it ("NumNodes_x") is not.
func keyword(field []byte, kw string) bool {
	n := len(kw)
	return len(field) >= n && string(field[:n]) == kw && (len(field) == n || field[n] == ':')
}

// Each header count is capped by the records a component of its size can
// hold, so a hostile header presizes no more than the upload justifies.
// These are the shortest records, line break included: a node line holds a
// name and two dimensions ("a 1 1"), a net starts with a NetDegree line, and
// a pin line may be a bare node name. maxPresize caps every count as well,
// so that no header presizes more than a million records however large its
// component; a larger design grows past them by append.
const (
	nodeBytes  = len("a 1 1\n")
	netBytes   = len("NetDegree\n")
	pinBytes   = len("a\n")
	maxPresize = 1 << 20
)

// declared returns the count that a header line, split into fields f whose
// first is the keyword kw, gives after the keyword and an optional colon
// ("NumNodes : 5", "NumNodes:5"), capped at maxPresize and at the records
// of at least minBytes that size bytes can hold. It returns 0 when the line
// gives no count that is a non-negative int.
func declared(f [][]byte, kw string, size, minBytes int) int {
	for i, g := range f {
		if i == 0 {
			g = g[len(kw):]
		}
		if g = bytes.TrimPrefix(g, []byte(":")); len(g) == 0 {
			continue
		}
		n, err := strconv.Atoi(string(g))
		if err != nil || n < 0 {
			return 0
		}
		return min(n, maxPresize, (size+1)/minBytes)
	}
	return 0
}

// lowerPrefix reports whether strings.ToLower(string(b)) starts with lower,
// an ASCII lower-case word, and returns the rest of b after it.
func lowerPrefix(b []byte, lower string) ([]byte, bool) {
	for i := 0; i < len(lower); i++ {
		r, n := utf8.DecodeRune(b)
		if n == 0 || unicode.ToLower(r) != rune(lower[i]) {
			return nil, false
		}
		b = b[n:]
	}
	return b, true
}

// lowerIs reports whether strings.ToLower(string(b)) == lower.
func lowerIs(b []byte, lower string) bool {
	rest, ok := lowerPrefix(b, lower)
	return ok && len(rest) == 0
}

func parseFloat(b []byte) (float64, error) { return strconv.ParseFloat(string(b), 64) }

// readWts parses a net-weights file: lines of "netname weight". Unknown
// nets are ignored (some generators emit node weights in the same file);
// missing weights default to 1.
func (s *Store) readWts(r io.Reader, label string) error {
	d := s.d
	indexed := false // s.nets is rebuilt at the first weight line
	sc := s.scanner(r, maxLine)
	var f [][]byte
	lineNo := 1
	for ; sc.Scan(); lineNo++ {
		f = splitFields(f, sc.Bytes())
		if skipLine(f) || len(f) < 2 {
			continue
		}
		if !indexed {
			if s.nets == nil {
				s.nets = make(map[string]int, len(d.Nets))
			}
			clear(s.nets)
			for i := range d.Nets {
				s.nets[d.Nets[i].Name] = i
			}
			indexed = true
		}
		i, ok := s.nets[string(f[0])]
		if !ok {
			continue
		}
		w, err := parseFloat(f[1])
		if err != nil || w < 0 || !isFinite(w) {
			return mclgerr.Invalidf("bookshelf: %s:%d: bad weight %q", label, lineNo, f[1])
		}
		d.Nets[i].Weight = w
	}
	return scanErr(sc, label, lineNo)
}

type sclRow struct {
	y, height, siteW, origin float64
	spacing                  float64 // 0 when the file omits Sitespacing
	numSites                 int
}

// readScl parses the row file. Keywords match case-insensitively.
func (s *Store) readScl(r io.Reader, label string) ([]sclRow, error) {
	var rows []sclRow
	var cur *sclRow
	sc := s.scanner(r, bufio.MaxScanTokenSize)
	var vals [][]byte
	var rest []byte
	lineNo := 1
	for ; sc.Scan(); lineNo++ {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] == '#' || hasPrefix(line, "UCLA") {
			continue
		}
		if _, ok := lowerPrefix(line, "corerow"); ok {
			rows = append(rows, sclRow{siteW: 1})
			cur = &rows[len(rows)-1]
			continue
		}
		if lowerIs(line, "end") {
			cur = nil
			continue
		}
		if cur == nil {
			continue // NumRows etc.
		}
		// "Key : v1 Key2 : v2": the first key, then the value tokens with
		// later colons read as blanks and later keys kept as tokens.
		i := bytes.IndexByte(line, ':')
		if i < 0 {
			continue
		}
		key := bytes.TrimSpace(line[:i])
		rest = append(rest[:0], line[i+1:]...)
		for j, c := range rest {
			if c == ':' {
				rest[j] = ' '
			}
		}
		vals = splitFields(vals, rest)
		if len(key) == 0 || len(vals) == 0 {
			continue
		}
		var err error
		switch {
		case lowerIs(key, "coordinate"):
			cur.y, err = parseFloat(vals[0])
		case lowerIs(key, "height"):
			cur.height, err = parseFloat(vals[0])
		case lowerIs(key, "sitewidth"):
			cur.siteW, err = parseFloat(vals[0])
		case lowerIs(key, "sitespacing"):
			cur.spacing, err = parseFloat(vals[0])
		case lowerIs(key, "subroworigin"):
			cur.origin, err = parseFloat(vals[0])
			if err == nil && len(vals) >= 3 && bytes.EqualFold(vals[1], []byte("numsites")) {
				cur.numSites, err = strconv.Atoi(string(vals[2]))
			}
		case lowerIs(key, "numsites"):
			cur.numSites, err = strconv.Atoi(string(vals[0]))
		}
		if err != nil {
			return nil, mclgerr.Invalidf("bookshelf: %s:%d: %v", label, lineNo, err)
		}
	}
	return rows, scanErr(sc, label, lineNo)
}

// designFromRows resets s's design to the row stack rows describe.
func (s *Store) designFromRows(name string, rows []sclRow) (*design.Design, error) {
	h := rows[0].height
	sw := rows[0].siteW
	origin := rows[0].origin
	minY := rows[0].y
	maxSites := 0
	ys := make([]float64, 0, len(rows))
	for i, r := range rows {
		if !isFinite(r.y) || !isFinite(r.height) || !isFinite(r.siteW) || !isFinite(r.origin) {
			return nil, mclgerr.Invalidf("bookshelf: row %d has non-finite geometry", i)
		}
		if math.Abs(r.height-h) > 1e-9 {
			return nil, mclgerr.Invalidf("bookshelf: non-uniform row heights (%g vs %g) unsupported", r.height, h)
		}
		if math.Abs(r.siteW-sw) > 1e-9 {
			return nil, mclgerr.Invalidf("bookshelf: non-uniform site widths unsupported")
		}
		// Sitespacing, when present, is the site pitch. The design model
		// quantizes by the site width, so a non-positive spacing is corrupt
		// and a spacing different from the width (gapped sites) is a layout
		// this pipeline cannot represent.
		if r.spacing != 0 {
			if !isFinite(r.spacing) || r.spacing <= 0 {
				return nil, mclgerr.Invalidf("bookshelf: row %d site spacing %g must be positive", i, r.spacing)
			}
			if math.Abs(r.spacing-r.siteW) > 1e-9 {
				return nil, mclgerr.Invalidf("bookshelf: row %d site spacing %g != site width %g unsupported",
					i, r.spacing, r.siteW)
			}
		}
		ys = append(ys, r.y)
		if r.y < minY {
			minY = r.y
		}
		if r.origin < origin {
			origin = r.origin
		}
		if r.numSites > maxSites {
			maxSites = r.numSites
		}
	}
	if maxSites <= 0 {
		return nil, mclgerr.Invalidf("bookshelf: degenerate row geometry (h=%g, sw=%g, sites=%d)", h, sw, maxSites)
	}
	// The model indexes rows arithmetically from the core origin, so the row
	// coordinates must tile the span exactly: duplicated or overlapping rows
	// would silently alias in the occupancy grid.
	sort.Float64s(ys)
	for i, y := range ys {
		want := minY + float64(i)*h
		if math.Abs(y-want) > 1e-6*h {
			return nil, mclgerr.Invalidf("bookshelf: row at y=%g overlaps or gaps the row stack (want y=%g)", y, want)
		}
	}
	if s.d == nil {
		s.d = new(design.Design)
	}
	if err := s.d.Reset(design.Config{
		Name: name, NumRows: len(rows), NumSites: maxSites,
		RowHeight: h, SiteW: sw, OriginX: origin, OriginY: minY,
	}); err != nil {
		return nil, err
	}
	return s.d, nil
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// readNodes adds the nodes of the file to s's design and indexes their IDs
// by name in s.nodes. The first NumNodes header that gives a count before
// the first node sizes the index and the cells; a missing or lying one
// leaves them to grow as nodes arrive, and a repeated one is skipped.
func (s *Store) readNodes(r io.Reader, label string, size int) error {
	d := s.d
	if s.nodes == nil {
		s.nodes = make(map[string]int)
	}
	clear(s.nodes)
	defer func() { s.sized = max(s.sized, len(s.nodes)) }()
	presized := false
	sc := s.scanner(r, maxLine)
	var f [][]byte
	lineNo := 1
	for ; sc.Scan(); lineNo++ {
		f = splitFields(f, sc.Bytes())
		if skipLine(f) || keyword(f[0], "NumTerminals") {
			continue
		}
		if keyword(f[0], "NumNodes") {
			if n := declared(f, "NumNodes", size, nodeBytes); n > 0 && !presized && len(s.nodes) == 0 {
				if n > s.sized { // more names than the index has held
					s.nodes, s.sized = make(map[string]int, n), n
				}
				d.GrowCells(n)
				presized = true
			}
			continue
		}
		if len(f) < 3 {
			return mclgerr.Invalidf("bookshelf: %s:%d: bad node line %q", label, lineNo, bytes.TrimSpace(sc.Bytes()))
		}
		if _, dup := s.nodes[string(f[0])]; dup {
			return mclgerr.Invalidf("bookshelf: %s:%d: duplicate node %q", label, lineNo, f[0])
		}
		w, err1 := parseFloat(f[1])
		h, err2 := parseFloat(f[2])
		if err1 != nil || err2 != nil {
			return mclgerr.Invalidf("bookshelf: %s:%d: bad node dimensions", label, lineNo)
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
			return fmt.Errorf("bookshelf: %s:%d: %w", label, lineNo, err)
		}
		s.nodes[name] = c.ID
	}
	return scanErr(sc, label, lineNo)
}

// readPl sets the global positions and fixed flags of s's design's nodes.
func (s *Store) readPl(r io.Reader, label string) error {
	d := s.d
	sc := s.scanner(r, maxLine)
	var f [][]byte
	lineNo := 1
	for ; sc.Scan(); lineNo++ {
		f = splitFields(f, sc.Bytes())
		if skipLine(f) || len(f) < 3 {
			continue
		}
		id, ok := s.nodes[string(f[0])]
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
			if string(g) == "/FIXED" || string(g) == "/FIXED_NI" {
				c.Fixed = true
			}
		}
	}
	return scanErr(sc, label, lineNo)
}

// readNets appends the nets of the file to s's design. All their pins share
// one array, s.pins, each net's slice capped at its own length
// (Design.OwnNetsIn's layout). The first NumNets and NumPins headers that
// give a count before the first net and pin size the net list and the pin
// array; missing or lying ones leave them to grow, and repeated ones are
// skipped.
func (s *Store) readNets(r io.Reader, label string, size int) error {
	d, idx := s.d, s.nodes
	sc := s.scanner(r, maxLine)
	first := len(d.Nets)
	pins := s.pins[:0]
	defer func() { s.pins = pins }()
	netsSized, pinsSized := false, false
	start := 0 // index in pins of the current net's first pin
	var f [][]byte
	lineNo := 1
	for ; sc.Scan(); lineNo++ {
		f = splitFields(f, sc.Bytes())
		if skipLine(f) {
			continue
		}
		if keyword(f[0], "NumNets") {
			if n := declared(f, "NumNets", size, netBytes); n > 0 && !netsSized && len(d.Nets) == first {
				d.Nets = slices.Grow(d.Nets, n)
				netsSized = true
			}
			continue
		}
		if keyword(f[0], "NumPins") {
			if n := declared(f, "NumPins", size, pinBytes); n > 0 && !pinsSized && len(pins) == 0 {
				pins = slices.Grow(pins, n)
				pinsSized = true
			}
			continue
		}
		if keyword(f[0], "NetDegree") {
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
		// "name I/O : dx dy" with offsets from the cell center.
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
		pins = append(pins, design.Pin{
			CellID: id,
			DX:     dx + c.W/2,
			DY:     dy + c.H/2,
		})
		// Growing pins may move it: the nets are re-cut from the final
		// array below.
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

// Write emits the design as Bookshelf files next to the given .aux path.
// Numbers are written as fmt's %g writes them: the shortest text that reads
// back as the same float64.
func Write(d *design.Design, auxPath string) error {
	base := strings.TrimSuffix(auxPath, ".aux")
	name := filepath.Base(base)
	if err := writeFile(auxPath, func(w io.Writer) {
		io.WriteString(w, "RowBasedPlacement : "+name+".nodes "+name+".nets "+name+".wts "+name+".pl "+name+".scl\n")
	}); err != nil {
		return err
	}
	for _, c := range []struct {
		ext   string
		write func(*design.Design, io.Writer)
	}{{".nodes", writeNodes}, {".pl", writePl}, {".scl", writeScl}, {".nets", writeNets}, {".wts", writeWts}} {
		if err := writeFile(base+c.ext, func(w io.Writer) { c.write(d, w) }); err != nil {
			return err
		}
	}
	return nil
}

// writeFile creates path and fills it through a buffered writer, whose
// first write error the flush returns.
func writeFile(path string, fill func(io.Writer)) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fill(w)
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// appendG appends v as fmt's %g formats a float64.
func appendG(b []byte, v float64) []byte { return strconv.AppendFloat(b, v, 'g', -1, 64) }

// appendCount appends "<key> : <n>\n", a header line.
func appendCount(b []byte, key string, n int) []byte {
	b = append(append(b, key...), " : "...)
	return append(strconv.AppendInt(b, int64(n), 10), '\n')
}

func writeNodes(d *design.Design, w io.Writer) {
	terminals := 0
	for _, c := range d.Cells {
		if c.Fixed {
			terminals++
		}
	}
	b := append([]byte(nil), "UCLA nodes 1.0\n"...)
	b = appendCount(b, "NumNodes", len(d.Cells))
	b = appendCount(b, "NumTerminals", terminals)
	w.Write(b)
	for _, c := range d.Cells {
		b = append(append(b[:0], "  "...), c.Name...)
		b = appendG(append(b, ' '), c.W)
		b = appendG(append(b, ' '), c.H)
		if c.Fixed {
			b = append(b, " terminal"...)
		}
		w.Write(append(b, '\n'))
	}
}

func writePl(d *design.Design, w io.Writer) {
	b := append([]byte(nil), "UCLA pl 1.0\n"...)
	w.Write(b)
	for _, c := range d.Cells {
		b = append(b[:0], c.Name...)
		b = appendG(append(b, ' '), c.GX)
		b = appendG(append(b, ' '), c.GY)
		b = append(b, " : N"...)
		if c.Fixed {
			b = append(b, " /FIXED"...)
		}
		w.Write(append(b, '\n'))
	}
}

func writeScl(d *design.Design, w io.Writer) {
	b := append([]byte(nil), "UCLA scl 1.0\n"...)
	b = appendCount(b, "NumRows", len(d.Rows))
	w.Write(b)
	for _, r := range d.Rows {
		b = append(b[:0], "CoreRow Horizontal\n  Coordinate : "...)
		b = appendG(b, r.Y)
		b = appendG(append(b, "\n  Height : "...), r.Height)
		b = appendG(append(b, "\n  Sitewidth : "...), r.SiteW)
		b = appendG(append(b, "\n  Sitespacing : "...), r.SiteW)
		b = append(b, "\n  Siteorient : 1\n  Sitesymmetry : 1\n  SubrowOrigin : "...)
		b = appendG(b, r.OriginX)
		b = strconv.AppendInt(append(b, "  NumSites : "...), int64(r.NumSites), 10)
		w.Write(append(b, "\nEnd\n"...))
	}
}

func writeNets(d *design.Design, w io.Writer) {
	pins := 0
	nets := 0
	for _, n := range d.Nets {
		hasFixedPin := false
		for _, p := range n.Pins {
			if p.CellID < 0 {
				hasFixedPin = true
			}
		}
		if hasFixedPin {
			continue // Bookshelf cannot express free-floating pins
		}
		nets++
		pins += len(n.Pins)
	}
	b := append([]byte(nil), "UCLA nets 1.0\n"...)
	b = appendCount(b, "NumNets", nets)
	b = appendCount(b, "NumPins", pins)
	w.Write(b)
	for _, n := range d.Nets {
		skip := false
		for _, p := range n.Pins {
			if p.CellID < 0 {
				skip = true
			}
		}
		if skip {
			continue
		}
		b = strconv.AppendInt(append(b[:0], "NetDegree : "...), int64(len(n.Pins)), 10)
		b = append(append(append(b, ' '), n.Name...), '\n')
		for _, p := range n.Pins {
			c := d.Cells[p.CellID]
			b = append(append(b, "  "...), c.Name...)
			b = appendG(append(b, " I : "...), p.DX-c.W/2)
			b = appendG(append(b, ' '), p.DY-c.H/2)
			b = append(b, '\n')
		}
		w.Write(b)
	}
}

// writeWts lists the nets whose weights are not the default.
func writeWts(d *design.Design, w io.Writer) {
	b := append([]byte(nil), "UCLA wts 1.0\n"...)
	w.Write(b)
	for i := range d.Nets {
		n := &d.Nets[i]
		if n.Weight != 0 && n.Weight != 1 {
			b = appendG(append(append(b[:0], n.Name...), ' '), n.Weight)
			w.Write(append(b, '\n'))
		}
	}
}
