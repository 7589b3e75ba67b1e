package serve

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"mclg/internal/recycle"
)

// bodies recycles the /v1/legalize body buffers.
var bodies recycle.Pool[[]byte]

// ReadRequest reads one /v1/legalize body from r and decodes it into req.
// The body is read to its end into a pooled buffer that grows only with the
// bytes received (a declared Content-Length never sizes it) and decoded by
// decodeRequest. The texts of its files object stay in the buffer, unescaped
// in place, and req holds the buffer while it reads them there: req.Release
// returns it to the pool. Every other string req keeps is a copy, and a body
// with no files object, like one that fails, goes back to the pool at once.
// A read that fails, such as a body past http.MaxBytesReader's limit, still
// yields req when the body's first JSON value was complete before the
// failure, as the streaming json.Decoder this replaces did; otherwise the
// read error is returned.
func ReadRequest(r io.Reader, req *Request) error {
	bp := bodies.Get()
	b, rerr := readAll(r, (*bp)[:0])
	*bp = b
	err := decodeRequest(b, req)
	if err != nil && rerr != nil {
		err = rerr
	}
	if err != nil || req.texts == nil {
		req.texts = nil
		bodies.Put(bp)
		return err
	}
	req.body = bp
	return nil
}

// Release returns the body buffer that ReadRequest left r holding to the
// pool, with the files texts it holds: r has no upload afterwards. Release
// does nothing when r holds no buffer.
func (r *Request) Release() {
	if r.body != nil {
		bodies.Put(r.body)
		r.body, r.texts = nil, nil
	}
}

// readAll appends r's bytes to b until EOF, growing b as append does.
func readAll(r io.Reader, b []byte) ([]byte, error) {
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// decodeRequest decodes the first JSON value of b into r in one pass. It
// accepts, rejects and fills r exactly as json.Decoder.Decode does with
// DisallowUnknownFields: keys match field names exactly or under Unicode
// case folding, a repeated key decodes again into the same field (merging
// into files and options), null clears files and options and leaves every
// other field alone, numbers must fit their field, strings are unescaped
// with invalid UTF-8 and unpaired surrogates replaced by U+FFFD, and the
// bytes after the value are ignored. The texts of the files object are left
// in b as views, in r.texts rather than r.Files; every other string r keeps
// is copied out of b once.
func decodeRequest(b []byte, r *Request) error {
	d := decoder{b: b}
	d.skipSpace()
	switch d.peek() {
	case '{':
		return decodeObject(&d, requestFields, r)
	case 'n':
		return d.literal("null") // a top-level null decodes into nothing
	}
	if d.i == len(b) {
		return io.EOF
	}
	return d.typeError("Request")
}

// field decodes the JSON value at the decoder into one field of a T.
type field[T any] struct {
	name string
	set  func(d *decoder, t *T) error
}

var requestFields = []field[Request]{
	{"bench", func(d *decoder, r *Request) error { return d.string(&r.Bench) }},
	{"scale", func(d *decoder, r *Request) error { return d.float(&r.Scale) }},
	{"files", func(d *decoder, r *Request) error { return d.files(&r.texts) }},
	{"method", func(d *decoder, r *Request) error { return d.string(&r.Method) }},
	{"resilient", func(d *decoder, r *Request) error { return d.bool(&r.Resilient) }},
	{"options", func(d *decoder, r *Request) error { return d.options(&r.Options) }},
	{"timeout_ms", func(d *decoder, r *Request) error { return d.int64(&r.TimeoutMS) }},
	{"placement", func(d *decoder, r *Request) error { return d.bool(&r.IncludePlacement) }},
	{"audit", func(d *decoder, r *Request) error { return d.bool(&r.Audit) }},
	{"windows", func(d *decoder, r *Request) error { return d.bool(&r.Windows) }},
	{"window_rows", func(d *decoder, r *Request) error { return d.int(&r.WindowRows) }},
	{"exact", func(d *decoder, r *Request) error { return d.int(&r.Exact) }},
	{"hedge", func(d *decoder, r *Request) error { return d.float(&r.Hedge) }},
	{"tenant", func(d *decoder, r *Request) error { return d.string(&r.Tenant) }},
	{"priority", func(d *decoder, r *Request) error { return d.string(&r.Priority) }},
}

var optionFields = []field[OptionsJSON]{
	{"lambda", func(d *decoder, o *OptionsJSON) error { return d.float(&o.Lambda) }},
	{"beta", func(d *decoder, o *OptionsJSON) error { return d.float(&o.Beta) }},
	{"theta", func(d *decoder, o *OptionsJSON) error { return d.float(&o.Theta) }},
	{"eps", func(d *decoder, o *OptionsJSON) error { return d.float(&o.Eps) }},
	{"max_iter", func(d *decoder, o *OptionsJSON) error { return d.int(&o.MaxIter) }},
	{"autotheta", func(d *decoder, o *OptionsJSON) error { return d.bool(&o.AutoTheta) }},
	{"boundright", func(d *decoder, o *OptionsJSON) error { return d.bool(&o.BoundRight) }},
	{"workers", func(d *decoder, o *OptionsJSON) error { return d.int(&o.Workers) }},
}

// decodeObject decodes the object at d into t. A key matches a field by
// exact name first, then under case folding, as encoding/json matches them.
func decodeObject[T any](d *decoder, fields []field[T], t *T) error {
	return d.object(func(key []byte) error {
		for _, f := range fields {
			if string(key) == f.name {
				return f.set(d, t)
			}
		}
		for _, f := range fields {
			if bytes.EqualFold(key, []byte(f.name)) {
				return f.set(d, t)
			}
		}
		return fmt.Errorf("json: unknown field %q", key)
	})
}

// decoder is a cursor over one JSON body.
type decoder struct {
	b []byte
	i int
}

// peek returns the byte at the cursor, or 0 at the end of the body.
func (d *decoder) peek() byte {
	if d.i < len(d.b) {
		return d.b[d.i]
	}
	return 0
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func (d *decoder) skipSpace() {
	for d.i < len(d.b) && isSpace(d.b[d.i]) {
		d.i++
	}
}

// syntaxError reports the byte at the cursor as out of place, or a body
// that ended inside its value.
func (d *decoder) syntaxError(context string) error {
	if d.i >= len(d.b) {
		return io.ErrUnexpectedEOF
	}
	return fmt.Errorf("invalid character %s %s at offset %d", strconv.QuoteRune(rune(d.b[d.i])), context, d.i)
}

// typeError reports that the value at the cursor cannot fill a field of
// type typ, or that it is no JSON value at all.
func (d *decoder) typeError(typ string) error {
	kind := ""
	switch c := d.peek(); {
	case c == '{':
		kind = "object"
	case c == '[':
		kind = "array"
	case c == '"':
		kind = "string"
	case c == 't' || c == 'f':
		kind = "bool"
	case c == '-' || '0' <= c && c <= '9':
		kind = "number"
	default:
		return d.syntaxError("looking for beginning of value")
	}
	return fmt.Errorf("json: cannot unmarshal %s into Go value of type %s at offset %d", kind, typ, d.i)
}

// object walks the object at the cursor, calling value with each key (see
// text); value must consume the key's value.
func (d *decoder) object(value func(key []byte) error) error {
	d.i++ // '{'
	d.skipSpace()
	if d.peek() == '}' {
		d.i++
		return nil
	}
	for {
		if d.peek() != '"' {
			return d.syntaxError("looking for beginning of object key string")
		}
		key, err := d.text()
		if err != nil {
			return err
		}
		d.skipSpace()
		if d.peek() != ':' {
			return d.syntaxError("after object key")
		}
		d.i++
		d.skipSpace()
		if err := value(key); err != nil {
			return err
		}
		d.skipSpace()
		switch d.peek() {
		case ',':
			d.i++
			d.skipSpace()
		case '}':
			d.i++
			return nil
		default:
			return d.syntaxError("after object key:value pair")
		}
	}
}

// literal consumes the literal lit (null, true or false) at the cursor.
func (d *decoder) literal(lit string) error {
	for k := 0; k < len(lit); k++ {
		if d.peek() != lit[k] {
			return d.syntaxError("in literal " + lit)
		}
		d.i++
	}
	return nil
}

// null consumes a null at the cursor, a no-op for the string, number and
// bool fields; any other value cannot fill a field of type typ.
func (d *decoder) null(typ string) error {
	if d.peek() == 'n' {
		return d.literal("null")
	}
	return d.typeError(typ)
}

func (d *decoder) string(p *string) error {
	if d.peek() != '"' {
		return d.null("string")
	}
	s, err := d.text()
	if err == nil {
		*p = string(s)
	}
	return err
}

func (d *decoder) bool(p *bool) error {
	switch d.peek() {
	case 't':
		*p = true
		return d.literal("true")
	case 'f':
		*p = false
		return d.literal("false")
	}
	return d.null("bool")
}

func (d *decoder) float(p *float64) error {
	tok, err := d.number("float64")
	if tok == nil || err != nil {
		return err
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return fmt.Errorf("json: cannot unmarshal number %s into Go value of type float64", tok)
	}
	*p = v
	return nil
}

func (d *decoder) int64(p *int64) error {
	tok, err := d.number("int64")
	if tok == nil || err != nil {
		return err
	}
	v, err := strconv.ParseInt(string(tok), 10, 64)
	if err != nil {
		return fmt.Errorf("json: cannot unmarshal number %s into Go value of type int64", tok)
	}
	*p = v
	return nil
}

func (d *decoder) int(p *int) error {
	v := int64(*p) // a null leaves it
	if err := d.int64(&v); err != nil {
		return err
	}
	if int64(int(v)) != v {
		return fmt.Errorf("json: cannot unmarshal number %d into Go value of type int", v)
	}
	*p = int(v)
	return nil
}

// files decodes the files object into views of the body (see text),
// merging into a map a repeated key left; a null component decodes as an
// empty text, a null object clears the map.
func (d *decoder) files(p *map[string][]byte) error {
	switch d.peek() {
	case '{':
	case 'n':
		*p = nil
		return d.literal("null")
	default:
		return d.typeError("map[string]string")
	}
	if *p == nil {
		*p = map[string][]byte{}
	}
	m := *p
	return d.object(func(key []byte) error {
		var text []byte
		var err error
		if d.peek() == '"' {
			text, err = d.text()
		} else {
			err = d.null("string")
		}
		if err == nil {
			m[string(key)] = text
		}
		return err
	})
}

// options decodes the options object, into the OptionsJSON a repeated key
// left; a null clears it.
func (d *decoder) options(p **OptionsJSON) error {
	switch d.peek() {
	case '{':
	case 'n':
		*p = nil
		return d.literal("null")
	default:
		return d.typeError("serve.OptionsJSON")
	}
	if *p == nil {
		*p = new(OptionsJSON)
	}
	return decodeObject(d, optionFields, *p)
}

// number scans the number at the cursor and returns its text, or nil after
// consuming a null; typ names the field's type for any other value.
func (d *decoder) number(typ string) ([]byte, error) {
	b, start := d.b, d.i
	if c := d.peek(); c != '-' && (c < '0' || c > '9') {
		return nil, d.null(typ)
	}
	if d.peek() == '-' {
		d.i++
	}
	switch c := d.peek(); {
	case c == '0':
		d.i++
	case '1' <= c && c <= '9':
		d.digits()
	default:
		return nil, d.syntaxError("in numeric literal")
	}
	if d.peek() == '.' {
		d.i++
		if !d.digits() {
			return nil, d.syntaxError("after decimal point in numeric literal")
		}
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.i++
		if c := d.peek(); c == '+' || c == '-' {
			d.i++
		}
		if !d.digits() {
			return nil, d.syntaxError("in exponent of numeric literal")
		}
	}
	return b[start:d.i], nil
}

// digits consumes a run of decimal digits and reports whether it was
// non-empty.
func (d *decoder) digits() bool {
	start := d.i
	for c := d.peek(); '0' <= c && c <= '9'; c = d.peek() {
		d.i++
	}
	return d.i > start
}

// text decodes the string at the cursor and returns its contents as a view
// of the body, capped at its length. A string with escapes is unescaped in
// place, over the start of its raw contents: no escape is shorter than the
// UTF-8 it stands for. A string with invalid UTF-8 is unescaped into a new
// array instead, because U+FFFD is longer than the byte it replaces.
func (d *decoder) text() ([]byte, error) {
	start, end, n, escaped, valid, err := d.scanString()
	if err != nil {
		return nil, err
	}
	s := d.b[start:end:end]
	switch {
	case !valid:
		return unescape(make([]byte, 0, n), s, false), nil
	case escaped:
		s = unescape(s[:0], s, true)
	}
	return s[:len(s):len(s)], nil
}

// safe marks the bytes a string's contents keep as they are: printable
// ASCII other than the quote and the backslash.
var safe = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// special reports whether any of the eight bytes in x is unsafe: a quote,
// a backslash, a control byte or non-ASCII. Each term flags the lowest
// byte that matches exactly, so a word of safe bytes never reports true.
func special(x uint64) bool {
	const lo, hi = 0x0101010101010101, 0x8080808080808080
	quote, backslash := x^(lo*'"'), x^(lo*'\\')
	return (x|(x-lo*' ')&^x|(quote-lo)&^quote|(backslash-lo)&^backslash)&hi != 0
}

// scanString validates the string whose opening quote is at the cursor and
// moves past its closing quote. It returns the bounds of the contents, the
// byte length n of their unescaped form, whether they hold escapes, and
// whether they are valid UTF-8.
func (d *decoder) scanString() (start, end, n int, escaped, valid bool, err error) {
	b := d.b
	start = d.i + 1
	valid = true
	i := start
	for {
		j := i
		for j+8 <= len(b) && !special(binary.LittleEndian.Uint64(b[j:])) {
			j += 8
		}
		for j < len(b) && safe[b[j]] {
			j++
		}
		n += j - i
		i = j
		if i == len(b) {
			d.i = i
			return 0, 0, 0, false, false, io.ErrUnexpectedEOF
		}
		switch c := b[i]; {
		case c == '"':
			d.i = i + 1
			return start, i, n, escaped, valid, nil
		case c == '\\':
			r, w := escape(b[i:])
			if w == 0 {
				d.i = i
				return 0, 0, 0, false, false, d.syntaxError("in string escape code")
			}
			escaped = true
			n += utf8.RuneLen(r)
			i += w
		case c < ' ':
			d.i = i
			return 0, 0, 0, false, false, d.syntaxError("in string literal")
		default:
			r, w := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && w == 1 {
				valid = false
				n += utf8.RuneLen(utf8.RuneError)
			} else {
				n += w
			}
			i += w
		}
	}
}

// escape decodes the escape sequence that starts s as encoding/json does:
// a \u high surrogate pairs with an immediately following \u low
// surrogate, and any other surrogate becomes U+FFFD. It returns the rune
// and the bytes the sequence spans, or w == 0 if it is malformed.
func escape(s []byte) (r rune, w int) {
	if len(s) < 2 {
		return 0, 0
	}
	switch s[1] {
	case '"', '\\', '/':
		return rune(s[1]), 2
	case 'b':
		return '\b', 2
	case 'f':
		return '\f', 2
	case 'n':
		return '\n', 2
	case 'r':
		return '\r', 2
	case 't':
		return '\t', 2
	case 'u':
		r = hex4(s)
		if r < 0 {
			return 0, 0
		}
		if !utf16.IsSurrogate(r) {
			return r, 6
		}
		if len(s) >= 12 {
			if pair := utf16.DecodeRune(r, hex4(s[6:])); pair != unicode.ReplacementChar {
				return pair, 12
			}
		}
		return unicode.ReplacementChar, 6
	}
	return 0, 0
}

// hex4 returns the code unit of the \uXXXX escape that starts s, or -1.
func hex4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// unescape appends the unescaped form of the scanned string contents s to
// dst. The runs between escapes are appended whole when s is valid UTF-8,
// and one rune at a time otherwise, so that each invalid byte becomes
// U+FFFD. dst may be s[:0]: each rune is appended only after the bytes it
// stands for were read, and never takes more of them.
func unescape(dst, s []byte, valid bool) []byte {
	for len(s) > 0 {
		i := bytes.IndexByte(s, '\\')
		if i < 0 {
			i = len(s)
		}
		if valid {
			dst = append(dst, s[:i]...)
		} else {
			for run := s[:i]; len(run) > 0; {
				r, w := utf8.DecodeRune(run)
				dst = utf8.AppendRune(dst, r)
				run = run[w:]
			}
		}
		if s = s[i:]; len(s) > 0 {
			r, w := escape(s)
			dst = utf8.AppendRune(dst, r)
			s = s[w:]
		}
	}
	return dst
}
