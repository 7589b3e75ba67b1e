package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
	"unicode/utf8"

	"mclg/internal/gen"
)

// decodeRequestStdlib is how /v1/legalize decoded its body before
// decodeRequest: a streaming json.Decoder that refuses unknown fields and
// reads the body's first JSON value. decodeRequest must match it.
func decodeRequestStdlib(b []byte, r *Request) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	return dec.Decode(r)
}

// asDecoded returns r with the files texts that decodeRequest left as views
// of the body copied into Files, where the stdlib decode puts them.
func asDecoded(r Request) Request {
	if r.texts != nil {
		r.Files = make(map[string]string, len(r.texts))
		for k, text := range r.texts {
			r.Files[k] = string(text)
		}
	}
	r.texts, r.body = nil, nil
	return r
}

// within reports whether view lies inside buf's array.
func within(view, buf []byte) bool {
	if len(view) == 0 {
		return true
	}
	p, lo := reflect.ValueOf(view).Pointer(), reflect.ValueOf(buf).Pointer()
	return p >= lo && p+uintptr(len(view)) <= lo+uintptr(len(buf))
}

// checkDecode decodes body with decodeRequest and the stdlib reference and
// fails unless both refuse it or both fill equal Requests, every files text
// equal byte for byte, and unless every field but those texts, which are
// views of the buffer, still holds after the buffer is overwritten.
func checkDecode(t *testing.T, body []byte) {
	t.Helper()
	var want, got Request
	werr := decodeRequestStdlib(body, &want)
	buf := bytes.Clone(body)
	gerr := decodeRequest(buf, &got)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("decodeRequest error %v, stdlib error %v, body %q", gerr, werr, body)
	}
	if werr != nil {
		return
	}
	if got.Files != nil {
		t.Fatalf("decodeRequest filled Files %v; its texts belong in views", got.Files)
	}
	if !reflect.DeepEqual(asDecoded(got), want) {
		t.Fatalf("decodeRequest = %+v, stdlib = %+v, body %q", asDecoded(got), want, body)
	}
	for k, text := range got.texts {
		if !within(text, buf) && !bytes.ContainsRune(text, utf8.RuneError) {
			t.Fatalf("files text %q was copied out of the body, though it held valid UTF-8", k)
		}
	}
	rest, wantRest := got, want
	rest.texts, wantRest.Files = nil, nil
	for i := range buf {
		buf[i] ^= 0xff
	}
	if !reflect.DeepEqual(rest, wantRest) {
		t.Fatalf("decoded Request changed with its buffer: %+v, want %+v, body %q", rest, wantRest, body)
	}
}

// decodeEdgeCases are bodies where the stdlib's rules are easy to miss.
var decodeEdgeCases = []string{
	``,
	" \t\r\n",
	`null`,
	`null `,
	"null\n{",
	`nullx`,
	`nul`,
	`[]`,
	`""`,
	`1`,
	`true`,
	`{}`,
	` {} `,
	`{"bench":"fft_2"}`,
	`{"bench":"fft_2"} trailing bytes`,
	`{"bench":"fft_2"}{"bench":"other"}`,
	`{"bench":"fft_2"`,
	`{"bench":"fft_2",}`,
	`{"bench" "fft_2"}`,
	`{,}`,
	`{"FILES":{"nodes":"a"}}`,
	`{"Bench":"fft_2","PLACEMENT":true}`,
	"{\"bench\":\"fft_2\",\"ſcale\":0.5}",
	"{\"options\":{\"worKers\":2}}",
	"{\"options\":{\"WORKERS\":2}}",
	`{"bench":"fft_2"}`,
	`{"IncludePlacement":true}`,
	`{"sums":1}`,
	`{"files":{"nodes":"a"},"files":{"pl":"b"}}`,
	`{"files":{"nodes":"a"},"files":null}`,
	`{"files":null,"files":{"scl":"c"}}`,
	`{"files":{"nodes":"a","nodes":"b"}}`,
	`{"files":{"nodes":null}}`,
	`{"files":{}}`,
	`{"files":{"nodes":1}}`,
	`{"files":[]}`,
	`{"files":"x"}`,
	`{"options":{"lambda":1},"options":{"beta":1.5}}`,
	`{"options":{"lambda":1},"options":null}`,
	`{"options":null,"options":{"eps":1e-6}}`,
	`{"options":{}}`,
	`{"options":1}`,
	`{"options":{"autotune":true}}`,
	`{"bench":"a","bench":null}`,
	`{"scale":0.5,"scale":null}`,
	`{"resilient":true,"resilient":null}`,
	`{"timeout_ms":7,"timeout_ms":null}`,
	`{"window_rows":5,"window_rows":null}`,
	`{"options":{"workers":3,"workers":null}}`,
	`{"scale":1e400}`,
	`{"scale":-1e400}`,
	`{"scale":1e-400}`,
	`{"scale":-0}`,
	`{"scale":01}`,
	`{"scale":1.}`,
	`{"scale":.5}`,
	`{"scale":1e}`,
	`{"scale":1E+2}`,
	`{"scale":-}`,
	`{"scale":+1}`,
	`{"scale":"0.5"}`,
	`{"timeout_ms":-0}`,
	`{"timeout_ms":1.0}`,
	`{"timeout_ms":1e3}`,
	`{"timeout_ms":9223372036854775807}`,
	`{"timeout_ms":9223372036854775808}`,
	`{"timeout_ms":-9223372036854775809}`,
	`{"window_rows":1.0}`,
	`{"window_rows":9223372036854775808}`,
	`{"exact":-0}`,
	`{"options":{"max_iter":9223372036854775808}}`,
	`{"resilient":1}`,
	`{"resilient":tru}`,
	`{"resilient":truex}`,
	`{"audit":false}`,
	`{"tenant":"\ud800"}`,
	`{"tenant":"\udc00\ud800"}`,
	`{"tenant":"\ud800A"}`,
	`{"tenant":"😀"}`,
	`{"tenant":"\ud83d\ude0"}`,
	`{"tenant":"éé\"\\\/\b\f\n\r\t"}`,
	`{"tenant":"\x"}`,
	`{"tenant":"\'"}`,
	`{"tenant":"\u12"}`,
	"{\"tenant\":\"a\xffb\"}",
	"{\"tenant\":\"\xed\xa0\x80\"}",
	"{\"tenant\":\"\xe2\x82\"}",
	"{\"tenant\":\"caf\xc3\xa9\"}",
	"{\"tenant\":\"a\x01b\"}",
	"{\"tenant\":\"a\tb\"}",
	"{\"tenant\":\"a\x7fb\"}",
	"{\"files\":{\"n\xffodes\":\"x\"}}",
	"{\"\xff\":1}",
	`{"tenant":"unterminated`,
	`{"tenant":"x"` + "\x00",
	"\xef\xbb\xbf{}",
	`{"bench":[[[[]]]]}`,
}

// FuzzDecodeRequest holds decodeRequest to the stdlib decode it replaced:
// both refuse a body, or both fill equal Requests, whose strings other than
// the files texts are copied out of the buffer.
func FuzzDecodeRequest(f *testing.F) {
	e, err := gen.FindEntry("fft_2")
	if err != nil {
		f.Fatal(err)
	}
	d, err := gen.Generate(gen.SuiteSpec(e, 0.004))
	if err != nil {
		f.Fatal(err)
	}
	upload, err := json.Marshal(&Request{Files: bookshelfFiles(f, d), IncludePlacement: true})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(upload)
	for _, tc := range invalidRequests {
		f.Add([]byte(tc.body))
	}
	for _, body := range decodeEdgeCases {
		f.Add([]byte(body))
	}
	f.Fuzz(checkDecode)
}

// TestDecodeRequestCoversEveryField sets each exported field of Request and
// OptionsJSON in turn and checks decodeRequest brings it back, so a field
// added to either type cannot be dropped or refused on the wire.
func TestDecodeRequestCoversEveryField(t *testing.T) {
	nonZero := func(t *testing.T, v reflect.Value) {
		switch v.Kind() {
		case reflect.String:
			v.SetString("x\n\"é")
		case reflect.Float64:
			v.SetFloat(0.25)
		case reflect.Int, reflect.Int64:
			v.SetInt(7)
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Map:
			v.Set(reflect.ValueOf(map[string]string{"nodes": "a 1 2\n"}))
		case reflect.Pointer:
			v.Set(reflect.New(v.Type().Elem()))
		default:
			t.Fatalf("no test value for a field of kind %s", v.Kind())
		}
	}
	check := func(t *testing.T, want *Request) {
		body, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		var got Request
		if err := decodeRequest(body, &got); err != nil {
			t.Fatalf("decodeRequest(%s): %v", body, err)
		}
		if got := asDecoded(got); !reflect.DeepEqual(&got, want) {
			t.Fatalf("decodeRequest(%s) = %+v, want %+v", body, got, *want)
		}
	}
	rt := reflect.TypeOf(Request{})
	for i := 0; i < rt.NumField(); i++ {
		if f := rt.Field(i); f.IsExported() {
			t.Run(f.Name, func(t *testing.T) {
				var want Request
				nonZero(t, reflect.ValueOf(&want).Elem().Field(i))
				check(t, &want)
			})
		}
	}
	ot := reflect.TypeOf(OptionsJSON{})
	for i := 0; i < ot.NumField(); i++ {
		if f := ot.Field(i); f.IsExported() {
			t.Run("Options."+f.Name, func(t *testing.T) {
				want := Request{Options: &OptionsJSON{}}
				nonZero(t, reflect.ValueOf(want.Options).Elem().Field(i))
				check(t, &want)
			})
		}
	}
}

// TestBodyOverLimitRefused posts a request one byte over MaxBodyBytes and
// the same request cut to fit: only the first is refused, and as the
// client's fault.
func TestBodyOverLimitRefused(t *testing.T) {
	const limit = 1 << 10
	_, ts := newTestServer(t, Config{MaxBodyBytes: limit})
	body := func(size int) string {
		head, tail := `{"bench":"fft_2","scale":0.004,"tenant":"`, `"}`
		return head + strings.Repeat("t", size-len(head)-len(tail)) + tail
	}
	for _, tc := range []struct {
		size   int
		status int
	}{{limit + 1, http.StatusBadRequest}, {limit, http.StatusOK}} {
		resp, err := http.Post(ts.URL+"/v1/legalize", "application/json", strings.NewReader(body(tc.size)))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Fatalf("%d-byte body: HTTP %d, want %d: %s", tc.size, resp.StatusCode, tc.status, raw)
		}
		if tc.status != http.StatusBadRequest {
			continue
		}
		var eb errorBody
		if err := json.Unmarshal(raw, &eb); err != nil || eb.Class != "invalid_input" || !strings.Contains(eb.Error, "too large") {
			t.Errorf("%d-byte body: refusal %s, want class invalid_input naming the size limit", tc.size, raw)
		}
	}
}

// TestDeclaredLengthDoesNotPresize calls the handler with a body that
// declares 60 MiB and carries 20 bytes. The body buffer grows with the bytes
// received, so the refusal costs far less than the declared length.
func TestDeclaredLengthDoesNotPresize(t *testing.T) {
	s := New(Config{})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	h := s.Handler()
	const body = `{"bench":"no_such1"}`
	if len(body) != 20 {
		t.Fatalf("body is %d bytes, want 20", len(body))
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/legalize", strings.NewReader(body))
	req.ContentLength = 60 << 20
	req.Header.Set("Content-Length", strconv.Itoa(60<<20))
	rec := httptest.NewRecorder()

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	h.ServeHTTP(rec, req)
	runtime.ReadMemStats(&m1)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("HTTP %d, want 400: %s", rec.Code, rec.Body)
	}
	if alloc := m1.TotalAlloc - m0.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("refusing a 20-byte body allocated %d bytes, want < 1 MiB", alloc)
	}
}

// TestSpecialMatchesSafe checks the eight-byte string scan against the
// byte table: special must report a word exactly when one of its bytes is
// not safe.
func TestSpecialMatchesSafe(t *testing.T) {
	word := func(b []byte) uint64 { return binary.LittleEndian.Uint64(b) }
	for pos := 0; pos < 8; pos++ {
		for c := 0; c < 256; c++ {
			b := []byte("aaaaaaaa")
			b[pos] = byte(c)
			if got := special(word(b)); got != !safe[c] {
				t.Fatalf("special(%q) = %v, want %v", b, got, !safe[c])
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1<<16; i++ {
		b := make([]byte, 8)
		for k := range b {
			b[k] = byte(0x20 + rng.Intn(0x60)) // printable ASCII and DEL
			if rng.Intn(16) == 0 {
				b[k] = byte(rng.Intn(256))
			}
		}
		want := false
		for _, c := range b {
			want = want || !safe[c]
		}
		if got := special(word(b)); got != want {
			t.Fatalf("special(%q) = %v, want %v", b, got, want)
		}
	}
}

// TestReadRequestConcurrent has four goroutines read distinct bodies through
// the shared body slot and pool at once, each releasing its buffer once it
// has read its upload: each must get its own upload back.
func TestReadRequestConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		want := Request{Tenant: strings.Repeat(strconv.Itoa(g), 100+g), Files: map[string]string{
			"nodes": strings.Repeat("n\n", 1000*(g+1)), "pl": strconv.Itoa(g),
		}}
		body, err := json.Marshal(&want)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var got Request
				if err := ReadRequest(bytes.NewReader(body), &got); err != nil {
					t.Error(err)
					return
				}
				same := reflect.DeepEqual(asDecoded(got), want)
				got.Release()
				if !same {
					t.Errorf("goroutine decoded another upload: tenant %.8q…", got.Tenant)
					return
				}
			}
		}()
	}
	wg.Wait()
}
