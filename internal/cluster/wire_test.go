package cluster

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"mclg/internal/core"
	"mclg/internal/design"
	"mclg/internal/gen"
	"mclg/internal/lru"
	"mclg/internal/mclgerr"
	"mclg/internal/window"
)

func clusterTestDesign(t testing.TB, bench string, scale float64) *design.Design {
	t.Helper()
	e, err := gen.FindEntry(bench)
	if err != nil {
		t.Fatalf("FindEntry(%s): %v", bench, err)
	}
	d, err := gen.Generate(gen.SuiteSpec(e, scale))
	if err != nil {
		t.Fatalf("Generate(%s@%g): %v", bench, scale, err)
	}
	return d
}

// TestWireDesignRoundTripBitExact sends a real window sub-design through the
// full wire path — encode, JSON marshal, unmarshal, decode — and requires
// every coordinate to survive bit-for-bit. This is the property the
// cross-machine determinism contract rests on.
func TestWireDesignRoundTripBitExact(t *testing.T) {
	d := clusterTestDesign(t, "fft_2", 0.004)
	p, err := window.Partition(d, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for wi := range p.Bands {
		sub, _ := window.BuildSub(d, p, &p.Bands[wi])
		raw, err := json.Marshal(EncodeDesign(sub))
		if err != nil {
			t.Fatal(err)
		}
		var wd WireDesign
		if err := json.Unmarshal(raw, &wd); err != nil {
			t.Fatal(err)
		}
		got, err := wd.Decode()
		if err != nil {
			t.Fatalf("window %d: Decode: %v", wi, err)
		}
		if got.Name != sub.Name || got.Core != sub.Core ||
			got.RowHeight != sub.RowHeight || got.SiteW != sub.SiteW {
			t.Fatalf("window %d: header mismatch", wi)
		}
		if len(got.Rows) != len(sub.Rows) || len(got.Cells) != len(sub.Cells) {
			t.Fatalf("window %d: size mismatch", wi)
		}
		for i := range sub.Rows {
			if got.Rows[i] != sub.Rows[i] {
				t.Fatalf("window %d row %d: %+v != %+v", wi, i, got.Rows[i], sub.Rows[i])
			}
		}
		for i := range sub.Cells {
			if *got.Cells[i] != *sub.Cells[i] {
				t.Fatalf("window %d cell %d: %+v != %+v", wi, i, got.Cells[i], sub.Cells[i])
			}
		}
	}
}

func TestWireDesignDecodeRejectsNonsense(t *testing.T) {
	good := EncodeDesign(clusterTestDesign(t, "fft_2", 0.004))
	cases := map[string]func(wd *WireDesign){
		"zero row height": func(wd *WireDesign) { wd.RowHeight = 0 },
		"zero site width": func(wd *WireDesign) { wd.SiteW = 0 },
		"no rows":         func(wd *WireDesign) { wd.Rows = nil },
		"bad row rail":    func(wd *WireDesign) { wd.Rows[0].Rail = 7 },
		"bad cell rail":   func(wd *WireDesign) { wd.Cells[0].Rail = -1 },
	}
	for name, mutate := range cases {
		wd := *good
		wd.Rows = append([]WireRow(nil), good.Rows...)
		wd.Cells = append([]WireCell(nil), good.Cells...)
		mutate(&wd)
		if _, err := wd.Decode(); !errors.Is(err, mclgerr.ErrInvalidInput) {
			t.Errorf("%s: Decode = %v, want invalid-input", name, err)
		}
	}
}

func TestWireOptionsRoundTrip(t *testing.T) {
	in := core.New(core.Options{Lambda: 250, Eps: 1e-6, BoundRight: true, Workers: 3}).Opts
	raw, err := json.Marshal(EncodeOptions(in))
	if err != nil {
		t.Fatal(err)
	}
	var wo WireOptions
	if err := json.Unmarshal(raw, &wo); err != nil {
		t.Fatal(err)
	}
	// OnIter never crosses the wire; everything else must.
	if got := wo.Decode(); !reflect.DeepEqual(got, in) {
		t.Fatalf("options: %+v != %+v", got, in)
	}
}

// TestWireDecodesPriorDefaultEncoding decodes the default options exactly
// as coordinators that still carried the cascade knobs sent them, under the
// worker's DisallowUnknownFields: the message must decode to the defaults,
// so such coordinators and current workers interoperate.
func TestWireDecodesPriorDefaultEncoding(t *testing.T) {
	const raw = `{"lambda":1000,"beta":0.5,"theta":0.5,"gamma":1,"eps":0.0001,"max_iter":20000,"residual_tol":0}`
	dec := json.NewDecoder(strings.NewReader(raw))
	dec.DisallowUnknownFields()
	var wo WireOptions
	if err := dec.Decode(&wo); err != nil {
		t.Fatal(err)
	}
	want := core.New(core.Options{}).Opts
	if got := wo.Decode(); !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %+v, want the defaults %+v", got, want)
	}
	enc, err := json.Marshal(EncodeOptions(want))
	if err != nil {
		t.Fatal(err)
	}
	if string(enc) != raw {
		t.Fatalf("default options encode as %s, want %s", enc, raw)
	}
}

// wireNotSent lists the solver options the shard wire deliberately drops,
// each with its reason. Every other field of core.Options must survive the
// wire, so a window solved on a worker runs exactly the configuration the
// coordinator's local fallback would.
var wireNotSent = map[string]string{
	"OnIter":     "process-local: a progress callback",
	"SkipTetris": "no windowed entry point can set it",
	"ColdStart":  "no windowed entry point can set it",
	"MMSIMOnly":  "no windowed entry point can set it",
}

// TestWireOptionsCarryEveryField sets each field of core.Options in turn,
// sends it through EncodeOptions → JSON → Decode, and requires the same
// value back — or, for a field on wireNotSent, the zero value. A new option
// therefore fails here until it is either put on the wire or listed with
// its reason.
func TestWireOptionsCarryEveryField(t *testing.T) {
	roundTrip := func(in core.Options) core.Options {
		raw, err := json.Marshal(EncodeOptions(in))
		if err != nil {
			t.Fatal(err)
		}
		var wo WireOptions
		if err := json.Unmarshal(raw, &wo); err != nil {
			t.Fatal(err)
		}
		return wo.Decode()
	}
	seen := map[string]bool{}
	rt := reflect.TypeOf(core.Options{})
	for i := 0; i < rt.NumField(); i++ {
		ft := rt.Field(i)
		name := ft.Name
		seen[name] = true
		var in core.Options
		f := reflect.ValueOf(&in).Elem().Field(i)
		switch ft.Type.Kind() {
		case reflect.Float64:
			f.SetFloat(0.375)
		case reflect.Int:
			f.SetInt(7)
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Func:
			f.Set(reflect.MakeFunc(ft.Type, func([]reflect.Value) []reflect.Value { return nil }))
		default:
			t.Fatalf("%s: no test value for kind %s", name, ft.Type.Kind())
		}
		got := reflect.ValueOf(roundTrip(in)).Field(i)
		if _, dropped := wireNotSent[name]; dropped {
			if !got.IsZero() {
				t.Errorf("%s crosses the wire but is listed in wireNotSent", name)
			}
			continue
		}
		if !reflect.DeepEqual(got.Interface(), f.Interface()) {
			t.Errorf("%s = %v did not survive the wire: got %v", name, f.Interface(), got.Interface())
		}
	}
	for name := range wireNotSent {
		if !seen[name] {
			t.Errorf("wireNotSent lists %s, which is not a field", name)
		}
	}
}

func TestWindowCacheLRU(t *testing.T) {
	c := lru.New[string, []window.CellPos](2)
	put := func(k string, id int) { c.Put(k, []window.CellPos{{ID: id}}) }
	put("a", 1)
	put("b", 2)
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a evicted prematurely")
	}
	put("c", 3) // b is now LRU and must fall out
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived past capacity")
	}
	if got, ok := c.Get("a"); !ok || got[0].ID != 1 {
		t.Fatal("a lost or corrupted")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	if lru.New[string, []window.CellPos](-1).Len() != 0 {
		t.Fatal("disabled cache must hold nothing")
	}
	disabled := lru.New[string, []window.CellPos](-1)
	disabled.Put("x", nil)
	if _, ok := disabled.Get("x"); ok {
		t.Fatal("disabled cache must not store")
	}
}
