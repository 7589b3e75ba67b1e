package cluster

import (
	"encoding/json"
	"errors"
	"reflect"
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
	in := core.ResilientOptions{
		Base:       core.New(core.Options{Lambda: 250, Eps: 1e-6, BoundRight: true, Workers: 3}).Opts,
		MaxRetunes: 2, DisablePGS: true, PGSMaxIter: 77,
	}
	raw, err := json.Marshal(EncodeOptions(in))
	if err != nil {
		t.Fatal(err)
	}
	var wo WireOptions
	if err := json.Unmarshal(raw, &wo); err != nil {
		t.Fatal(err)
	}
	got := wo.Decode()
	// Warm/S0/OnIter never cross the wire; everything else must.
	if !reflect.DeepEqual(got.Base, in.Base) {
		t.Fatalf("base options: %+v != %+v", got.Base, in.Base)
	}
	if got.MaxRetunes != in.MaxRetunes || got.DisablePGS != in.DisablePGS ||
		got.DisableGreedy != in.DisableGreedy || got.PGSMaxIter != in.PGSMaxIter {
		t.Fatalf("cascade knobs: %+v != %+v", got, in)
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
