package design

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestOccupancyPlaceRemoveInverse: any sequence of successful Places
// followed by Removes in any order returns the grid to empty.
func TestOccupancyPlaceRemoveInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(241))
	for trial := 0; trial < 30; trial++ {
		d := NewDesign(Config{NumRows: 6, NumSites: 40, RowHeight: 10, SiteW: 1})
		o := NewOccupancy(d)
		type placement struct {
			c    *Cell
			x, y float64
		}
		var placed []placement
		for i := 0; i < 25; i++ {
			span := 1 + rng.Intn(3)
			c := d.AddCell("c", float64(1+rng.Intn(5)), float64(span)*10, VSS)
			x := float64(rng.Intn(36))
			row := rng.Intn(len(d.Rows) - span + 1)
			y := d.RowY(row)
			if o.Fits(c, x, y) {
				if err := o.Place(c, x, y); err != nil {
					t.Fatalf("Fits true but Place failed: %v", err)
				}
				placed = append(placed, placement{c, x, y})
			}
		}
		// Remove in random order.
		rng.Shuffle(len(placed), func(i, j int) { placed[i], placed[j] = placed[j], placed[i] })
		for _, p := range placed {
			o.Remove(p.c, p.x, p.y)
		}
		if used := o.UsedSites(); used != 0 {
			t.Fatalf("trial %d: %d sites still used after removing everything", trial, used)
		}
	}
}

// TestOccupancyUsedSitesMatchesArea: after successful placements, the used
// site count equals the total placed cell area in sites.
func TestOccupancyUsedSitesMatchesArea(t *testing.T) {
	rng := rand.New(rand.NewSource(251))
	d := NewDesign(Config{NumRows: 4, NumSites: 50, RowHeight: 10, SiteW: 1})
	o := NewOccupancy(d)
	wantSites := 0
	for i := 0; i < 40; i++ {
		span := 1 + rng.Intn(2)
		w := 1 + rng.Intn(6)
		c := d.AddCell("c", float64(w), float64(span)*10, VSS)
		x := float64(rng.Intn(50 - w))
		row := rng.Intn(len(d.Rows) - span + 1)
		if o.Fits(c, x, d.RowY(row)) {
			if err := o.Place(c, x, d.RowY(row)); err != nil {
				t.Fatal(err)
			}
			wantSites += w * span
		}
	}
	if got := o.UsedSites(); got != wantSites {
		t.Fatalf("UsedSites = %d, want %d", got, wantSites)
	}
}

// TestOccupancyFitsConsistentWithPlace: Fits must predict Place success
// exactly.
func TestOccupancyFitsConsistentWithPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(257))
	d := NewDesign(Config{NumRows: 3, NumSites: 30, RowHeight: 10, SiteW: 1})
	o := NewOccupancy(d)
	for i := 0; i < 120; i++ {
		c := d.AddCell("c", float64(1+rng.Intn(8)), 10, VSS)
		x := float64(rng.Intn(40)) - 4 // sometimes out of range
		y := d.RowY(rng.Intn(3))
		fits := o.Fits(c, x, y)
		err := o.Place(c, x, y)
		if fits != (err == nil) {
			t.Fatalf("Fits=%v but Place err=%v at (%g, %g)", fits, err, x, y)
		}
	}
}

// TestOccupancyResetMatchesNew fills a grid for a larger design, leaves a
// transaction open, and resets it for a smaller design and then for a
// larger one again: each reset grid must equal a NewOccupancy grid, with no
// site or recorded edit kept from before.
func TestOccupancyResetMatchesNew(t *testing.T) {
	rng := rand.New(rand.NewSource(243))
	fill := func(o *Occupancy, d *Design) {
		for i := 0; i < 40; i++ {
			c := d.AddCell("c", float64(1+rng.Intn(5)), 10, VSS)
			if x, y := float64(rng.Intn(30)), d.RowY(rng.Intn(len(d.Rows))); o.Fits(c, x, y) {
				if err := o.Place(c, x, y); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	o := NewOccupancy(NewDesign(Config{NumRows: 8, NumSites: 50, RowHeight: 10, SiteW: 1}))
	for _, cfg := range []Config{
		{NumRows: 3, NumSites: 20, RowHeight: 10, SiteW: 1, OriginX: 5},
		{NumRows: 12, NumSites: 64, RowHeight: 8, SiteW: 2, OriginY: -4},
	} {
		big := NewDesign(Config{NumRows: 8, NumSites: 50, RowHeight: 10, SiteW: 1})
		fill(o, big)
		o.Begin()
		fill(o, big)
		d := NewDesign(cfg)
		o.Reset(d)
		want := NewOccupancy(d)
		if o.lo != want.lo || o.rowH != want.rowH || o.site != want.site || o.tx || len(o.undo) != 0 {
			t.Fatalf("%+v: reset geometry or transaction state differs from NewOccupancy", cfg)
		}
		if !reflect.DeepEqual(o.grid, want.grid) {
			t.Fatalf("%+v: reset grid differs from NewOccupancy's", cfg)
		}
		// The reset grid behaves like a new one: one Place, one Rollback.
		c := d.AddCell("probe", 3, cfg.RowHeight, VSS)
		o.Begin()
		if err := o.Place(c, d.Core.Lo.X, d.RowY(1)); err != nil {
			t.Fatal(err)
		}
		o.Rollback()
		if o.UsedSites() != 0 {
			t.Fatalf("%+v: rollback after reset left %d sites used", cfg, o.UsedSites())
		}
		o.Reset(big)
	}
}
