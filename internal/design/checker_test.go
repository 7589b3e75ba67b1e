package design

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// fuzzDesign builds a random design and placement for the checker tests.
// mode selects the variant: mode%4 the core (origin 0; 1e9; 1e12 with a
// non-dyadic site width; the same with a non-dyadic row height), bit 2 fixed
// cells taller than the core (which sends the kernel to its one-band
// fallback), bit 3 a legal base placement with at most one cell disturbed
// instead of a random one.
func fuzzDesign(seed int64, rows, sites, n int, mode uint8) *Design {
	rng := rand.New(rand.NewSource(seed))
	cfg := Config{Name: "fuzz", NumRows: rows, NumSites: sites, RowHeight: 10, SiteW: 1,
		BottomRail: RailType(rng.Intn(2))}
	switch mode % 4 {
	case 1:
		cfg.OriginX, cfg.OriginY = 1e9, -1e9
	case 2:
		cfg.OriginX, cfg.OriginY, cfg.SiteW = 1e12, 1e12, 0.19
	case 3:
		cfg.OriginX, cfg.OriginY, cfg.SiteW, cfg.RowHeight = -1e12, 1e12, 0.19, 1.7
	}
	d := NewDesign(cfg)
	tall := mode&4 != 0
	legal := mode&8 != 0
	next := make([]int, rows) // legal mode: the first free site of each row
	var xs []float64          // x positions already used, for exact ties
	for i := 0; i < n; i++ {
		w := float64(1+rng.Intn(6)) * d.SiteW
		var c *Cell
		switch {
		case tall && rng.Intn(2) == 0:
			c, _ = d.AddTerminalChecked("f", w, d.RowHeight*float64(rows+2))
		case rng.Intn(5) == 0:
			c, _ = d.AddTerminalChecked("f", w, d.RowHeight*(0.5+2.5*rng.Float64()))
		default:
			c = d.AddCell("c", w, float64(1+rng.Intn(min(3, rows)))*d.RowHeight, RailType(rng.Intn(2)))
		}
		if legal {
			if !placeLegal(d, c, rng, next) {
				d.Cells = d.Cells[:len(d.Cells)-1]
			}
			continue
		}
		placeRandom(d, c, rng, &xs)
	}
	if legal && len(d.Cells) > 0 {
		switch rng.Intn(3) {
		case 0: // leave it legal
		case 1:
			placeRandom(d, d.Cells[rng.Intn(len(d.Cells))], rng, &xs)
		case 2: // move a cell onto another one, possibly a fixed one
			a, b := d.Cells[rng.Intn(len(d.Cells))], d.Cells[rng.Intn(len(d.Cells))]
			a.X, a.Y = b.X, b.Y
		}
	}
	return d
}

// placeLegal packs c into a random rail-compatible row band at least one
// site right of everything already there, and reports whether it fit.
func placeLegal(d *Design, c *Cell, rng *rand.Rand, next []int) bool {
	span := min(c.RowSpan, len(d.Rows))
	r := rng.Intn(len(d.Rows) - span + 1)
	if !c.Fixed && c.EvenSpan() && !d.RailCompatible(c, r) {
		return false
	}
	s := 0
	for k := r; k < r+span; k++ {
		s = max(s, next[k])
	}
	s += rng.Intn(3)
	ws := int(c.W/d.SiteW + 0.5)
	if c.Fixed && c.H > float64(span)*d.RowHeight || s+ws > d.Rows[0].NumSites {
		return false
	}
	for k := r; k < r+span; k++ {
		next[k] = s + ws + 1
	}
	c.X, c.Y = d.Core.Lo.X+float64(s)*d.SiteW, d.RowY(r)
	return true
}

// placeRandom puts c on a random site and row, then disturbs the position
// in one of the ways the checker must catch: off the site grid, off the row
// grid, past each of the four core sides, or on an x already taken.
func placeRandom(d *Design, c *Cell, rng *rand.Rand, xs *[]float64) {
	rows, sites := len(d.Rows), d.Rows[0].NumSites
	x := d.Core.Lo.X + float64(rng.Intn(sites))*d.SiteW
	y := d.RowY(rng.Intn(rows))
	switch rng.Intn(10) {
	case 0:
		x += d.SiteW * (0.05 + 0.9*rng.Float64())
	case 1:
		y += d.RowHeight * (0.05 + 0.9*rng.Float64())
	case 2:
		x = d.Core.Lo.X - c.W*rng.Float64() - float64(rng.Intn(3))*d.SiteW
	case 3:
		x = d.Core.Hi.X - c.W + float64(1+rng.Intn(4))*d.SiteW
	case 4:
		y = d.Core.Lo.Y - float64(1+rng.Intn(3))*d.RowHeight*rng.Float64()
	case 5:
		y = d.Core.Hi.Y - c.H + float64(1+rng.Intn(3))*d.RowHeight
	case 6, 7:
		if len(*xs) > 0 {
			x = (*xs)[rng.Intn(len(*xs))]
		}
	}
	if c.Fixed && c.H > float64(rows)*d.RowHeight {
		y = d.Core.Lo.Y - d.RowHeight
	}
	c.X, c.Y = x, y
	*xs = append(*xs, x)
}

// checkAgainstRef fails t unless CheckLegal's violations equal the
// reference's and IsLegal agrees with them.
func checkAgainstRef(t testing.TB, d *Design) (want []Violation) {
	t.Helper()
	want = checkLegalRef(d).Violations
	if got := CheckLegal(d).Violations; !reflect.DeepEqual(got, want) {
		n := min(len(got), len(want))
		for i := 0; i < n; i++ {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("violation %d of %d/%d: got %v %v, want %v %v",
					i, len(got), len(want), got[i], got[i].Cells, want[i], want[i].Cells)
			}
		}
		t.Fatalf("got %d violations, want %d", len(got), len(want))
	}
	if got := IsLegal(d); got != (len(want) == 0) {
		t.Fatalf("IsLegal = %v with %d reference violations", got, len(want))
	}
	return want
}

func FuzzCheckLegal(f *testing.F) {
	for mode := 0; mode < 16; mode++ {
		f.Add(int64(mode), uint8(3+mode%6), uint8(20+7*mode), uint8(mode))
	}
	f.Add(int64(99), uint8(1), uint8(5), uint8(0))
	f.Add(int64(7), uint8(12), uint8(200), uint8(8))
	f.Fuzz(func(t *testing.T, seed int64, rows, cells, mode uint8) {
		d := fuzzDesign(seed, 1+int(rows%16), 12+int(cells%40), int(cells), mode)
		checkAgainstRef(t, d)
	})
}

// TestCheckLegalMatchesReference runs the fuzz generator over fixed seeds
// and counts what it covered, so the fuzz target is known to reach every
// case it exists for: each violation kind, fixed-movable overlaps, legal
// verdicts and the one-band fallback.
func TestCheckLegalMatchesReference(t *testing.T) {
	kinds := map[string]int{}
	var legal, fixedMovable, fallback int
	for seed := int64(0); seed < 400; seed++ {
		mode := uint8(seed % 16)
		d := fuzzDesign(seed, 1+int(seed%12), 12+int(seed%40), int(seed%97), mode)
		want := checkAgainstRef(t, d)
		if len(want) == 0 {
			legal++
		}
		for _, v := range want {
			kinds[v.Kind]++
			if v.Kind == VOverlap && d.Cells[v.Cells[0]].Fixed != d.Cells[v.Cells[1]].Fixed {
				fixedMovable++
			}
		}
		total := 0
		for _, c := range d.Cells {
			lo, hi := bandRange(d, c, len(d.Rows))
			total += max(int(hi-lo)+1, 0)
		}
		if oneBand(total, len(d.Cells), len(d.Rows)) {
			fallback++
		}
	}
	t.Logf("kinds %v, legal %d, fixed-movable %d, fallback %d", kinds, legal, fixedMovable, fallback)
	for _, k := range []string{VOutsideCore, VOffSite, VOffRow, VRailMismatch, VOverlap} {
		if kinds[k] == 0 {
			t.Errorf("no %s violation generated", k)
		}
	}
	if legal == 0 || fixedMovable == 0 || fallback == 0 {
		t.Errorf("coverage: %d legal, %d fixed-movable overlaps, %d fallback sweeps; want each > 0",
			legal, fixedMovable, fallback)
	}
}

// TestCheckLegalConcurrent runs IsLegal and CheckLegal from four goroutines
// over designs of mixed sizes: the pooled scratch must never be shared
// between two checks in flight (run it under -race).
func TestCheckLegalConcurrent(t *testing.T) {
	var ds []*Design
	var want [][]Violation
	for i, size := range []struct{ rows, sites, n int }{
		{4, 20, 10}, {40, 300, 3000}, {8, 60, 90}, {20, 150, 800}, {2, 12, 3}, {30, 200, 1500},
	} {
		d := fuzzDesign(int64(i), size.rows, size.sites, size.n, uint8(8*(i%2)))
		ds = append(ds, d)
		want = append(want, checkLegalRef(d).Violations)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 3*len(ds); k++ {
				i := (g + k) % len(ds)
				if got := IsLegal(ds[i]); got != (len(want[i]) == 0) {
					t.Errorf("goroutine %d design %d: IsLegal = %v, %d reference violations", g, i, got, len(want[i]))
				}
				if got := CheckLegal(ds[i]).Violations; !reflect.DeepEqual(got, want[i]) {
					t.Errorf("goroutine %d design %d: report differs from the reference", g, i)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestIsLegalAllocatesNothing pins the verdict's steady state: after one
// call has sized the pooled scratch, a verdict on a legal design allocates
// nothing.
func TestIsLegalAllocatesNothing(t *testing.T) {
	var d *Design
	for seed := int64(0); d == nil; seed++ {
		if seed == 20 {
			t.Fatal("no legal placement generated")
		}
		if d = fuzzDesign(seed, 30, 200, 1500, 8); !checkLegalRef(d).Legal() {
			d = nil
		}
	}
	if !IsLegal(d) {
		t.Fatalf("IsLegal rejects a legal placement: %v", CheckLegal(d))
	}
	if n := testing.AllocsPerRun(20, func() { IsLegal(d) }); n != 0 {
		t.Errorf("IsLegal allocates %v times per call, want 0", n)
	}
}
