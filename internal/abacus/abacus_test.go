package abacus

import (
	"math"
	"math/rand"
	"testing"

	"mclg/internal/design"
)

func TestPlaceRowNoOverlapKeepsTargets(t *testing.T) {
	entries := []Entry{
		{Target: 0, Width: 2, Weight: 1},
		{Target: 10, Width: 2, Weight: 1},
		{Target: 20, Width: 2, Weight: 1},
	}
	x := PlaceRow(entries, 0, 100)
	for i, e := range entries {
		if x[i] != e.Target {
			t.Errorf("x[%d] = %g, want %g (no overlap, no move)", i, x[i], e.Target)
		}
	}
}

func TestPlaceRowTwoOverlappingCells(t *testing.T) {
	// Both want 5, width 2: optimum 4 and 6.
	entries := []Entry{
		{Target: 5, Width: 2, Weight: 1},
		{Target: 5, Width: 2, Weight: 1},
	}
	x := PlaceRow(entries, 0, 100)
	if math.Abs(x[0]-4) > 1e-12 || math.Abs(x[1]-6) > 1e-12 {
		t.Errorf("x = %v, want [4 6]", x)
	}
}

func TestPlaceRowWeighted(t *testing.T) {
	// Heavy cell barely moves: weights 9 and 1, both want 10, width 2.
	// Cluster optimum: minimize 9(x-10)² + (x+2-10)² -> x = (9*10+1*8)/10 = 9.8.
	entries := []Entry{
		{Target: 10, Width: 2, Weight: 9},
		{Target: 10, Width: 2, Weight: 1},
	}
	x := PlaceRow(entries, 0, 100)
	if math.Abs(x[0]-9.8) > 1e-12 || math.Abs(x[1]-11.8) > 1e-12 {
		t.Errorf("x = %v, want [9.8 11.8]", x)
	}
}

func TestPlaceRowLeftBoundary(t *testing.T) {
	entries := []Entry{
		{Target: -5, Width: 3, Weight: 1},
		{Target: -4, Width: 3, Weight: 1},
	}
	x := PlaceRow(entries, 0, 100)
	if x[0] != 0 || x[1] != 3 {
		t.Errorf("x = %v, want [0 3]", x)
	}
}

func TestPlaceRowRightBoundary(t *testing.T) {
	entries := []Entry{
		{Target: 95, Width: 4, Weight: 1},
		{Target: 97, Width: 4, Weight: 1},
	}
	x := PlaceRow(entries, 0, 100)
	if x[1]+4 > 100+1e-12 {
		t.Errorf("right boundary violated: %v", x)
	}
	if x[0]+4 > x[1]+1e-12 {
		t.Errorf("overlap after clamping: %v", x)
	}
	// Relaxed right boundary lets them sit at their targets' optimum.
	xr := PlaceRow(entries, 0, math.Inf(1))
	if math.Abs(xr[0]-94) > 1e-12 || math.Abs(xr[1]-98) > 1e-12 {
		t.Errorf("relaxed x = %v, want [94 98]", xr)
	}
}

func TestPlaceRowEmpty(t *testing.T) {
	if x := PlaceRow(nil, 0, 10); x != nil {
		t.Errorf("empty PlaceRow = %v, want nil", x)
	}
}

// chainExact solves the same problem by reduction to isotonic regression
// (pool adjacent violators), an independent exact method.
func chainExact(targets, widths, weights []float64, xmin float64) []float64 {
	n := len(targets)
	prefix := make([]float64, n)
	for i := 1; i < n; i++ {
		prefix[i] = prefix[i-1] + widths[i-1]
	}
	type block struct {
		sum, wt float64
		count   int
	}
	var blocks []block
	for i := 0; i < n; i++ {
		blocks = append(blocks, block{weights[i] * (targets[i] - prefix[i]), weights[i], 1})
		for len(blocks) >= 2 {
			a, b := blocks[len(blocks)-2], blocks[len(blocks)-1]
			if a.sum/a.wt <= b.sum/b.wt {
				break
			}
			blocks = blocks[:len(blocks)-2]
			blocks = append(blocks, block{a.sum + b.sum, a.wt + b.wt, a.count + b.count})
		}
	}
	x := make([]float64, 0, n)
	for _, bl := range blocks {
		v := bl.sum / bl.wt
		if v < xmin {
			v = xmin
		}
		for k := 0; k < bl.count; k++ {
			x = append(x, v+prefix[len(x)])
		}
	}
	return x
}

// Property: PlaceRow matches the independent PAVA solution on random rows
// with a relaxed right boundary.
func TestPlaceRowMatchesPAVA(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(20)
		entries := make([]Entry, n)
		targets := make([]float64, n)
		widths := make([]float64, n)
		weights := make([]float64, n)
		// Nondecreasing targets (the ordering Abacus assumes).
		cur := 0.0
		for i := 0; i < n; i++ {
			cur += rng.Float64() * 4
			targets[i] = cur
			widths[i] = 0.5 + rng.Float64()*3
			weights[i] = 0.5 + rng.Float64()*4
			entries[i] = Entry{Target: targets[i], Width: widths[i], Weight: weights[i]}
		}
		got := PlaceRow(entries, 0, math.Inf(1))
		want := chainExact(targets, widths, weights, 0)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("trial %d: x[%d] = %.12g, PAVA %.12g", trial, i, got[i], want[i])
			}
		}
	}
}

// Property: the PlaceRow result always satisfies the constraints.
func TestPlaceRowAlwaysFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(409))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(15)
		entries := make([]Entry, n)
		total := 0.0
		for i := range entries {
			entries[i] = Entry{
				Target: rng.Float64()*50 - 10,
				Width:  0.5 + rng.Float64()*2,
				Weight: 0.5 + rng.Float64(),
			}
			total += entries[i].Width
		}
		// Unsorted targets are allowed — Abacus preserves input order.
		xmax := total + rng.Float64()*20
		x := PlaceRow(entries, 0, xmax)
		if x[0] < -1e-9 {
			t.Fatalf("trial %d: left boundary violated: %g", trial, x[0])
		}
		for i := 0; i+1 < n; i++ {
			if x[i]+entries[i].Width > x[i+1]+1e-9 {
				t.Fatalf("trial %d: overlap at %d: %v", trial, i, x)
			}
		}
		if x[n-1]+entries[n-1].Width > xmax+1e-9 {
			t.Fatalf("trial %d: right boundary violated", trial)
		}
	}
}

func singleRowDesign(rng *rand.Rand, rows, sites, cells int) *design.Design {
	d := design.NewDesign(design.Config{NumRows: rows, NumSites: sites, RowHeight: 10, SiteW: 1})
	for i := 0; i < cells; i++ {
		w := float64(2 + rng.Intn(6))
		c := d.AddCell("c", w, 10, design.VSS)
		c.GX = rng.Float64() * (float64(sites) - w)
		c.GY = rng.Float64() * float64(rows-1) * 10
		c.X, c.Y = c.GX, c.GY
	}
	return d
}

func TestPlaceRowsAssignedOptimalPerRow(t *testing.T) {
	rng := rand.New(rand.NewSource(431))
	d := singleRowDesign(rng, 4, 80, 25)
	// Assign to nearest rows.
	for _, c := range d.Cells {
		r := d.RowAt(math.Min(math.Max(c.GY, 0), float64(len(d.Rows)-1)*10) + 5)
		c.Y = d.RowY(r)
	}
	if err := PlaceRowsAssigned(d, true); err != nil {
		t.Fatal(err)
	}
	// Check per-row optimality against PAVA.
	byRow := map[int][]*design.Cell{}
	for _, c := range d.Cells {
		r := d.RowAt(c.Y + 1)
		byRow[r] = append(byRow[r], c)
	}
	for r, cells := range byRow {
		// Sort by GX (the PlaceRowsAssigned order).
		for i := 1; i < len(cells); i++ {
			for j := i; j > 0; j-- {
				a, b := cells[j-1], cells[j]
				if a.GX > b.GX || (a.GX == b.GX && a.ID > b.ID) {
					cells[j-1], cells[j] = b, a
				} else {
					break
				}
			}
		}
		targets := make([]float64, len(cells))
		widths := make([]float64, len(cells))
		weights := make([]float64, len(cells))
		for i, c := range cells {
			targets[i], widths[i], weights[i] = c.GX, c.W, 1
		}
		want := chainExact(targets, widths, weights, 0)
		for i, c := range cells {
			if math.Abs(c.X-want[i]) > 1e-9 {
				t.Errorf("row %d cell %d: x = %g, PAVA %g", r, c.ID, c.X, want[i])
			}
		}
	}
}
