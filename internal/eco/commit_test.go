package eco

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"mclg/internal/design"
	"mclg/internal/mclgerr"
)

// randomBatch draws 1–5 deltas against the committed design: moves of up to
// 8 sites and a row, single-row inserts, deletes and resizes. It renumbers
// its movable IDs through deletes so every delta addresses a live movable
// cell (a later delta's geometry may come from the pre-batch cell at that
// index; the session validates it like any other).
func randomBatch(rng *rand.Rand, d *design.Design) []Delta {
	var movable []int
	for _, c := range d.Cells {
		if !c.Fixed {
			movable = append(movable, c.ID)
		}
	}
	lo, hi := d.Core.Lo, d.Core.Hi
	var out []Delta
	for k := 1 + rng.Intn(5); k > 0 && len(movable) > 0; k-- {
		j := rng.Intn(len(movable))
		c := d.Cells[movable[j]]
		switch p := rng.Float64(); {
		case p < 0.15:
			w := float64(2+rng.Intn(6)) * d.SiteW
			out = append(out, Delta{Op: OpInsert, Name: "t",
				X: lo.X + rng.Float64()*(hi.X-lo.X-w), Y: lo.Y + rng.Float64()*(hi.Y-lo.Y-d.RowHeight),
				W: w, H: d.RowHeight})
		case p < 0.3:
			out = append(out, Delta{Op: OpDelete, Cell: c.ID})
			movable = append(movable[:j], movable[j+1:]...)
			for i := range movable {
				if movable[i] > c.ID {
					movable[i]--
				}
			}
		case p < 0.4 && c.RowSpan == 1:
			out = append(out, Delta{Op: OpResize, Cell: c.ID, W: c.W + d.SiteW, H: c.H})
		default:
			x := c.GX + float64(rng.Intn(17)-8)*d.SiteW
			y := c.GY + float64(rng.Intn(3)-1)*d.RowHeight
			x = max(lo.X, min(x, hi.X-c.W))
			y = max(lo.Y, min(y, hi.Y-c.H))
			out = append(out, Delta{Op: OpMove, Cell: c.ID, X: x, Y: y})
		}
	}
	return out
}

// inject corrupts (or legally perturbs) a batch's solved working design
// the way a faulty run could, and names what it did.
func inject(rng *rand.Rand, work *design.Design, inserts int) string {
	var movable []*design.Cell
	for _, c := range work.Cells {
		if !c.Fixed {
			movable = append(movable, c)
		}
	}
	pick := func() *design.Cell { return movable[rng.Intn(len(movable))] }
	switch rng.Intn(5) {
	case 0:
		// A cell lands on another cell, usually far outside every run.
		c, u := pick(), pick()
		c.X, c.Y = u.X, u.Y
		return fmt.Sprintf("cell %d onto cell %d", c.ID, u.ID)
	case 1:
		c := pick()
		c.X += 0.37 * work.SiteW
		return fmt.Sprintf("cell %d off-site", c.ID)
	case 2:
		if inserts == 0 {
			return "none"
		}
		c, u := work.Cells[len(work.Cells)-1], pick()
		c.X, c.Y = u.X, u.Y
		return fmt.Sprintf("insert %d onto cell %d", c.ID, u.ID)
	case 3:
		// A legal relocation the solver did not choose: into a free run of
		// sites in the cell's own row.
		c := pick()
		occ := design.NewOccupancy(work)
		for _, o := range work.Cells {
			if o.Fixed {
				occ.BlockArea(o.ID, o.X, o.Y, o.W, o.H)
			} else if o != c {
				_ = occ.Place(o, o.X, o.Y)
			}
		}
		for s := 0; s < work.Rows[0].NumSites; s++ {
			x := work.Core.Lo.X + float64(s)*work.SiteW
			if occ.Fits(c, x, c.Y) {
				c.X = x
				return fmt.Sprintf("cell %d to free site %d", c.ID, s)
			}
		}
		return "none"
	}
	return "none"
}

// netlistSum fingerprints a netlist by its pins' cell IDs.
func netlistSum(d *design.Design) int {
	s := 0
	for i, n := range d.Nets {
		for j, p := range n.Pins {
			s += (i + 1) * (j + 1) * (p.CellID + 2)
		}
	}
	return s
}

// The commit check must reject a batch exactly when design.CheckLegal
// rejects the working design — on random batches and on injected bad run
// outputs — and the occupancy grid must always mirror the committed
// placement, rolled back after every reject.
func TestCommitCheckMatchesCheckLegal(t *testing.T) {
	s := testSession(t, "fft_2", 0.004, Options{})
	rng := rand.New(rand.NewSource(7))
	var (
		called  bool
		want    bool
		what    string
		inserts int
	)
	s.afterRuns = func(work *design.Design) {
		called = true
		what = "none"
		if rng.Intn(2) == 0 {
			what = inject(rng, work, inserts)
		}
		want = design.CheckLegal(work).Legal()
	}
	accepted, rejected := 0, 0
	for i := 0; i < 150; i++ {
		batch := randomBatch(rng, s.cur)
		inserts = 0
		for _, dl := range batch {
			if dl.Op == OpInsert {
				inserts++
			}
		}
		called = false
		before, pins := s.cur, netlistSum(s.cur)
		_, err := s.Apply(context.Background(), batch)
		if err != nil && netlistSum(s.cur) != pins {
			t.Fatalf("batch %d: a rejected batch rewrote the committed netlist", i)
		}
		if err := s.cur.Validate(); err != nil {
			t.Fatalf("batch %d: committed design invalid: %v", i, err)
		}
		if !called {
			continue // rejected before the commit check
		}
		switch {
		case want && err != nil:
			t.Fatalf("batch %d (%s): CheckLegal accepts but the commit was rejected: %v", i, what, err)
		case !want && err == nil:
			t.Fatalf("batch %d (%s): CheckLegal rejects but the commit was accepted", i, what)
		case !want && !errors.Is(err, mclgerr.ErrUnplacedCells):
			t.Fatalf("batch %d (%s): reject %v is not an eco-verify error", i, what, err)
		case err != nil && s.cur != before:
			t.Fatalf("batch %d: a rejected batch changed the committed design", i)
		}
		if err == nil {
			accepted++
		} else {
			rejected++
		}
		if gerr := gridMatchesFresh(s); gerr != nil {
			t.Fatalf("batch %d (%s, accepted %v): %v", i, what, err == nil, gerr)
		}
	}
	t.Logf("%d accepted, %d rejected by the commit check", accepted, rejected)
	if accepted < 20 || rejected < 20 {
		t.Fatalf("%d accepted, %d rejected: the stream must exercise both sides", accepted, rejected)
	}
}
