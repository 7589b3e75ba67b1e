package eco

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mclg/internal/design"
	"mclg/internal/mclgerr"
	"mclg/internal/regress"
)

// gridMatchesFresh reports where the session's occupancy grid disagrees
// with a grid rebuilt from the committed placement.
func gridMatchesFresh(s *Session) error {
	fresh := design.NewOccupancy(s.cur)
	fresh.BlockFixed(s.cur)
	if err := fresh.PlaceMovable(s.cur); err != nil {
		return fmt.Errorf("committed placement does not fit a fresh grid: %w", err)
	}
	for r, row := range s.cur.Rows {
		for site := 0; site < row.NumSites; site++ {
			if (s.occ.OwnerAt(r, site) >= 0) != (fresh.OwnerAt(r, site) >= 0) {
				return fmt.Errorf("session grid and a fresh grid disagree at row %d site %d", r, site)
			}
		}
	}
	return nil
}

// sameCommitted reports the first difference between two designs' cells
// and netlists.
func sameCommitted(got, want *design.Design) error {
	if len(got.Cells) != len(want.Cells) {
		return fmt.Errorf("%d cells, want %d", len(got.Cells), len(want.Cells))
	}
	for i, c := range got.Cells {
		if *c != *want.Cells[i] {
			return fmt.Errorf("cell %d = %v, want %v", i, c, want.Cells[i])
		}
	}
	if !reflect.DeepEqual(got.Nets, want.Nets) {
		return errors.New("netlists differ")
	}
	return nil
}

// validOnFreshCopy reports whether a batch passes delta validation when
// applied to a fresh clone of the committed design, away from the session's
// recycled storage.
func validOnFreshCopy(s *Session, batch []Delta) bool {
	var m mutator
	d := s.cur.Clone()
	m.reset(d, s.opts.MarginRows, new(design.NetStore))
	for i, dl := range batch {
		if m.apply(i, dl) != nil {
			return false
		}
	}
	return d.Validate() == nil
}

// TestRecycledStorageKeepsCommittedState runs a long seeded stream through
// one session, so its working copy, netlist stores, plan and run buffer are
// recycled hundreds of times, and mixes in batches that must be rejected:
// valid deletes followed by an invalid delta, and bad run outputs injected
// after the runs. Every batch that validates on a fresh copy of the
// committed design must commit unless a bad output was injected, every
// other batch must be rejected without touching the committed netlist, every snapshot taken
// along the way must still hash as recorded, and at the end the committed
// cells and netlist must equal a replay of the log and the grid a fresh
// rebuild.
func TestRecycledStorageKeepsCommittedState(t *testing.T) {
	ctx := context.Background()
	base := testDesign(t, "fft_2", 0.004)
	s, err := Create(ctx, "recycle", base.Clone(), Options{})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	rng := rand.New(rand.NewSource(11))
	// A bad output is illegal by construction — one movable cell onto
	// another, or off the site grid — so the log, which holds only the
	// deltas, still determines every committed state.
	injecting := false
	s.afterRuns = func(work *design.Design) {
		if !injecting {
			return
		}
		ids := pickMovable(work, len(work.Cells))
		c := work.Cells[ids[rng.Intn(len(ids))]]
		if rng.Intn(2) == 0 {
			c.X += 0.37 * work.SiteW
			return
		}
		u := c
		for u == c {
			u = work.Cells[ids[rng.Intn(len(ids))]]
		}
		c.X, c.Y = u.X, u.Y
	}
	type snapshot struct {
		d    *design.Design
		hash string
	}
	var snaps []snapshot
	deletes, invalid, injected, accepted := 0, 0, 0, 0
	for i := 0; i < 300; i++ {
		batch := randomBatch(rng, s.cur)
		kind := rng.Intn(8)
		injecting = kind == 0 && validOnFreshCopy(s, batch)
		if kind == 1 {
			// A valid delete rewrites the working netlist before the
			// invalid delta rejects the batch.
			id := pickMovable(s.cur, 1)[0]
			batch = append(batch, Delta{Op: OpDelete, Cell: id}, Delta{Op: OpMove, Cell: len(s.cur.Cells) + 3})
		}
		for _, dl := range batch {
			if dl.Op == OpDelete {
				deletes++
			}
		}
		valid := validOnFreshCopy(s, batch)
		seq, hash, pins := s.Seq(), s.PosHash(), netlistSum(s.cur)
		_, err := s.Apply(ctx, batch)
		switch {
		case !valid || kind == 1:
			invalid++
			if !errors.Is(err, mclgerr.ErrInvalidInput) {
				t.Fatalf("batch %d: invalid batch (valid on a fresh copy: %v) gave %v, want ErrInvalidInput", i, valid, err)
			}
		case injecting:
			injected++
			if !errors.Is(err, mclgerr.ErrUnplacedCells) {
				t.Fatalf("batch %d: injected bad output gave %v, want an eco-verify reject", i, err)
			}
		case err != nil:
			t.Fatalf("batch %d: valid batch %v rejected: %v", i, batch, err)
		}
		if err != nil {
			if s.Seq() != seq || s.PosHash() != hash || netlistSum(s.cur) != pins {
				t.Fatalf("batch %d: a rejected batch changed the committed state", i)
			}
		} else {
			accepted++
		}
		if err := s.cur.Validate(); err != nil {
			t.Fatalf("batch %d: committed design invalid: %v", i, err)
		}
		d := s.Design()
		snaps = append(snaps, snapshot{d, regress.PositionHash(d)})
	}
	t.Logf("%d accepted; %d invalid, %d injected; %d deletes", accepted, invalid, injected, deletes)

	for i, sn := range snaps {
		if h := regress.PositionHash(sn.d); h != sn.hash {
			t.Fatalf("snapshot after batch %d now hashes to %s, recorded %s", i, h, sn.hash)
		}
	}
	if err := gridMatchesFresh(s); err != nil {
		t.Fatal(err)
	}
	rs, err := Replay(ctx, base.Clone(), s.Log(), Options{})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if err := sameCommitted(s.cur, rs.cur); err != nil {
		t.Fatalf("committed state differs from a replay of the log: %v", err)
	}
	if rs.PosHash() != s.PosHash() {
		t.Fatalf("replay hash %s, committed %s", rs.PosHash(), s.PosHash())
	}
}
