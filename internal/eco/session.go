package eco

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"mclg/internal/baselines/chow"
	"mclg/internal/core"
	"mclg/internal/design"
	"mclg/internal/mclgerr"
	"mclg/internal/wal"
	"mclg/internal/window"
)

// Session is a live ECO legalization session: a committed legal placement,
// the occupancy grid mirroring it, and the append-only delta journal that
// reproduces it from the base design. All methods are safe for concurrent
// use; applies serialize.
type Session struct {
	mu   sync.Mutex
	id   string
	opts Options

	base *design.Design // pristine input clone — the replay seed
	cur  *design.Design // committed: X/Y legal, GX/GY current targets

	// spare is the working copy's storage: each apply refreshes it from cur
	// and mutates it, and a commit swaps it with cur, so the two designs
	// never share a cell. A delete copies the netlist into nets[1-curNets],
	// which cur never reads: cur reads nets[curNets] once a batch with a
	// delete has committed, and its own copy before (curNets starts at 1).
	spare   *design.Design
	nets    [2]design.NetStore
	curNets int

	// occ mirrors cur's occupied sites. Commits update it by difference
	// (commitCheck), so after a delete the IDs it stores for unchanged cells
	// may be stale; only occupancy is read from it.
	occ *design.Occupancy

	// Per-apply scratch, reused across applies (applies serialize).
	mut     mutator
	plan    window.Plan
	run     window.SubBuf    // the sub-design of the run being solved
	targets []float64        // saved GX/GY of every cell, by ID
	outs    []window.CellPos // every run's solved positions
	changed []*design.Cell   // cells commitCheck verifies

	seq      int
	log      []Batch
	posHash  string
	baseHash string // state-zero hash (legalized base, before any batch)

	flog    *wal.Log[logRecord] // nil for a memory-only session
	resumed int

	closed bool
	stats  Stats

	// afterRuns, when set, sees each batch's working design after the run
	// outputs are written and before the commit check; tests use it to
	// inject bad outputs.
	afterRuns func(work *design.Design)
}

// Stats summarizes a session's lifetime activity.
type Stats struct {
	Seq      int    `json:"seq"`
	Cells    int    `json:"cells"`
	Applies  uint64 `json:"applies"`
	Rejected uint64 `json:"rejected"`
	Deltas   uint64 `json:"deltas"`
	Runs     uint64 `json:"runs"`
	Repaired uint64 `json:"repaired"` // runs that fell back to chow local repair
	Resumed  int    `json:"resumed"`  // batches replayed from the durable log
	PosHash  string `json:"pos_hash"`
}

// ApplyResult reports one accepted batch.
type ApplyResult struct {
	Seq       int    `json:"seq"`
	Deltas    int    `json:"deltas"`
	DirtyRows int    `json:"dirty_rows"`
	Bands     int    `json:"bands"` // dirty bands re-solved
	Runs      int    `json:"runs"`  // merged contiguous runs
	Repaired  int    `json:"repaired"`
	Cells     int    `json:"cells"`
	PosHash   string `json:"pos_hash"`
}

// Create opens a session over design d. The input is cloned twice — once as
// the pristine replay base, once as the working state — and if the input
// placement is not already legal it is cold-legalized deterministically
// through the resilient cascade, so state 0 is always checker-verified.
//
// With Options.LogPath set, the session is durable: an existing compatible
// log at that path is resumed by replaying its batches (a mid-session
// process restart lands exactly where it left off), and every subsequently
// accepted batch is appended write-ahead before it commits.
func Create(ctx context.Context, id string, d *design.Design, opts Options) (*Session, error) {
	if err := opts.Validate(); err != nil {
		return nil, mclgerr.Stage("eco-create", err)
	}
	opts = opts.withDefaults()
	if err := d.Validate(); err != nil {
		return nil, mclgerr.Stage("eco-create", err)
	}
	s := &Session{
		id:      id,
		opts:    opts,
		base:    d.Clone(),
		cur:     d.Clone(),
		spare:   new(design.Design),
		curNets: 1,
	}
	if !design.IsLegal(s.cur) {
		rl := core.NewResilient(opts.Core)
		if _, err := rl.LegalizeContext(ctx, s.cur); err != nil {
			return nil, err
		}
	}
	// The grid mirrors the committed placement: fixed cells block their
	// (possibly off-grid) area, movable cells occupy their legal sites.
	s.occ = design.NewOccupancy(s.cur)
	s.occ.BlockFixed(s.cur)
	if err := s.occ.PlaceMovable(s.cur); err != nil {
		return nil, mclgerr.Stage("eco-occupancy", err)
	}
	s.posHash = design.PositionHash(s.cur)
	s.baseHash = s.posHash
	s.stats.Cells = len(s.cur.Cells)
	s.stats.PosHash = s.posHash

	if opts.LogPath != "" {
		fl, records, err := openFileLog(opts.LogPath, id, s.logSig(), s.posHash, opts.LogMeta)
		if err != nil {
			return nil, err
		}
		s.flog = fl
		for _, rec := range records {
			res, err := s.applyLocked(ctx, rec.Deltas, false)
			if err != nil {
				fl.Close()
				return nil, mclgerr.Stage("eco-resume",
					fmt.Errorf("replaying logged batch %d: %w", rec.Seq, err))
			}
			if res.Seq != rec.Seq || res.PosHash != rec.PosHash {
				fl.Close()
				return nil, mclgerr.Invalidf(
					"eco-resume: logged batch %d replays to seq %d hash %s (logged %s) — log does not belong to this base/configuration",
					rec.Seq, res.Seq, res.PosHash, rec.PosHash)
			}
		}
		s.resumed = len(records)
		s.stats.Resumed = s.resumed
	}
	return s, nil
}

// logSig content-addresses everything a logged batch's outcome depends on:
// the pristine base design plus the window and solver parameters
// (window.Sig), and the ECO margin. A durable log resumes only under an
// identical signature.
func (s *Session) logSig() string {
	return fmt.Sprintf("%016x.m%d", window.Sig(s.base, s.opts.WindowRows, window.DefaultContextRows, s.opts.Core), s.opts.MarginRows)
}

// ID returns the session identifier.
func (s *Session) ID() string { return s.id }

// Seq returns the committed batch count.
func (s *Session) Seq() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// PosHash returns the committed placement hash.
func (s *Session) PosHash() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.posHash
}

// Resumed reports how many batches Create replayed from a durable log.
func (s *Session) Resumed() int { return s.resumed }

// BaseHash returns the state-zero placement hash (the legalized base,
// before any batch).
func (s *Session) BaseHash() string { return s.baseHash }

// Design returns a clone of the committed placement.
func (s *Session) Design() *design.Design {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur.Clone()
}

// Log returns a copy of the accepted delta journal.
func (s *Session) Log() []Batch {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Batch, len(s.log))
	copy(out, s.log)
	return out
}

// Statistics returns a snapshot of the session counters.
func (s *Session) Statistics() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Seq = s.seq
	st.Cells = len(s.cur.Cells)
	st.PosHash = s.posHash
	return st
}

// Close ends the session. A durable session's log file is removed — a
// closed session must never be resumed by a restart. Further applies fail
// with ErrInvalidInput.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.flog != nil {
		return s.flog.Remove()
	}
	return nil
}

// Apply validates and applies one delta batch atomically: either every
// delta is valid, every dirty run re-legalizes (or locally repairs), the
// commit check passes, and the batch is journaled and committed — or the
// session is left exactly as it was and a typed error explains why.
func (s *Session) Apply(ctx context.Context, deltas []Delta) (*ApplyResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applyLocked(ctx, deltas, true)
}

func (s *Session) applyLocked(ctx context.Context, deltas []Delta, persist bool) (*ApplyResult, error) {
	if s.closed {
		return nil, mclgerr.Invalidf("eco: session %s is closed", s.id)
	}
	if len(deltas) == 0 {
		return nil, mclgerr.Invalidf("eco: empty delta batch")
	}
	res, err := s.solveBatch(ctx, deltas)
	if err != nil {
		s.stats.Rejected++
		return nil, err
	}

	// Write-ahead: the batch is durable before it is visible. A crash after
	// the append replays the batch on resume; a crash before it loses the
	// batch entirely — never a half-state.
	if persist && s.flog != nil {
		rec := logRecord{Seq: res.Seq, Deltas: deltas, PosHash: res.PosHash}
		rec.Sum = rec.sum()
		if err := s.flog.Append(rec); err != nil {
			s.occ.Rollback()
			s.stats.Rejected++
			return nil, err
		}
	}

	s.occ.Commit()
	s.cur, s.spare = s.spare, s.cur
	if !s.mut.sharedNets {
		s.curNets = 1 - s.curNets
	}
	s.seq = res.Seq
	s.posHash = res.PosHash
	s.log = append(s.log, Batch{Seq: res.Seq, Deltas: append([]Delta(nil), deltas...)})
	s.stats.Applies++
	s.stats.Deltas += uint64(len(deltas))
	s.stats.Runs += uint64(res.Runs)
	s.stats.Repaired += uint64(res.Repaired)
	return res, nil
}

// solveBatch runs the full dirty-window pipeline on the working copy
// (s.spare) and returns the verified result without touching session state,
// except that on success the occupancy grid holds the result inside an open
// transaction for the caller to commit or roll back.
func (s *Session) solveBatch(ctx context.Context, deltas []Delta) (*ApplyResult, error) {
	// 1. Validate and apply the deltas to the working copy, accumulating
	// dirty rows and touched cells. Any invalid delta rejects the batch.
	// The netlist stays shared with cur unless a delete rewrites it.
	work := s.spare
	s.cur.CopyCellsTo(work)
	mut := &s.mut
	mut.reset(work, s.opts.MarginRows, &s.nets[1-s.curNets])
	for i, dl := range deltas {
		if err := mut.apply(i, dl); err != nil {
			return nil, err
		}
	}
	if err := work.Validate(); err != nil {
		return nil, err
	}

	// 2. Turn work into the assignment view: touched cells keep their new
	// targets, untouched movable cells are pinned to their committed
	// positions (GX/GY := X/Y), so the partition assigns untouched cells to
	// their committed rows and the re-solve treats "stay where you are" as
	// their objective. The targets are restored after the last run.
	s.targets = slices.Grow(s.targets[:0], 2*len(work.Cells))
	for _, c := range work.Cells {
		s.targets = append(s.targets, c.GX, c.GY)
		if !c.Fixed {
			c.GX, c.GY = c.X, c.Y
		}
	}
	for id := range mut.touched {
		c := work.Cells[id]
		c.GX, c.GY = s.targets[2*id], s.targets[2*id+1]
	}
	plan := &s.plan
	if err := plan.Repartition(work, s.opts.WindowRows, window.DefaultContextRows); err != nil {
		return nil, err
	}

	// 3. Select the bands the dirty rows reach and merge those whose
	// sub-design row ranges overlap into runs; distinct runs own disjoint
	// rows and solve independently.
	runs, bands := plan.DirtyRuns(mut.dirty)

	// 4. Re-legalize each run through the resilient cascade; fall back to
	// chow-style one-cell-at-a-time local repair when the cascade fails.
	// Either path yields checker-verified positions or rejects the batch.
	// Every run reads the committed positions, so the outputs are written
	// only after the last run.
	repaired := 0
	s.outs = s.outs[:0]
	for i := range runs {
		rep, err := s.solveRun(ctx, work, &runs[i], mut.touched)
		if err != nil {
			return nil, err
		}
		if rep {
			repaired++
		}
	}
	window.ApplyCells(work, s.outs)
	for i, c := range work.Cells {
		c.GX, c.GY = s.targets[2*i], s.targets[2*i+1]
	}
	if s.afterRuns != nil {
		s.afterRuns(work)
	}

	// 5. The commit check gates the commit: only fully verified placements
	// become session state, whatever the per-run solvers claimed.
	if err := s.commitCheck(work, mut); err != nil {
		return nil, err
	}

	return &ApplyResult{
		Seq:       s.seq + 1,
		Deltas:    len(deltas),
		DirtyRows: len(mut.dirty),
		Bands:     bands,
		Runs:      len(runs),
		Repaired:  repaired,
		Cells:     len(work.Cells),
		PosHash:   design.PositionHash(work),
	}, nil
}

// commitCheck verifies work against the committed placement by difference
// and moves the occupancy grid to it inside an open transaction; on failure
// it rolls the grid back and returns the violations. A cell whose footprint
// matches its committed counterpart was verified when that placement
// committed and already sits in the grid. Every other cell — inserted, or
// moved or resized by a delta or a run — gets design.CheckLegal's per-cell
// checks and is then placed into the grid, after the old footprints of all
// changed and deleted cells have been cleared, where any overlap shows up
// as an occupied site. The old footprints are cleared by area, not by ID:
// deletes renumber the IDs the grid stores, and a legal footprint covers
// only its own cell's sites. design.CheckLegal remains the evidence where
// evidence is asked for (Certify).
func (s *Session) commitCheck(work *design.Design, mut *mutator) error {
	occ := s.occ
	occ.Begin()
	for _, o := range mut.deleted {
		c := s.cur.Cells[o]
		occ.Clear(c, c.X, c.Y)
	}
	s.changed = s.changed[:0]
	var vs []design.Violation
	for i, c := range work.Cells {
		if o := mut.orig[i]; o >= 0 {
			old := s.cur.Cells[o]
			if sameFootprint(c, old) {
				continue
			}
			if c.Fixed || old.Fixed {
				// Deltas never address fixed cells and the solvers never move
				// them; the grid blocks their area, it does not place them.
				vs = append(vs, design.Violation{Kind: design.VOverlap, Cells: []int{c.ID},
					Msg: fmt.Sprintf("fixed cell %d moved", c.ID)})
				continue
			}
			occ.Clear(old, old.X, old.Y)
		}
		s.changed = append(s.changed, c)
	}
	for _, c := range s.changed {
		n := len(vs)
		if vs = design.AppendCellViolations(vs, work, c); len(vs) > n {
			continue
		}
		if err := occ.Place(c, c.X, c.Y); err != nil {
			vs = append(vs, design.Violation{Kind: design.VOverlap, Cells: []int{c.ID}, Msg: err.Error()})
		}
	}
	if len(vs) > 0 {
		occ.Rollback()
		rep := design.LegalityReport{Violations: vs}
		return &mclgerr.StageError{
			Stage:  "eco-verify",
			Err:    mclgerr.ErrUnplacedCells,
			Detail: "re-legalized placement failed the legality checker: " + rep.String(),
		}
	}
	return nil
}

// sameFootprint reports whether two cells cover the same area with the same
// legality-relevant attributes.
func sameFootprint(a, b *design.Cell) bool {
	return a.X == b.X && a.Y == b.Y && a.W == b.W && a.H == b.H &&
		a.RowSpan == b.RowSpan && a.BottomRail == b.BottomRail && a.Fixed == b.Fixed
}

// solveRun re-legalizes one dirty run and appends its owned cells'
// positions to s.outs. The primary path is the resilient cascade on the
// run's sub-design. When the cascade cannot produce a verified placement,
// the fallback takes the same sub-design — a failed cascade leaves its input
// unchanged — with only the *touched* cells movable and places them one at
// a time with the chow greedy against the committed surroundings. Both
// paths return window-verified positions; the caller's commit check still
// verifies them against the committed placement before committing.
func (s *Session) solveRun(ctx context.Context, av *design.Design, r *window.Band, touched map[int]bool) (bool, error) {
	sub, idx := s.run.Build(av, &s.plan, r)
	var solveErr error
	if s.opts.failCascade != nil && s.opts.failCascade(r.SubLo, r.SubHi) {
		solveErr = errors.New("cascade failed by the failCascade hook")
	} else {
		// The cascade validates sub and solves it on a working copy,
		// committing back into sub only a verified placement.
		_, solveErr = core.NewResilient(s.opts.Core).LegalizeContext(ctx, sub)
	}
	if solveErr != nil {
		if err := mclgerr.FromContext(ctx); err != nil {
			return false, err
		}
		if err := repairRun(ctx, av, sub, idx, touched); err != nil {
			return false, mclgerr.Stage("eco-repair",
				fmt.Errorf("run rows [%d,%d): cascade failed (%v); local repair failed: %w", r.SubLo, r.SubHi, solveErr, err))
		}
	}
	s.outs = window.AppendOwned(s.outs, sub, idx)
	return solveErr != nil, nil
}

// repairRun is the chow-style local repair of a run's sub-design: every
// cell the batch did not touch is frozen at its committed position, and only
// the touched cells are placed — one at a time, nearest free run first —
// into the gaps. The positions reach sub only when the run passes the
// legality checker.
func repairRun(ctx context.Context, av, sub *design.Design, idx []int, touched map[int]bool) error {
	return design.CommitLegal(sub, "eco-repair", func(w *design.Design) error {
		for i, fullID := range idx {
			if fullID < 0 || touched[fullID] {
				continue
			}
			// Committed position: untouched cells in the assignment view
			// carry X/Y = the committed placement.
			c, at := w.Cells[i], av.Cells[fullID]
			c.X, c.Y, c.Flipped = at.X, at.Y, at.Flipped
			c.GX, c.GY = c.X, c.Y
			c.Fixed = true
		}
		if err := w.Validate(); err != nil {
			return err
		}
		return chow.LegalizeContext(ctx, w)
	})
}
