package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"mclg/internal/design"
	"mclg/internal/eco"
	"mclg/internal/regress"
)

// ecoDesign is the eco-stream session's base design, about 10k cells.
var ecoDesign = suiteDesign{"superblue19", 0.02}

const (
	// ecoBatch is the number of deltas per applied batch.
	ecoBatch = 5
	// Delta mix: mostly moves, some inserts and deletes.
	shareInsert = 0.1
	shareDelete = 0.1
	// ecoMoveSites bounds a move's x step in sites; y steps by at most
	// one row.
	ecoMoveSites = 8
	// ecoAppliesPerSecond is the apply rate at the commit that introduced
	// the benchmark, on a 2-vCPU VM. A run applies seconds × this many
	// batches, so two commits apply the same batches and a faster program
	// finishes sooner.
	ecoAppliesPerSecond = 3.5
)

// appliesFor sizes a run.
func appliesFor(seconds time.Duration) int {
	return max(2, int(math.Round(seconds.Seconds()*ecoAppliesPerSecond)))
}

// deltaStream draws delta batches from a seed. It mirrors the session's
// cell numbering (deletes renumber survivors densely, inserts append), so
// every batch addresses live cells and keeps them inside the core.
type deltaStream struct {
	rng  *rand.Rand
	d    *design.Design // geometry only: core, rows, site and row size
	cur  cellTable
	next cellTable // the state after the last drawn batch
	ins  int
}

// cellTable is the per-ID state the stream tracks.
type cellTable struct {
	w, h, gx, gy []float64
	fixed        []bool
}

func (t cellTable) clone() cellTable {
	return cellTable{
		w:     append([]float64(nil), t.w...),
		h:     append([]float64(nil), t.h...),
		gx:    append([]float64(nil), t.gx...),
		gy:    append([]float64(nil), t.gy...),
		fixed: append([]bool(nil), t.fixed...),
	}
}

func (t *cellTable) remove(id int) {
	t.w = append(t.w[:id], t.w[id+1:]...)
	t.h = append(t.h[:id], t.h[id+1:]...)
	t.gx = append(t.gx[:id], t.gx[id+1:]...)
	t.gy = append(t.gy[:id], t.gy[id+1:]...)
	t.fixed = append(t.fixed[:id], t.fixed[id+1:]...)
}

func newDeltaStream(seed int64, d *design.Design) *deltaStream {
	s := &deltaStream{rng: rand.New(rand.NewSource(mix(seed, -2))), d: d}
	for _, c := range d.Cells {
		s.cur.w = append(s.cur.w, c.W)
		s.cur.h = append(s.cur.h, c.H)
		s.cur.gx = append(s.cur.gx, c.GX)
		s.cur.gy = append(s.cur.gy, c.GY)
		s.cur.fixed = append(s.cur.fixed, c.Fixed)
	}
	return s
}

// movable picks a random movable cell ID.
func (s *deltaStream) movable(t *cellTable) int {
	for {
		if id := s.rng.Intn(len(t.w)); !t.fixed[id] {
			return id
		}
	}
}

func clampTo(v, lo, hi float64) float64 { return max(lo, min(v, hi)) }

// draw returns the next batch. The stream's state advances only on
// accept, so a rejected batch leaves it in step with the session.
func (s *deltaStream) draw() []eco.Delta {
	t := s.cur.clone()
	lo, hi := s.d.Core.Lo, s.d.Core.Hi
	batch := make([]eco.Delta, 0, ecoBatch)
	for k := 0; k < ecoBatch; k++ {
		switch p := s.rng.Float64(); {
		case p < shareInsert:
			w := float64(4+s.rng.Intn(9)) * s.d.SiteW
			h := s.d.RowHeight
			x := lo.X + s.rng.Float64()*(hi.X-lo.X-w)
			y := lo.Y + s.rng.Float64()*(hi.Y-lo.Y-h)
			s.ins++
			batch = append(batch, eco.Delta{Op: eco.OpInsert, Name: fmt.Sprintf("eco%d", s.ins), X: x, Y: y, W: w, H: h})
			t.w, t.h, t.gx, t.gy = append(t.w, w), append(t.h, h), append(t.gx, x), append(t.gy, y)
			t.fixed = append(t.fixed, false)
		case p < shareInsert+shareDelete:
			id := s.movable(&t)
			batch = append(batch, eco.Delta{Op: eco.OpDelete, Cell: id})
			t.remove(id)
		default:
			id := s.movable(&t)
			x := clampTo(t.gx[id]+(2*s.rng.Float64()-1)*ecoMoveSites*s.d.SiteW, lo.X, hi.X-t.w[id])
			y := clampTo(t.gy[id]+float64(s.rng.Intn(3)-1)*s.d.RowHeight, lo.Y, hi.Y-t.h[id])
			batch = append(batch, eco.Delta{Op: eco.OpMove, Cell: id, X: x, Y: y})
			t.gx[id], t.gy[id] = x, y
		}
	}
	s.next = t
	return batch
}

func (s *deltaStream) accept() { s.cur = s.next }

// ecoState is one set-up: an open session past its warm-up batch, the
// stream positioned after it, and the base design to replay from.
type ecoState struct {
	base    *design.Design
	session *eco.Session
	stream  *deltaStream
}

// openSession opens a session over base and applies the stream's first
// batch as the untimed warm-up op.
func openSession(seed int64, base *design.Design) (*ecoState, error) {
	ctx := context.Background()
	s, err := eco.Create(ctx, "perfbench", base, eco.Options{})
	if err != nil {
		return nil, err
	}
	st := &ecoState{base: base, session: s, stream: newDeltaStream(seed, base)}
	if _, err := s.Apply(ctx, st.stream.draw()); err != nil {
		return nil, fmt.Errorf("warm-up batch: %w", err)
	}
	st.stream.accept()
	return st, nil
}

func setupEco(seed int64) (*ecoState, error) {
	base, err := generate(seed, 0, ecoDesign)
	if err != nil {
		return nil, err
	}
	return openSession(seed, base)
}

// checkSession is the untimed check after an apply: the committed placement
// is legal and hashes as the apply reported.
func checkSession(s *eco.Session, res *eco.ApplyResult) (*design.Design, error) {
	d := s.Design()
	if err := checkLegal(d); err != nil {
		return nil, err
	}
	if h := regress.PositionHash(d); h != res.PosHash {
		return nil, fmt.Errorf("committed placement hashes to %s, apply reported %s", h, res.PosHash)
	}
	return d, nil
}

func runEcoStream(cfg runConfig, r *report) error {
	st, setupS, err := repeatSetup(func() (*ecoState, error) { return setupEco(cfg.seed) },
		func(s *ecoState) { s.session.Close() })
	if err != nil {
		return err
	}
	defer st.session.Close()
	if cfg.trace {
		return traceEcoStream(cfg, st, r)
	}
	r.set("setup_s", setupS)
	ctx := context.Background()
	ph := beginPhase()
	var (
		c     cost
		lat   []float64
		cells int
		last  *design.Design
		ok    int
	)
	for i := 0; i < appliesFor(cfg.seconds); i++ {
		batch := st.stream.draw()
		u0 := readUsage()
		res, err := st.session.Apply(ctx, batch)
		u1 := readUsage()
		c.add(u0, u1, 1)
		r.attempted++
		lat = append(lat, u1.wall.Sub(u0.wall).Seconds())
		if err != nil {
			r.opFailed("apply %d: %v", i, err)
			continue
		}
		st.stream.accept()
		d, err := checkSession(st.session, res)
		if err != nil {
			r.opFailed("apply %d: %v", i, err)
			continue
		}
		ok++
		cells += d.NumMovable()
		last = d
	}
	ph.health(r, "")
	cert, err := st.session.Certify(ctx)
	switch {
	case err != nil:
		r.fail("certify: %v", err)
	case !cert.Pass:
		r.fail("certify: replay certificate failed: replay hash %s, committed %s", cert.ReplayHash, cert.PosHash)
	default:
		r.note("eco-stream: replay certificate passes over %d batches (%d deltas)", cert.Batches, cert.Deltas)
	}
	var q quality
	if last != nil {
		q.addDesign(last)
	}
	r.set("ok_frac", float64(ok)/float64(r.attempted))
	r.printed("cpu_ms_per_op", "ms", c.cpuMSPerOp(), "")
	r.set("alloc_mb_per_op", c.allocMBPerOp())
	q.set(r)
	r.note("eco-stream: %d applies of %d deltas, %d ok, timed %.2fs; quality of the final placement",
		r.attempted, ecoBatch, ok, c.wall.Seconds())
	r.printed("cells_per_s", "cells/s", float64(cells)/c.wall.Seconds(), "")
	noteLatency(r, lat)
	return nil
}

func traceEcoStream(cfg runConfig, st *ecoState, r *report) error {
	ctx := context.Background()
	ph := beginPhase()
	defer ph.health(r, "")
	var (
		ref     cost
		batches [][]eco.Delta
		hashes  []string
	)
	for i := 0; i < max(1, appliesFor(cfg.seconds)/2); i++ {
		batch := st.stream.draw()
		u0 := readUsage()
		res, err := st.session.Apply(ctx, batch)
		ref.add(u0, readUsage(), 1)
		r.attempted++
		if err != nil {
			// A rejected batch leaves the session and the stream as they
			// were, so the traced pass skips it too.
			r.opFailed("reference apply %d: %v", i, err)
			continue
		}
		st.stream.accept()
		if _, err := checkSession(st.session, res); err != nil {
			r.opFailed("reference apply %d: %v", i, err)
		}
		batches = append(batches, batch)
		hashes = append(hashes, res.PosHash)
	}
	n := max(1, len(batches))

	traced, err := openSession(cfg.seed, st.base)
	if err != nil {
		return err
	}
	defer traced.session.Close()
	t := newTracer()
	var dirty, runs, cells, repaired int
	var tracedWall float64
	for i, batch := range batches {
		var (
			res *eco.ApplyResult
			err error
		)
		u0 := readUsage()
		t.call(i+1, 0, "eco.Apply", func() { res, err = traced.session.Apply(ctx, batch) })
		tracedWall += readUsage().wall.Sub(u0.wall).Seconds()
		if err != nil {
			r.opFailed("traced apply %d: %v", i, err)
			continue
		}
		if res.PosHash != hashes[i] {
			r.opFailed("traced apply %d: pos_hash %s differs from the untraced run's %s", i, res.PosHash, hashes[i])
		}
		d := traced.session.Design()
		t.call(i+1, 0, "design.CheckLegal", func() { err = checkLegal(d) })
		if err != nil {
			r.opFailed("traced apply %d: %v", i, err)
		}
		dirty += res.DirtyRows
		runs += res.Runs
		cells += res.Cells
		repaired += res.Repaired
	}
	self := selfTimes(t.spans)
	per := func(v float64) float64 { return v / float64(n) }
	r.set("eco.apply_s", per(self["eco.Apply"]))
	r.set("eco.dirty_rows", per(float64(dirty)))
	r.set("eco.runs", per(float64(runs)))
	r.set("eco.cells", per(float64(cells)))
	r.set("eco.repaired", per(float64(repaired)))
	r.set("design.checklegal_s", per(self["design.CheckLegal"]))
	r.set("go.gc_cpu_s", per(ref.gcCPU))
	r.note("eco-stream traced: %d applies; untraced %.4fs/op, traced %.4fs/op, tracing overhead %+.1f%%",
		n, ref.wall.Seconds()/float64(n), tracedWall/float64(n), 100*(tracedWall/ref.wall.Seconds()-1))
	noteSelfTimes(r, self, n, func(string) bool { return true })
	return writeSpans(cfg, t, r)
}
