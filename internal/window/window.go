// Package window decomposes a legalization job into per-row-band windows
// that are solved independently and stitched deterministically, turning the
// window into the unit of fault containment: a panicking, stalling, or
// diverging window is retried, hedged, or degraded without discarding the
// healthy windows, and completed windows can be journaled so a crashed job
// resumes instead of restarting.
//
// The determinism contract matches the rest of the repository: the stitched
// placement is a pure function of the input design and the options — never
// of the worker count, of which attempt of a window happened to win, or of
// how many retries and hedges a chaotic run needed. Every successful attempt
// of a window computes the same placement (attempts differ only in injected
// or environmental failures), and the stitch pass is the deterministic
// Tetris allocator, so the final position hash is bit-identical across
// worker counts and retry histories.
package window

import (
	"hash/fnv"
	"math"
	"slices"

	"mclg/internal/core"
	"mclg/internal/design"
	"mclg/internal/mclgerr"
)

// Band is one horizontal window: a contiguous run of owned rows plus a
// frozen-context margin above and below.
type Band struct {
	// Index is the band's position in Plan.Bands (and its journal key).
	Index int
	// RowLo/RowHi bound the owned rows [RowLo, RowHi): cells assigned to
	// these rows are movable in this window and in no other.
	RowLo, RowHi int
	// SubLo/SubHi bound the sub-design rows [SubLo, SubHi): the owned rows
	// plus the context margin and any overhang of tall owned cells.
	SubLo, SubHi int
	// Owned lists the full-design IDs of the cells this window moves, in
	// ascending ID order (a run from Plan.DirtyRuns concatenates its bands'
	// lists).
	Owned []int
}

// Plan is the deterministic decomposition of a design into bands. It also
// pins the pre-solve snapshot every window builds its frozen context from:
// each movable cell at (GX, RowY(assigned row)). Building context from the
// snapshot — never from other windows' results — is what makes each window's
// output independent of solve order, retries, and resume history.
type Plan struct {
	// AssignedRow maps full-design cell ID to its nearest rail-compatible
	// row (-1 for fixed cells).
	AssignedRow []int
	// Bands lists the non-empty windows in ascending row order.
	Bands []Band

	// ids backs every band's Owned list and slots counts cells per band
	// slot; Repartition reuses both. runs and runIDs hold DirtyRuns' result.
	ids, slots, runIDs []int
	runs               []Band
}

// Partition decomposes the design into bands of windowRows owned rows with
// contextRows of frozen margin. Every movable cell is assigned to exactly
// one band via its nearest rail-compatible row (the same rule AssignRows
// uses); a cell with no compatible row is an ErrInfeasibleRow. Bands that
// own no cells are dropped.
func Partition(d *design.Design, windowRows, contextRows int) (*Plan, error) {
	p := new(Plan)
	if err := p.Repartition(d, windowRows, contextRows); err != nil {
		return nil, err
	}
	return p, nil
}

// Repartition rebuilds p in place as Partition(d, windowRows, contextRows),
// reusing p's slices; the bands and owned lists of the previous build are
// overwritten. On error p is left partly rebuilt and must be rebuilt again
// before use.
func (p *Plan) Repartition(d *design.Design, windowRows, contextRows int) error {
	if windowRows < 1 {
		return mclgerr.Invalidf("window: windowRows %d must be at least 1", windowRows)
	}
	if contextRows < 0 {
		return mclgerr.Invalidf("window: contextRows %d must be non-negative", contextRows)
	}
	n := len(d.Cells)
	p.AssignedRow = slices.Grow(p.AssignedRow[:0], n)[:n]
	p.Bands = p.Bands[:0]
	numBands := (len(d.Rows) + windowRows - 1) / windowRows
	count := slices.Grow(p.slots[:0], numBands)[:numBands] // cells each band slot owns
	clear(count)
	p.slots = count
	owned := 0
	for _, c := range d.Cells {
		if c.Fixed {
			p.AssignedRow[c.ID] = -1
			continue
		}
		row := d.NearestCorrectRow(c, c.GY)
		if row < 0 {
			return &mclgerr.StageError{
				Stage: "partition",
				Err:   mclgerr.ErrInfeasibleRow,
				Cells: []int{c.ID},
			}
		}
		p.AssignedRow[c.ID] = row
		count[row/windowRows]++
		owned++
	}
	// Carve every slot's owned list, in ascending ID order, from one array:
	// turn the counts into end offsets, then fill each slot back to front.
	for b := 1; b < numBands; b++ {
		count[b] += count[b-1]
	}
	ids := slices.Grow(p.ids[:0], owned)[:owned]
	p.ids = ids
	for id := n - 1; id >= 0; id-- {
		if row := p.AssignedRow[id]; row >= 0 {
			b := row / windowRows
			count[b]--
			ids[count[b]] = id
		}
	}
	// count[b] is now slot b's start offset.
	for b := 0; b < numBands; b++ {
		end := owned
		if b+1 < numBands {
			end = count[b+1]
		}
		if end == count[b] {
			continue
		}
		band := Band{
			Index: len(p.Bands),
			RowLo: b * windowRows,
			RowHi: min(len(d.Rows), (b+1)*windowRows),
			Owned: ids[count[b]:end:end],
		}
		// The sub-design must cover every owned cell's full span plus the
		// context margin; tall cells near the band top push SubHi up.
		top := band.RowHi
		for _, id := range band.Owned {
			if t := p.AssignedRow[id] + d.Cells[id].RowSpan; t > top {
				top = t
			}
		}
		band.SubLo = max(0, band.RowLo-contextRows)
		band.SubHi = min(len(d.Rows), top+contextRows)
		p.Bands = append(p.Bands, band)
	}
	return nil
}

// Sig content-addresses the plan: a FNV-1a hash of everything a window
// result depends on — core geometry, row structure, every cell's shape and
// global position, fixed placements, the window parameters, and every solver
// option but Workers and OnIter, which never change a placement. Two jobs
// with equal Sig produce bit-identical window results, which is what
// licenses replaying journaled windows across a daemon restart and sharing
// cached window results between jobs.
func Sig(d *design.Design, windowRows, contextRows int, base core.Options) uint64 {
	h := fnv.New64a()
	f := func(v float64) {
		bits := math.Float64bits(v)
		var b [8]byte
		for i := 0; i < 8; i++ {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:])
	}
	i := func(v int) { f(float64(v)) }
	i(windowRows)
	i(contextRows)
	f(base.Lambda)
	f(base.Beta)
	f(base.Theta)
	f(base.Gamma)
	f(base.Eps)
	i(base.MaxIter)
	// The other options enter only when set, each behind its own tag: with
	// defaults the hash covers exactly the six constants above, which keeps
	// default-option journals and ECO logs resumable.
	for tag, v := range []float64{base.ResidualTol, b2f(base.AutoTheta), base.OmegaR,
		b2f(base.ScaledOmegaX), b2f(base.BoundRight), b2f(base.SkipTetris),
		b2f(base.ColdStart), b2f(base.MMSIMOnly)} {
		if v != 0 {
			i(-1 - tag)
			f(v)
		}
	}
	f(d.RowHeight)
	f(d.SiteW)
	f(d.Core.Lo.X)
	f(d.Core.Lo.Y)
	f(d.Core.Hi.X)
	f(d.Core.Hi.Y)
	i(len(d.Rows))
	for _, r := range d.Rows {
		f(r.Y)
		f(r.OriginX)
		f(r.SiteW)
		i(r.NumSites)
		i(int(r.Rail))
	}
	i(len(d.Cells))
	for _, c := range d.Cells {
		f(c.W)
		f(c.H)
		i(c.RowSpan)
		i(int(c.BottomRail))
		f(c.GX)
		f(c.GY)
		if c.Fixed {
			i(1)
			f(c.X)
			f(c.Y)
		} else {
			i(0)
		}
	}
	return h.Sum64()
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
