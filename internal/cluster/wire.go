// Package cluster turns mclgd into a horizontally scalable service: a
// coordinator that accepts jobs on the existing /v1 API, partitions them via
// window.Partition, and routes individual window solves to worker daemons
// over an HTTP/JSON shard protocol. Routing is rendezvous-hashed (virtual
// nodes) on the window's content signature, a shared content-addressed
// result cache is consulted before dispatch, and straggler hedging,
// retry/backoff, and degradation reuse the supervised-solve machinery from
// internal/window unchanged.
//
// The determinism contract carries through: a window's sub-design is a pure
// function of the input design and the partition plan, and its solve is
// bit-deterministic, so the stitched placement is identical to a single-node
// solve regardless of shard count, worker failures, cache hits, or hedge
// outcomes. The coordinator commits only past the whole-design legality
// checker, exactly like the local path.
package cluster

import (
	"fmt"

	"mclg/internal/core"
	"mclg/internal/design"
	"mclg/internal/eco"
	"mclg/internal/mclgerr"
	"mclg/internal/window"
)

// Shard-protocol paths served by a worker daemon.
const (
	// PathSolve accepts one window-solve job (solveRequest → solveResponse).
	PathSolve = "/v1/shard/solve"
	// PathECO hosts ECO sessions on the worker (ecoShardRequest →
	// ecoShardResponse) so interactive sessions can live next to their
	// solver state and migrate between workers via their delta logs.
	PathECO = "/v1/shard/eco"
	// PathDrain flips the worker into draining mode: /readyz turns 503 and
	// new shard solves are refused so coordinators stop routing to it.
	PathDrain = "/v1/shard/drain"
)

// WindowKey is the content address of one window job: the design+options
// signature (window.Sig, which excludes result-neutral knobs like Workers)
// plus the window index. It keys the shared result cache and the rendezvous
// routing, so identical windows — across jobs, retries, and coordinators —
// hash to the same worker and hit the same cache line.
func WindowKey(sig uint64, w int) string {
	return fmt.Sprintf("%016x.w%03d", sig, w)
}

// WireRow is the shard-protocol form of one placement row.
type WireRow struct {
	Y        float64 `json:"y"`
	H        float64 `json:"h"`
	OriginX  float64 `json:"ox"`
	SiteW    float64 `json:"sw"`
	NumSites int     `json:"ns"`
	Rail     int     `json:"r"`
}

// WireCell is the shard-protocol form of one cell. The cell's ID is its
// position in the enclosing list (buildSub re-IDs sub-design cells densely,
// so the index round-trips exactly).
type WireCell struct {
	Name    string  `json:"n,omitempty"`
	W       float64 `json:"w"`
	H       float64 `json:"h"`
	Span    int     `json:"s"`
	Rail    int     `json:"r"`
	GX      float64 `json:"gx"`
	GY      float64 `json:"gy"`
	X       float64 `json:"x"`
	Y       float64 `json:"y"`
	Fixed   bool    `json:"fx,omitempty"`
	Flipped bool    `json:"fl,omitempty"`
}

// WireDesign is the shard-protocol form of a window sub-design. Nets are
// deliberately absent: window solves are displacement-driven and buildSub
// never materializes them. Go's JSON float encoding is shortest-round-trip,
// so Decode(Encode(d)) reproduces every coordinate bit-for-bit — the
// property the cross-machine determinism contract rests on.
type WireDesign struct {
	Name      string     `json:"name"`
	LoX       float64    `json:"lo_x"`
	LoY       float64    `json:"lo_y"`
	HiX       float64    `json:"hi_x"`
	HiY       float64    `json:"hi_y"`
	RowHeight float64    `json:"row_h"`
	SiteW     float64    `json:"site_w"`
	Rows      []WireRow  `json:"rows"`
	Cells     []WireCell `json:"cells"`
}

// EncodeDesign converts a design (typically a window sub-design from
// window.BuildSub) to its wire form.
func EncodeDesign(d *design.Design) *WireDesign {
	wd := &WireDesign{
		Name:      d.Name,
		LoX:       d.Core.Lo.X,
		LoY:       d.Core.Lo.Y,
		HiX:       d.Core.Hi.X,
		HiY:       d.Core.Hi.Y,
		RowHeight: d.RowHeight,
		SiteW:     d.SiteW,
		Rows:      make([]WireRow, len(d.Rows)),
		Cells:     make([]WireCell, len(d.Cells)),
	}
	for i, r := range d.Rows {
		wd.Rows[i] = WireRow{
			Y: r.Y, H: r.Height, OriginX: r.OriginX,
			SiteW: r.SiteW, NumSites: r.NumSites, Rail: int(r.Rail),
		}
	}
	for i, c := range d.Cells {
		wd.Cells[i] = WireCell{
			Name: c.Name, W: c.W, H: c.H, Span: c.RowSpan, Rail: int(c.BottomRail),
			GX: c.GX, GY: c.GY, X: c.X, Y: c.Y, Fixed: c.Fixed, Flipped: c.Flipped,
		}
	}
	return wd
}

// Decode rebuilds the design from its wire form. Structural nonsense is
// rejected with a typed invalid-input error; full geometric validation
// happens in the solver's own Validate gate.
func (wd *WireDesign) Decode() (*design.Design, error) {
	if wd.RowHeight <= 0 || wd.SiteW <= 0 {
		return nil, mclgerr.Invalidf("cluster: wire design %q has row_h=%g site_w=%g", wd.Name, wd.RowHeight, wd.SiteW)
	}
	if len(wd.Rows) == 0 {
		return nil, mclgerr.Invalidf("cluster: wire design %q has no rows", wd.Name)
	}
	d := &design.Design{
		Name:      wd.Name,
		RowHeight: wd.RowHeight,
		SiteW:     wd.SiteW,
	}
	d.Core.Lo.X, d.Core.Lo.Y = wd.LoX, wd.LoY
	d.Core.Hi.X, d.Core.Hi.Y = wd.HiX, wd.HiY
	d.Rows = make([]design.Row, len(wd.Rows))
	for i, r := range wd.Rows {
		if r.Rail != int(design.VSS) && r.Rail != int(design.VDD) {
			return nil, mclgerr.Invalidf("cluster: wire design %q row %d has rail %d", wd.Name, i, r.Rail)
		}
		d.Rows[i] = design.Row{
			Index: i, Y: r.Y, Height: r.H, OriginX: r.OriginX,
			SiteW: r.SiteW, NumSites: r.NumSites, Rail: design.RailType(r.Rail),
		}
	}
	d.Cells = make([]*design.Cell, len(wd.Cells))
	for i, c := range wd.Cells {
		if c.Rail != int(design.VSS) && c.Rail != int(design.VDD) {
			return nil, mclgerr.Invalidf("cluster: wire design %q cell %d has rail %d", wd.Name, i, c.Rail)
		}
		d.Cells[i] = &design.Cell{
			ID: i, Name: c.Name, W: c.W, H: c.H, RowSpan: c.Span,
			BottomRail: design.RailType(c.Rail),
			GX:         c.GX, GY: c.GY, X: c.X, Y: c.Y,
			Fixed: c.Fixed, Flipped: c.Flipped,
		}
	}
	return d, nil
}

// WireOptions is the shard-protocol form of the resolved solver
// configuration: every result-affecting numeric is shipped literally so the
// worker solves the exact problem the coordinator would have. OnIter is a
// process-local callback and never crosses the wire.
type WireOptions struct {
	Lambda       float64 `json:"lambda"`
	Beta         float64 `json:"beta"`
	Theta        float64 `json:"theta"`
	Gamma        float64 `json:"gamma"`
	Eps          float64 `json:"eps"`
	MaxIter      int     `json:"max_iter"`
	ResidualTol  float64 `json:"residual_tol"`
	AutoTheta    bool    `json:"autotheta,omitempty"`
	OmegaR       float64 `json:"omega_r,omitempty"`
	ScaledOmegaX bool    `json:"scaled_omega_x,omitempty"`
	BoundRight   bool    `json:"boundright,omitempty"`
	Workers      int     `json:"workers,omitempty"`
}

// EncodeOptions converts solver options to their wire form.
func EncodeOptions(o core.Options) WireOptions {
	return WireOptions{
		Lambda: o.Lambda, Beta: o.Beta, Theta: o.Theta, Gamma: o.Gamma,
		Eps: o.Eps, MaxIter: o.MaxIter, ResidualTol: o.ResidualTol,
		AutoTheta: o.AutoTheta, OmegaR: o.OmegaR,
		ScaledOmegaX: o.ScaledOmegaX, BoundRight: o.BoundRight,
		Workers: o.Workers,
	}
}

// Decode rebuilds the solver options.
func (wo WireOptions) Decode() core.Options {
	return core.Options{
		Lambda: wo.Lambda, Beta: wo.Beta, Theta: wo.Theta, Gamma: wo.Gamma,
		Eps: wo.Eps, MaxIter: wo.MaxIter, ResidualTol: wo.ResidualTol,
		AutoTheta: wo.AutoTheta, OmegaR: wo.OmegaR,
		ScaledOmegaX: wo.ScaledOmegaX, BoundRight: wo.BoundRight,
		Workers: wo.Workers,
	}
}

// solveRequest is one window-solve job shipped to a worker.
type solveRequest struct {
	// Key is the window's content address (WindowKey); it keys the worker's
	// local result cache.
	Key string `json:"key"`
	// Window is the window index within the job's partition plan.
	Window int `json:"window"`
	// Sub is the window sub-design; Idx maps sub cell index to full-design
	// cell ID (-1 for frozen context cells).
	Sub *WireDesign `json:"sub"`
	Idx []int       `json:"idx"`
	// Opts is the resolved solver configuration.
	Opts WireOptions `json:"opts"`
}

// solveResponse carries a verified window result back.
type solveResponse struct {
	Cells  []window.CellPos `json:"cells"`
	Cached bool             `json:"cached,omitempty"`
	Worker string           `json:"worker,omitempty"`
}

// ecoShardRequest drives a worker-hosted ECO session.
type ecoShardRequest struct {
	// Action is create | apply | export | close. create with a non-empty
	// Batches list is a migration: the session is rebuilt by replaying the
	// batches and verified against WantPosHash before it goes live.
	Action  string `json:"action"`
	Session string `json:"session"`

	// Base is the session's base design (create only).
	Base *WireDesign `json:"base,omitempty"`
	// WindowRows / MarginRows parameterize the dirty-window partition
	// (create only; 0 takes the eco defaults).
	WindowRows int `json:"window_rows,omitempty"`
	MarginRows int `json:"margin_rows,omitempty"`
	// Opts carries the solver knobs (create only; the resilient-rung fields
	// are ignored — eco drives its own cascade).
	Opts *WireOptions `json:"opts,omitempty"`

	// Batches is the delta log to replay on a migrating create.
	Batches []eco.Batch `json:"batches,omitempty"`
	// WantPosHash, when non-empty on a migrating create, must match the
	// replayed session's committed placement hash or the migration fails.
	WantPosHash string `json:"want_pos_hash,omitempty"`

	// Deltas is the batch to apply (apply only).
	Deltas []eco.Delta `json:"deltas,omitempty"`
}

// ecoShardResponse reports a worker-hosted ECO session operation.
type ecoShardResponse struct {
	Session  string `json:"session"`
	Seq      int    `json:"seq"`
	PosHash  string `json:"pos_hash,omitempty"`
	BaseHash string `json:"base_hash,omitempty"`
	Worker   string `json:"worker,omitempty"`

	// Export payload: the base design and the accepted delta log, enough to
	// rebuild the session anywhere via replay.
	Base    *WireDesign `json:"base,omitempty"`
	Batches []eco.Batch `json:"batches,omitempty"`
}

// errorReply is the shard-protocol failure payload, mirroring the /v1 API.
type errorReply struct {
	Error string `json:"error"`
	Class string `json:"class"`
}
