// Package report defines the machine-readable result payload shared by the
// mclgd serving layer and the mclg CLI's -json mode. Both surfaces emit the
// exact same schema, so a sweep harness can switch between "solve locally"
// and "submit to a daemon" without changing its result parser.
package report

import (
	"time"

	"mclg/internal/audit"
	"mclg/internal/core"
	"mclg/internal/design"
	"mclg/internal/metrics"
	"mclg/internal/window"
)

// Placement carries the final cell state as parallel arrays indexed by cell
// ID. It is bit-exact: two reports with equal PosHash carry byte-identical
// placements.
type Placement struct {
	X       []float64 `json:"x"`
	Y       []float64 `json:"y"`
	Flipped []bool    `json:"flipped"`
}

// Report is the result of one legalization run.
type Report struct {
	Design        string `json:"design"`
	Cells         int    `json:"cells"`
	MultiRowCells int    `json:"multi_row_cells"`
	Method        string `json:"method"`

	// Rung and Attempts are set only for resilient runs: the cascade rung
	// that produced the accepted placement and how many rungs ran.
	Rung     string `json:"rung,omitempty"`
	Attempts int    `json:"attempts,omitempty"`

	Iterations int  `json:"iterations"`
	Converged  bool `json:"converged"`

	// NumVars and NumCons size the MMSIM's LCP, and MaxSubcellMismatch is
	// the largest subcell spread restoration found. All three are absent
	// when no MMSIM legalization ran (baselines, windowed runs).
	NumVars            int     `json:"num_vars,omitempty"`
	NumCons            int     `json:"num_cons,omitempty"`
	MaxSubcellMismatch float64 `json:"max_subcell_mismatch,omitempty"`

	// Finish reports the MMSIM's active-set finish: "accepted" or
	// "fallback" (the MMSIM then ran to convergence), with its rounds and
	// PCG iterations. All three are absent when the finish did not run.
	Finish       string `json:"finish,omitempty"`
	FinishRounds int    `json:"finish_rounds,omitempty"`
	FinishPCG    int    `json:"finish_pcg_iters,omitempty"`

	Legal   bool `json:"legal"`
	Illegal int  `json:"illegal"`

	DisplacementSites float64 `json:"displacement_sites"`
	MaxDispSites      float64 `json:"max_disp_sites"`
	AvgDispSites      float64 `json:"avg_disp_sites"`
	HPWL              float64 `json:"hpwl"`
	DeltaHPWL         float64 `json:"delta_hpwl"`

	BuildMS  float64 `json:"build_ms,omitempty"`
	SolveMS  float64 `json:"solve_ms,omitempty"`
	TetrisMS float64 `json:"tetris_ms,omitempty"`
	WallMS   float64 `json:"wall_ms"`

	// PosHash is the FNV-1a placement digest from internal/regress: equal
	// hashes mean bit-identical placements (the determinism contract).
	PosHash string `json:"pos_hash"`

	// Cache reports how a serving layer produced this result: "hit",
	// "miss", or empty for a local run.
	Cache string `json:"cache,omitempty"`

	Warm bool `json:"warm,omitempty"` // always false, so never written; kept only because perfbench/servemix.go reads it

	// Windows carries the fault-containment trace of a windowed run: how
	// the job was partitioned and how many windows were resumed from the
	// journal, retried, hedged, or degraded.
	Windows *window.Stats `json:"windows,omitempty"`

	// Certificate is the sealed audit certificate, present when the run was
	// audited (-audit locally, "audit": true on the wire, or a daemon
	// running with -audit). Its PosHash is the audit re-run's placement
	// digest and must equal the report's own PosHash.
	Certificate *audit.Certificate `json:"certificate,omitempty"`

	Placement *Placement `json:"placement,omitempty"`
}

// SetStats copies an MMSIM legalization's solver figures into the report.
// Both result surfaces (the mclgd serving layer and the mclg CLI) go through
// here so the schemas cannot drift.
func (r *Report) SetStats(st *core.Stats) {
	r.Iterations = st.Iterations
	r.Converged = st.Converged
	r.NumVars, r.NumCons = st.NumVars, st.NumCons
	r.MaxSubcellMismatch = st.MaxSubcellMismatch
	r.Finish = st.Finish.Outcome
	r.FinishRounds = st.Finish.Rounds
	r.FinishPCG = st.Finish.PCG
	r.Illegal = st.Illegal
	r.BuildMS = float64(st.BuildTime) / float64(time.Millisecond)
	r.SolveMS = float64(st.SolveTime) / float64(time.Millisecond)
	r.TetrisMS = float64(st.TetrisTime) / float64(time.Millisecond)
}

// FromDesign measures the design's current placement into a Report. Solver
// statistics (iterations, stage times, rung) are layered on by the caller.
func FromDesign(d *design.Design, method string, wall time.Duration) *Report {
	r := &Report{Method: method}
	r.Measure(d, wall)
	return r
}

// Measure sets every field FromDesign reads off d's placement, and the wall
// time, keeping the solver figures: a stage that moves cells after the solve
// (mclg -refine) re-measures with it.
func (r *Report) Measure(d *design.Design, wall time.Duration) {
	disp := metrics.MeasureDisplacement(d)
	r.Design, r.Cells, r.MultiRowCells = d.Name, len(d.Cells), 0
	for _, c := range d.Cells {
		if c.RowSpan > 1 {
			r.MultiRowCells++
		}
	}
	r.AvgDispSites = 0
	if len(d.Cells) > 0 {
		r.AvgDispSites = disp.TotalSites / float64(len(d.Cells))
	}
	r.Legal = design.IsLegal(d)
	r.DisplacementSites, r.MaxDispSites = disp.TotalSites, disp.MaxSites
	r.HPWL, r.DeltaHPWL = metrics.HPWL(d), metrics.DeltaHPWL(d)
	r.WallMS = float64(wall) / float64(time.Millisecond)
	r.PosHash = design.PositionHash(d)
}

// CapturePlacement snapshots the design's cell state into the report.
func (r *Report) CapturePlacement(d *design.Design) {
	p := &Placement{
		X:       make([]float64, len(d.Cells)),
		Y:       make([]float64, len(d.Cells)),
		Flipped: make([]bool, len(d.Cells)),
	}
	for i, c := range d.Cells {
		p.X[i], p.Y[i], p.Flipped[i] = c.X, c.Y, c.Flipped
	}
	r.Placement = p
}

// ApplyPlacement writes a report's placement back onto a design with the
// same cell count (e.g. the client's locally loaded copy). It returns false
// when the report carries no placement or the sizes disagree.
func (r *Report) ApplyPlacement(d *design.Design) bool {
	p := r.Placement
	if p == nil || len(p.X) != len(d.Cells) || len(p.Y) != len(d.Cells) || len(p.Flipped) != len(d.Cells) {
		return false
	}
	for i, c := range d.Cells {
		c.X, c.Y, c.Flipped = p.X[i], p.Y[i], p.Flipped[i]
	}
	return true
}
