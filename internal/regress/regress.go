// Package regress runs the full legalization pipeline on fixed suite
// benchmarks and reduces the outcome to a small set of metrics pinned by
// committed golden values. The fixture serves two purposes: it freezes the
// quality of results (displacement, ΔHPWL, illegal-cell count, MMSIM
// iteration count, active-set finish effort) so an accidental algorithmic
// change fails loudly, and it
// proves the determinism contract of the parallel hot path — every worker
// count must reproduce the golden metrics and the exact placement hash.
package regress

import (
	"fmt"

	"mclg/internal/core"
	"mclg/internal/design"
	"mclg/internal/gen"
	"mclg/internal/metrics"
)

// Metrics is the golden-pinned summary of one pipeline run. All fields are
// compared exactly: the pipeline is deterministic, so any drift is a real
// behavior change, not noise.
type Metrics struct {
	Cells        int     `json:"cells"`
	Displacement float64 `json:"displacement_sites"`
	DeltaHPWL    float64 `json:"delta_hpwl"`
	Illegal      int     `json:"illegal"`
	Iterations   int     `json:"mmsim_iterations"`
	FinishRounds int     `json:"finish_rounds"`
	FinishPCG    int     `json:"finish_pcg_iters"`
	Converged    bool    `json:"converged"`
	Legal        bool    `json:"legal"`
	// PosHash is an FNV-1a digest of every cell's final (x, y, flipped)
	// state, hex-encoded so JSON round-trips it exactly. Matching hashes
	// mean bit-identical placements.
	PosHash string `json:"pos_hash"`
}

// Run generates the named suite benchmark at the given scale, legalizes it
// with the paper-default options and the given worker count, and returns the
// pinned metrics.
func Run(bench string, scale float64, workers int) (*Metrics, error) {
	e, err := gen.FindEntry(bench)
	if err != nil {
		return nil, err
	}
	d, err := gen.Generate(gen.SuiteSpec(e, scale))
	if err != nil {
		return nil, err
	}
	opts := core.DefaultOptions()
	opts.Workers = workers
	stats, err := core.New(opts).Legalize(d)
	if err != nil {
		return nil, fmt.Errorf("regress: legalizing %s: %w", bench, err)
	}
	disp := metrics.MeasureDisplacement(d)
	return &Metrics{
		Cells:        len(d.Cells),
		Displacement: disp.TotalSites,
		DeltaHPWL:    metrics.DeltaHPWL(d),
		Illegal:      stats.Illegal,
		Iterations:   stats.Iterations,
		FinishRounds: stats.Finish.Rounds,
		FinishPCG:    stats.Finish.PCG,
		Converged:    stats.Converged,
		Legal:        design.IsLegal(d),
		PosHash:      design.PositionHash(d),
	}, nil
}

// PositionHash is design.PositionHash, kept here because perfbench imports
// it. Remove with the next benchmark change (ROADMAP item 9).
func PositionHash(d *design.Design) string { return design.PositionHash(d) }
