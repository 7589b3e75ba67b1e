package audit

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// Certificate is the machine-readable outcome of an audit run. All residuals
// are scale-normalized (divided by Scale = max(1, ‖q‖∞)); SubcellResidual is
// in raw database units. The field set and JSON encoding are stable: Hash is
// a SHA-256 over the canonical JSON with Hash itself blanked, so two runs
// that certify the same result produce byte-identical sealed certificates.
type Certificate struct {
	Design  string `json:"design"`
	Cells   int    `json:"cells"`
	Movable int    `json:"movable"`
	Vars    int    `json:"vars"`
	Cons    int    `json:"cons"`

	// Relaxed-problem optimality (Theorem 2).
	Scale           float64 `json:"scale"`
	Complementarity float64 `json:"complementarity"`
	PrimalInfeas    float64 `json:"primal_infeas"`
	DualInfeas      float64 `json:"dual_infeas"`
	SubcellResidual float64 `json:"subcell_residual"`
	BoundaryCells   int     `json:"boundary_cells"`
	Iterations      int     `json:"iterations"`
	Converged       bool    `json:"converged"`
	Optimal         bool    `json:"optimal"`
	// TheoremTwo reports the paper's precondition for the relaxed optimum
	// to be exact for the original problem: no cell crosses the right
	// boundary (or the exact boundary constraints were in the LCP).
	TheoremTwo bool `json:"theorem_two"`

	// Measured optimality gap — the headline number. RelaxedObjective is
	// the relaxed problem's objective at the tight audit solve, a lower
	// bound on any placement in the order-preserving class Theorem 2
	// certifies; PlacementObjective is the same objective evaluated at the
	// committed production placement. Gap is their normalized difference
	// (placement − relaxed) / placement, clamped to [0, 1]: zero means the
	// production placement provably attains the relaxed optimum, a positive
	// value measures exactly how much the site snapping and repair passes
	// gave up. (A repair pass that reorders cells can leave the
	// order-preserving class; the clamp keeps the gap a conservative
	// distance-to-bound in that case.)
	RelaxedObjective   float64 `json:"relaxed_objective"`
	PlacementObjective float64 `json:"placement_objective"`
	Gap                float64 `json:"gap"`

	// Differential cross-checks.
	Reference *Reference `json:"reference,omitempty"`
	Baselines []Baseline `json:"baselines,omitempty"`

	// Production placement verdict.
	Legal          bool    `json:"legal"`
	ViolationCount int     `json:"violations"`
	Displacement   float64 `json:"displacement_sites"`
	PosHash        string  `json:"pos_hash"`

	Pass bool   `json:"pass"`
	Hash string `json:"hash,omitempty"`
}

// Reference records the differential cross-check of the MMSIM relaxed
// solution against the independent reference solve.
type Reference struct {
	Method string  `json:"method"` // "dense-qp" or "dual-pgs"
	MaxDX  float64 `json:"max_dx"` // max_v |x_mmsim − x_ref| in DBU
	Tol    float64 `json:"tol"`
	Iters  int     `json:"iters"`
	Pass   bool    `json:"pass"`
	Err    string  `json:"err,omitempty"`
}

// Baseline records a quality-sanity comparison against one baseline
// legalizer. Ratio is ours/theirs total displacement (lower is better for
// us); Err marks baselines that could not run on this design.
type Baseline struct {
	Name         string  `json:"name"`
	Displacement float64 `json:"displacement_sites"`
	Ratio        float64 `json:"ratio"`
	Legal        bool    `json:"legal"`
	Pass         bool    `json:"pass"`
	Err          string  `json:"err,omitempty"`
}

// Seal computes and stores the certificate hash. Any later mutation
// invalidates it (Verify detects this).
func (c *Certificate) Seal() error { return seal(c, &c.Hash, "certificate") }

// Verify recomputes the digest and reports whether the stored hash matches.
func (c *Certificate) Verify() bool { return verify(c, &c.Hash, "certificate") }

// seal stores in *hash, the hash field of document v, the digest of v with
// that field blank; on error the field stays blank.
func seal(v any, hash *string, what string) (err error) {
	*hash = ""
	*hash, err = digest(v, what)
	return err
}

// verify reports whether *hash, the hash field of document v, is set and
// equals the digest seal would store. It leaves the field as it was.
func verify(v any, hash *string, what string) bool {
	stored := *hash
	*hash = ""
	h, err := digest(v, what)
	*hash = stored
	return stored != "" && err == nil && h == stored
}

// digest is the hex SHA-256 of v's JSON encoding; what names v in the error.
func digest(v any, what string) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("audit: hashing %s: %w", what, err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// Summary renders the one-line human-readable verdict. The measured gap
// leads: it replaces the old binary optimal/theorem-two verdict as the
// headline number.
func (c *Certificate) Summary() string {
	verdict := "FAIL"
	if c.Pass {
		verdict = "PASS"
	}
	s := fmt.Sprintf("audit %s: %s — gap=%.3g legal=%v optimal=%v compl=%.3g primal=%.3g dual=%.3g subcell=%.3g boundary=%d",
		c.Design, verdict, c.Gap, c.Legal, c.Optimal,
		c.Complementarity, c.PrimalInfeas, c.DualInfeas, c.SubcellResidual, c.BoundaryCells)
	if c.Reference != nil {
		if c.Reference.Err != "" {
			s += fmt.Sprintf(" ref=%s(err)", c.Reference.Method)
		} else {
			s += fmt.Sprintf(" ref=%s|Δx|=%.3g", c.Reference.Method, c.Reference.MaxDX)
		}
	}
	return s
}
