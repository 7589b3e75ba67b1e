package core

import (
	"mclg/internal/lcp"
	"mclg/internal/recycle"
	"mclg/internal/sparse"
)

// arena is the storage one legalization builds: the problem, the splitting,
// the assembled A, q, the GP start s0 and the solver workspace, whose
// iterate holds the solution z and whose auxiliary buffers serve the
// active-set finish. Solves take one from arenas and rebuild every buffer
// in place, so a steady stream of legalizations allocates only what outgrows
// the pooled capacity.
//
// Nothing that outlives the call may point into an arena: callers get copies
// of z.
type arena struct {
	p  Problem
	sp StructuredSplitting
	a  sparse.CSR
	lp lcp.Problem
	ws lcp.Workspace
	q  []float64
	s0 []float64
}

// arenas recycles the legalizations' arenas.
var arenas recycle.Pool[arena]

// release returns ar to arenas after dropping every pointer into the
// caller's objects, so a recycled arena never keeps a design or a caller's
// problem alive.
func (ar *arena) release() {
	ar.p.D = nil
	ar.sp.p = nil
	arenas.Put(ar)
}
