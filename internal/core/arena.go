package core

import (
	"sync"
	"sync/atomic"

	"mclg/internal/lcp"
	"mclg/internal/sparse"
)

// arena is the storage one cold legalization builds: the problem, the
// splitting, the assembled A, q, the GP start s0, the solver workspace (its
// auxiliary buffers serve the active-set finish) and the solution z. Solves
// take one from getArena and rebuild every buffer in place, so a steady
// stream of legalizations allocates only what outgrows the pooled capacity.
//
// Nothing that outlives the call may point into an arena: callers get copies
// of z, and a WarmState, which keeps its splitting (and through it the
// problem), gets a problem, splitting, A and q built into fresh storage.
type arena struct {
	p  Problem
	sp StructuredSplitting
	a  sparse.CSR
	lp lcp.Problem
	ws lcp.Workspace
	q  []float64
	s0 []float64
	z  []float64
}

// arenaSlot holds the most recently released arena in front of arenaPool.
// A sync.Pool keeps each processor's last Put where only that processor can
// Get it, so a solve whose goroutine resumed elsewhere would rebuild its
// arena; the slot serves whichever processor asks next. It keeps at most one
// arena alive across collections.
var (
	arenaSlot atomic.Pointer[arena]
	arenaPool = sync.Pool{New: func() any { return &arena{} }}
)

func getArena() *arena {
	if ar := arenaSlot.Swap(nil); ar != nil {
		return ar
	}
	return arenaPool.Get().(*arena)
}

// release returns ar to the slot, or to the pool when the slot is taken,
// after dropping every pointer into the caller's objects, so a recycled
// arena never keeps a design, a caller's problem or a warm state's matrix
// alive.
func (ar *arena) release() {
	ar.p.D = nil
	ar.sp.p = nil
	ar.lp = lcp.Problem{}
	if !arenaSlot.CompareAndSwap(nil, ar) {
		arenaPool.Put(ar)
	}
}
