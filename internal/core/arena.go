package core

import (
	"sync"
	"sync/atomic"

	"mclg/internal/lcp"
	"mclg/internal/sparse"
)

// arena is the storage one legalization builds: the problem, the splitting,
// the assembled A, q, the GP start s0 and the solver workspace, whose
// iterate holds the solution z and whose auxiliary buffers serve the
// active-set finish. Solves take one from getArena and rebuild every buffer
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
// arena never keeps a design or a caller's problem alive.
func (ar *arena) release() {
	ar.p.D = nil
	ar.sp.p = nil
	if !arenaSlot.CompareAndSwap(nil, ar) {
		arenaPool.Put(ar)
	}
}

// grow returns buf re-sliced (and if needed re-allocated) to length n; the
// contents are unspecified unless the storage is new.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
