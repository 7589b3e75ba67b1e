// Package recycle is the per-call storage policy shared by every pooled
// scratch in the repository: the solve arena in core, design.CommitLegal's
// working copy, Tetris's scratch, the legality checker's sweep, and the
// /v1/legalize body buffer and parse storage.
package recycle

import (
	"sync"
	"sync/atomic"
)

// Pool recycles values of T. It is a sync.Pool with a one-value slot in
// front: a sync.Pool keeps each processor's last Put where only that
// processor can Get it and empties on collections, so a caller whose
// goroutine resumed on another processor, or that follows a collection,
// would build new storage; the slot serves whichever processor asks next
// and keeps at most one value alive across collections. Concurrent callers
// take distinct values from the pool. The zero Pool is ready to use and
// must not be copied after first use.
type Pool[T any] struct {
	slot atomic.Pointer[T]
	pool sync.Pool
}

// Get returns the slot's value, else one from the pool, else new(T). Its
// contents are whatever its last holder left.
func (p *Pool[T]) Get() *T {
	if v := p.slot.Swap(nil); v != nil {
		return v
	}
	if v, _ := p.pool.Get().(*T); v != nil {
		return v
	}
	return new(T)
}

// Put releases v: into the slot when it is empty, else into the pool. The
// caller must not use v afterwards, and should first drop v's pointers into
// objects that must not outlive the call.
func (p *Pool[T]) Put(v *T) {
	if !p.slot.CompareAndSwap(nil, v) {
		p.pool.Put(v)
	}
}

// Grow returns buf re-sliced to length n, allocating exactly n when its
// capacity is short; the contents are unspecified unless the storage is new.
func Grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
