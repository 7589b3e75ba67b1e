package recycle_test

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"mclg/internal/recycle"
)

type buf struct {
	held atomic.Bool
	n    int // written without synchronization, so the race detector sees sharing
	data []float64
}

func TestGetOnEmptyPoolReturnsNew(t *testing.T) {
	var p recycle.Pool[buf]
	a, b := p.Get(), p.Get()
	if a == nil || b == nil || a == b {
		t.Fatalf("Get on an empty pool gave %p and %p, want two distinct new values", a, b)
	}
	if a.n != 0 || a.data != nil {
		t.Fatalf("new value is not zero: %+v", a)
	}
}

// TestReleasedValueSurvivesCollections pins the slot: a sync.Pool empties on
// collections, the slot keeps the last release.
func TestReleasedValueSurvivesCollections(t *testing.T) {
	var p recycle.Pool[buf]
	v := p.Get()
	v.data = make([]float64, 1024)
	p.Put(v)
	runtime.GC()
	runtime.GC()
	if got := p.Get(); got != v || len(got.data) != 1024 {
		t.Fatalf("Get after two collections gave %p, want the released %p with its storage", got, v)
	}
}

func TestSlotServesFirst(t *testing.T) {
	var p recycle.Pool[buf]
	a, b := p.Get(), p.Get()
	p.Put(a)
	p.Put(b) // the slot is taken, so b goes to the sync.Pool
	if got := p.Get(); got != a {
		t.Fatalf("Get gave %p, want the slot's %p", got, a)
	}
}

func TestPrimedCycleAllocatesNothing(t *testing.T) {
	var p recycle.Pool[buf]
	p.Put(p.Get())
	allocs := testing.AllocsPerRun(100, func() {
		v := p.Get()
		v.n++
		p.Put(v)
	})
	if allocs != 0 {
		t.Fatalf("primed Get/Put cycle allocates %v per run, want 0", allocs)
	}
}

// TestConcurrentGetsAreExclusive has goroutines cycle values through one
// pool: no value may be held by two of them at once. Under -race the
// unsynchronized write to n also trips the detector if one is.
func TestConcurrentGetsAreExclusive(t *testing.T) {
	var p recycle.Pool[buf]
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 2000; k++ {
				v := p.Get()
				if !v.held.CompareAndSwap(false, true) {
					t.Error("Get handed out a value another goroutine holds")
					return
				}
				v.n++
				if k%7 == 0 {
					runtime.Gosched()
				}
				v.held.Store(false)
				p.Put(v)
			}
		}()
	}
	wg.Wait()
}

func TestGrow(t *testing.T) {
	b := make([]int, 3, 10)
	b[0] = 7
	if g := recycle.Grow(b, 8); len(g) != 8 || &g[0] != &b[0] || g[0] != 7 {
		t.Fatalf("Grow within capacity gave len %d, want 8 on the same storage", len(g))
	}
	if g := recycle.Grow(b, 2); len(g) != 2 || &g[0] != &b[0] {
		t.Fatalf("Grow to a shorter length gave len %d, want 2 on the same storage", len(g))
	}
	g := recycle.Grow(b, 11)
	if len(g) != 11 || cap(g) != 11 || &g[0] == &b[0] || g[0] != 0 {
		t.Fatalf("Grow past capacity gave len %d cap %d, want exactly 11 of new zeroed storage", len(g), cap(g))
	}
	if g := recycle.Grow[int](nil, 0); len(g) != 0 {
		t.Fatalf("Grow(nil, 0) gave len %d", len(g))
	}
}
