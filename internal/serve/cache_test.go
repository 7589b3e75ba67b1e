package serve

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"mclg/internal/serve/report"
)

func rep(name string) *report.Report { return &report.Report{Design: name} }

func TestCacheLRUEviction(t *testing.T) {
	c := newResultCache(2)
	for _, k := range []string{"a", "b"} {
		f, leader, _ := c.join(k)
		if !leader {
			t.Fatalf("join(%q): expected leadership", k)
		}
		c.complete(k, f, rep(k))
	}
	// Touch "a" so "b" is the LRU victim when "c" arrives.
	if _, ok := c.Get("a"); !ok {
		t.Fatal("lookup(a) missed")
	}
	f, _, _ := c.join("c")
	c.complete("c", f, rep("c"))

	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s should be resident", k)
		}
	}
	entries, evictions := c.Len(), c.Evictions()
	if entries != 2 || evictions != 1 {
		t.Errorf("entries=%d evictions=%d, want 2, 1", entries, evictions)
	}
}

func TestCacheJoinDedupsConcurrentLeaders(t *testing.T) {
	c := newResultCache(8)
	const n = 16
	var leaders int32
	var mu sync.Mutex
	var wg sync.WaitGroup
	results := make([]*report.Report, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f, leader, cached := c.join("k")
			if cached != nil {
				results[i] = cached
				return
			}
			if leader {
				mu.Lock()
				leaders++
				mu.Unlock()
				c.complete("k", f, rep("solved"))
				results[i] = f.rep
				return
			}
			<-f.done
			results[i] = f.rep
		}(i)
	}
	wg.Wait()
	if leaders != 1 {
		t.Fatalf("leaders = %d, want exactly 1", leaders)
	}
	for i, r := range results {
		if r == nil || r.Design != "solved" {
			t.Fatalf("result[%d] = %+v, want the shared solve", i, r)
		}
	}
}

func TestCacheAbortDoesNotPoison(t *testing.T) {
	c := newResultCache(8)
	f, leader, _ := c.join("k")
	if !leader {
		t.Fatal("expected leadership")
	}
	boom := errors.New("boom")
	waiterErr := make(chan error, 1)
	f2, leader2, _ := c.join("k")
	if leader2 {
		t.Fatal("second join must not lead while a flight is up")
	}
	go func() {
		<-f2.done
		waiterErr <- f2.err
	}()
	c.abort("k", f, boom)
	if err := <-waiterErr; !errors.Is(err, boom) {
		t.Fatalf("waiter error = %v, want boom", err)
	}
	// The failure is not cached: the next join leads again.
	if _, leader3, cached := c.join("k"); !leader3 || cached != nil {
		t.Fatal("abort must leave the key solvable")
	}
	if entries := c.Len(); entries != 0 {
		t.Fatalf("entries = %d after abort, want 0", entries)
	}
}

func TestCacheDisabledStillDedups(t *testing.T) {
	c := newResultCache(-1)
	f, leader, _ := c.join("k")
	if !leader {
		t.Fatal("expected leadership")
	}
	c.complete("k", f, rep("x"))
	if _, ok := c.Get("k"); ok {
		t.Error("disabled cache must not store results")
	}
	if entries := c.Len(); entries != 0 {
		t.Error("disabled cache reported entries")
	}
}

func TestCacheCapacityOne(t *testing.T) {
	c := newResultCache(1)
	for i := 0; i < 5; i++ {
		k := fmt.Sprintf("k%d", i)
		f, _, _ := c.join(k)
		c.complete(k, f, rep(k))
	}
	entries, evictions := c.Len(), c.Evictions()
	if entries != 1 || evictions != 4 {
		t.Errorf("entries=%d evictions=%d, want 1, 4", entries, evictions)
	}
	if _, ok := c.Get("k4"); !ok {
		t.Error("most recent entry should survive")
	}
}
