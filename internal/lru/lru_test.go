package lru

import (
	"fmt"
	"sync"
	"testing"
)

func TestEvictionOrder(t *testing.T) {
	c := New[string, int](3)
	for i, k := range []string{"a", "b", "c"} {
		c.Put(k, i)
	}
	c.Get("a")    // b is now least recently used
	c.Put("c", 9) // replacing bumps c without evicting
	c.Put("d", 3) // evicts b
	c.Put("e", 4) // evicts a (c was touched after it)
	for k, want := range map[string]bool{"a": false, "b": false, "c": true, "d": true, "e": true} {
		if _, ok := c.Get(k); ok != want {
			t.Errorf("Get(%q) present = %v, want %v", k, ok, want)
		}
	}
	if v, _ := c.Get("c"); v != 9 {
		t.Errorf("Get(c) = %d, want the replaced value 9", v)
	}
	if c.Len() != 3 || c.Evictions() != 2 {
		t.Errorf("Len = %d, Evictions = %d; want 3, 2", c.Len(), c.Evictions())
	}
	c.Clear()
	if _, ok := c.Get("c"); ok || c.Len() != 0 || c.Evictions() != 2 {
		t.Errorf("after Clear: Len = %d, Evictions = %d; want 0, 2", c.Len(), c.Evictions())
	}
	c.Put("f", 5)
	if v, ok := c.Get("f"); !ok || v != 5 {
		t.Error("Put after Clear lost the entry")
	}
}

func TestGetOrCreate(t *testing.T) {
	c := New[string, *int](1)
	calls := 0
	mk := func() *int { calls++; return new(int) }
	a := c.GetOrCreate("a", mk)
	if a == nil || c.GetOrCreate("a", mk) != a || calls != 1 {
		t.Fatalf("GetOrCreate must create once and then return the stored value (calls = %d)", calls)
	}
	if b := c.GetOrCreate("b", mk); b == a || c.Evictions() != 1 {
		t.Fatalf("a new key past capacity must create and evict (evictions = %d)", c.Evictions())
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("a survived past capacity")
	}
}

func TestDisabled(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		c := New[string, *int](capacity)
		c.Put("a", new(int))
		if _, ok := c.Get("a"); ok {
			t.Errorf("cap %d: Put stored a value", capacity)
		}
		created := false
		if v := c.GetOrCreate("a", func() *int { created = true; return new(int) }); v != nil || created {
			t.Errorf("cap %d: GetOrCreate = %v (created %v), want nil without creating", capacity, v, created)
		}
		if c.Len() != 0 || c.Evictions() != 0 {
			t.Errorf("cap %d: Len = %d, Evictions = %d; want 0, 0", capacity, c.Len(), c.Evictions())
		}
	}
}

// TestConcurrentGetOrCreate pins the atomicity warm pools rely on: however
// many goroutines race on one key, they all receive the same value.
func TestConcurrentGetOrCreate(t *testing.T) {
	const keys, perKey = 8, 16
	c := New[string, *int](keys)
	got := make([][perKey]*int, keys)
	var wg sync.WaitGroup
	for k := 0; k < keys; k++ {
		for g := 0; g < perKey; g++ {
			wg.Add(1)
			go func(k, g int) {
				defer wg.Done()
				got[k][g] = c.GetOrCreate(fmt.Sprint(k), func() *int { return new(int) })
			}(k, g)
		}
	}
	wg.Wait()
	for k := range got {
		for g := range got[k] {
			if got[k][g] != got[k][0] {
				t.Fatalf("key %d: goroutines received different values", k)
			}
		}
	}
	if c.Len() != keys || c.Evictions() != 0 {
		t.Fatalf("Len = %d, Evictions = %d; want %d, 0", c.Len(), c.Evictions(), keys)
	}
}
