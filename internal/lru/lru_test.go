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
}

func TestDisabled(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		c := New[string, *int](capacity)
		c.Put("a", new(int))
		if _, ok := c.Get("a"); ok {
			t.Errorf("cap %d: Put stored a value", capacity)
		}
		if c.Len() != 0 || c.Evictions() != 0 {
			t.Errorf("cap %d: Len = %d, Evictions = %d; want 0, 0", capacity, c.Len(), c.Evictions())
		}
	}
}

// TestConcurrentPutGet races Put, Get and Len from 16 goroutines on each of
// 8 keys, so that -race sees every path through the mutex. Each goroutine
// stores its own pointer; every read must return one of the pointers stored
// under that key, and the cache must end with all 8 keys and no eviction.
func TestConcurrentPutGet(t *testing.T) {
	const keys, perKey = 8, 16
	c := New[string, *int](keys)
	vals := make([][perKey]*int, keys)
	for k := range vals {
		for g := range vals[k] {
			vals[k][g] = new(int)
		}
	}
	stored := func(k int, v *int) bool {
		for _, p := range vals[k] {
			if p == v {
				return true
			}
		}
		return false
	}
	var wg sync.WaitGroup
	for k := 0; k < keys; k++ {
		for g := 0; g < perKey; g++ {
			wg.Add(1)
			go func(k, g int) {
				defer wg.Done()
				key := fmt.Sprint(k)
				c.Put(key, vals[k][g])
				if v, ok := c.Get(key); !ok || !stored(k, v) {
					t.Errorf("key %d: Get = %v, %v after a Put", k, v, ok)
				}
				if n := c.Len(); n < 1 || n > keys {
					t.Errorf("Len = %d, want 1..%d", n, keys)
				}
			}(k, g)
		}
	}
	wg.Wait()
	for k := 0; k < keys; k++ {
		if v, ok := c.Get(fmt.Sprint(k)); !ok || !stored(k, v) {
			t.Errorf("key %d: Get = %v, %v after every Put", k, v, ok)
		}
	}
	if c.Len() != keys || c.Evictions() != 0 {
		t.Fatalf("Len = %d, Evictions = %d; want %d, 0", c.Len(), c.Evictions(), keys)
	}
}
