// Package lru is the bounded least-recently-used map shared by every cache
// in the repository: the serving layer's result cache and warm store, the
// cluster worker warm pool, the cluster window-result caches and the
// auto-tuner's parameter cache.
package lru

import (
	"container/list"
	"sync"
)

// Cache maps keys to values, holding at most its capacity and evicting the
// least recently used entry past it. A Cache with capacity <= 0 is disabled:
// it stores nothing, Get always misses and GetOrCreate returns the zero
// value without creating one. A Cache is safe for concurrent use.
type Cache[K comparable, V any] struct {
	mu        sync.Mutex
	cap       int
	ll        *list.List // front = most recently used; values are *entry[K, V]
	m         map[K]*list.Element
	evictions uint64
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New builds a cache holding up to capacity entries.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	return &Cache[K, V]{cap: capacity, ll: list.New(), m: make(map[K]*list.Element)}
}

// Get returns the value under key, marking it most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*entry[K, V]).val, true
	}
	var zero V
	return zero, false
}

// Put stores val under key as the most recently used entry, replacing any
// previous value.
func (c *Cache[K, V]) Put(key K, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.put(key, val)
}

// GetOrCreate returns the value under key, storing create() there first if
// the key is absent. The check and the insert are one atomic step, so
// concurrent callers of one key all receive the same value.
func (c *Cache[K, V]) GetOrCreate(key K, create func() V) V {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*entry[K, V]).val
	}
	var val V
	if c.cap > 0 {
		val = create()
		c.put(key, val)
	}
	return val
}

func (c *Cache[K, V]) put(key K, val V) {
	if c.cap <= 0 {
		return
	}
	if el, ok := c.m[key]; ok {
		el.Value.(*entry[K, V]).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.m[key] = c.ll.PushFront(&entry[K, V]{key: key, val: val})
	for c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.m, last.Value.(*entry[K, V]).key)
		c.evictions++
	}
}

// Clear drops every entry; the eviction count is kept.
func (c *Cache[K, V]) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	clear(c.m)
}

// Len reports the number of resident entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Evictions reports how many entries have been dropped past capacity.
func (c *Cache[K, V]) Evictions() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}
