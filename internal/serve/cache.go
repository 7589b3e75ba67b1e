package serve

import (
	"sync"

	"mclg/internal/lru"
	"mclg/internal/serve/report"
)

// flight is one in-progress solve that concurrent identical requests join.
// The leader closes done exactly once after filling rep or err.
type flight struct {
	done chan struct{}
	rep  *report.Report
	err  error
}

// resultCache is a content-addressed LRU of completed results plus
// singleflight semantics: while a key is being solved, identical requests
// wait for the in-flight solve instead of enqueueing a duplicate job. Only
// successful results are cached; a failed flight propagates its error to the
// joined waiters and leaves the cache unchanged, so a transient failure
// (deadline, saturation) does not poison the key. Get serves lookups; hits
// are counted by the handler so dedup-joins and store-hits share one
// meaning: "served without a new solve".
type resultCache struct {
	*lru.Cache[string, *report.Report]

	mu       sync.Mutex // orders joins against completions
	inflight map[string]*flight
}

// newResultCache builds a cache holding up to cap completed results.
// cap <= 0 disables storage (every lookup misses) but dedup still works.
func newResultCache(cap int) *resultCache {
	return &resultCache{
		Cache:    lru.New[string, *report.Report](cap),
		inflight: make(map[string]*flight),
	}
}

// join registers interest in key. The first caller since the last completion
// becomes the leader (leader == true) and must eventually call complete or
// abort exactly once; every other caller gets the existing flight to wait
// on. If the key completed while the caller was deciding, the cached report
// is returned directly (rep != nil).
func (c *resultCache) join(key string) (f *flight, leader bool, rep *report.Report) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if rep, ok := c.Get(key); ok {
		return nil, false, rep
	}
	if f, ok := c.inflight[key]; ok {
		return f, false, nil
	}
	f = &flight{done: make(chan struct{})}
	c.inflight[key] = f
	return f, true, nil
}

// complete publishes the leader's successful result: it is stored in the
// LRU and broadcast to every joined waiter.
func (c *resultCache) complete(key string, f *flight, rep *report.Report) {
	c.mu.Lock()
	f.rep = rep
	delete(c.inflight, key)
	c.Put(key, rep)
	c.mu.Unlock()
	close(f.done)
}

// abort publishes the leader's failure to the joined waiters without
// caching anything.
func (c *resultCache) abort(key string, f *flight, err error) {
	c.mu.Lock()
	f.err = err
	delete(c.inflight, key)
	c.mu.Unlock()
	close(f.done)
}
