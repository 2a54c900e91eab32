// Package pager implements the fixed-budget LRU page cache behind the
// cold shard tier: snapshot blocks (persist.Page — the verified block as
// stored plus its restart table, accounted by Page.Bytes) keyed by
// (shard, generation, block), with singleflight load deduplication so a
// hot page being faulted by many readers is fetched and verified exactly
// once.
//
// The generation in the key is the invalidation mechanism: promoting a
// shard back to memory, or folding its delta into a fresh section, bumps
// its generation, making every cached page of the old cold image
// unreachable, and InvalidateShard frees them eagerly.
// Evicted pages are not destroyed — readers holding a *Page keep using it
// (pages are immutable); the allocator reclaims them when the last reader
// drops its reference.
package pager

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/hotindex/hot/internal/persist"
)

// Key identifies one cached page.
type Key struct {
	Shard int
	Gen   uint64 // shard's cold generation; bumped at every transition
	Block int
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits      uint64 // Gets served from cache (including singleflight waiters)
	Misses    uint64 // Gets that loaded from disk
	Evictions uint64 // pages evicted to stay within budget
	Bytes     int64  // sum of the resident pages' Page.Bytes right now
	Pages     int    // pages resident right now
}

// entry is one resident page on the intrusive LRU list.
type entry struct {
	key        Key
	page       *persist.Page
	prev, next *entry
}

// flight is one in-progress load other Gets can wait on.
type flight struct {
	done chan struct{}
	page *persist.Page
	err  error
}

// Cache is a budget-bounded LRU over pages. All methods are safe
// for concurrent use; loads run outside the cache lock.
type Cache struct {
	budget int64

	mu      sync.Mutex
	pages   map[Key]*entry
	loading map[Key]*flight
	head    *entry // most recently used
	tail    *entry // least recently used
	bytes   int64

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

// New returns a cache evicting least-recently-used pages once their summed
// Page.Bytes exceeds budget bytes. A budget ≤ 0 selects a small default
// rather than an unbounded cache.
func New(budget int64) *Cache {
	if budget <= 0 {
		budget = 8 << 20
	}
	return &Cache{
		budget:  budget,
		pages:   make(map[Key]*entry),
		loading: make(map[Key]*flight),
	}
}

// Get returns the page under k, loading it via load on a miss. Concurrent
// Gets for the same key share one load (singleflight); waiters count as
// hits — Misses counts actual loads. Load errors are not cached.
func (c *Cache) Get(k Key, load func() (*persist.Page, error)) (*persist.Page, error) {
	c.mu.Lock()
	if e, ok := c.pages[k]; ok {
		c.moveFront(e)
		c.mu.Unlock()
		c.hits.Add(1)
		return e.page, nil
	}
	if fl, ok := c.loading[k]; ok {
		c.mu.Unlock()
		<-fl.done
		if fl.err != nil {
			return nil, fl.err
		}
		c.hits.Add(1)
		return fl.page, nil
	}
	fl := &flight{done: make(chan struct{})}
	c.loading[k] = fl
	c.mu.Unlock()
	c.misses.Add(1)

	// Retire the flight and release its waiters even if load panics: an
	// abandoned flight would block every future Get for this key forever.
	// The panic still propagates; waiters observe a synthetic error.
	loaded := false
	defer func() {
		if !loaded {
			fl.page, fl.err = nil, fmt.Errorf("pager: load of shard %d gen %d block %d panicked", k.Shard, k.Gen, k.Block)
		}
		c.mu.Lock()
		delete(c.loading, k)
		if fl.err == nil {
			e := &entry{key: k, page: fl.page}
			c.pages[k] = e
			c.pushFront(e)
			c.bytes += int64(fl.page.Bytes)
			c.evictLocked()
		}
		c.mu.Unlock()
		close(fl.done)
	}()
	fl.page, fl.err = load()
	loaded = true
	return fl.page, fl.err
}

// InvalidateShard eagerly frees every cached page of shard (any
// generation). Pages of retired generations that are not invalidated are
// merely unreachable and age out through the LRU.
func (c *Cache) InvalidateShard(shard int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, e := range c.pages {
		if k.Shard == shard {
			c.unlink(e)
			delete(c.pages, k)
			c.bytes -= int64(e.page.Bytes)
		}
	}
}

// Stats returns the current counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	bytes, pages := c.bytes, len(c.pages)
	c.mu.Unlock()
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Bytes:     bytes,
		Pages:     pages,
	}
}

// Budget returns the configured byte budget.
func (c *Cache) Budget() int64 { return c.budget }

// evictLocked drops LRU pages until the footprint fits the budget. A
// single page larger than the whole budget is allowed to remain (evicting
// it would only guarantee rereading it).
func (c *Cache) evictLocked() {
	for c.bytes > c.budget && len(c.pages) > 1 {
		e := c.tail
		c.unlink(e)
		delete(c.pages, e.key)
		c.bytes -= int64(e.page.Bytes)
		c.evictions.Add(1)
	}
}

func (c *Cache) pushFront(e *entry) {
	e.prev, e.next = nil, c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *Cache) moveFront(e *entry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}
