package pager

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hotindex/hot/internal/persist"
)

func page(bytes int) *persist.Page { return &persist.Page{Bytes: bytes} }

func mustGet(t *testing.T, c *Cache, k Key, p *persist.Page) {
	t.Helper()
	got, err := c.Get(k, func() (*persist.Page, error) { return p, nil })
	if err != nil || got != p {
		t.Fatalf("Get(%v) = (%p, %v), want (%p, nil)", k, got, err, p)
	}
}

func TestCacheHitMiss(t *testing.T) {
	c := New(1 << 20)
	p := page(100)
	loads := 0
	load := func() (*persist.Page, error) { loads++; return p, nil }
	for i := 0; i < 3; i++ {
		got, err := c.Get(Key{Shard: 1, Gen: 1, Block: 0}, load)
		if err != nil || got != p {
			t.Fatalf("Get = (%p, %v)", got, err)
		}
	}
	st := c.Stats()
	if loads != 1 || st.Misses != 1 || st.Hits != 2 || st.Pages != 1 || st.Bytes != 100 {
		t.Fatalf("loads=%d stats=%+v, want 1 load, 1 miss, 2 hits", loads, st)
	}
	// A different generation of the same block is a distinct page.
	mustGet(t, c, Key{Shard: 1, Gen: 2, Block: 0}, page(100))
	if st := c.Stats(); st.Misses != 2 || st.Pages != 2 {
		t.Fatalf("stats after gen bump = %+v, want 2 misses, 2 pages", st)
	}
}

func TestCacheEvictsLRU(t *testing.T) {
	c := New(1000)
	for i := 0; i < 4; i++ {
		mustGet(t, c, Key{Block: i}, page(300))
	}
	st := c.Stats()
	if st.Pages != 3 || st.Bytes != 900 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 3 pages / 900 bytes / 1 eviction", st)
	}
	// Block 0 was least recently used — it is the one gone.
	reloaded := false
	c.Get(Key{Block: 0}, func() (*persist.Page, error) { reloaded = true; return page(300), nil })
	if !reloaded {
		t.Fatal("evicted page served from cache")
	}
	// Touching a page saves it: access block 2, then overflow — block 3
	// (now LRU) goes, block 2 stays.
	if _, err := c.Get(Key{Block: 2}, func() (*persist.Page, error) {
		t.Fatal("block 2 should be resident")
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	c.Get(Key{Block: 9}, func() (*persist.Page, error) { return page(300), nil })
	hit := true
	c.Get(Key{Block: 2}, func() (*persist.Page, error) { hit = false; return page(300), nil })
	if !hit {
		t.Fatal("recently touched page was evicted")
	}
}

func TestCacheOversizedPageStays(t *testing.T) {
	// A single page above the whole budget is kept: evicting the only
	// resident page would just guarantee rereading it.
	c := New(100)
	mustGet(t, c, Key{Block: 0}, page(5000))
	if st := c.Stats(); st.Pages != 1 || st.Evictions != 0 {
		t.Fatalf("stats = %+v, want the oversized page resident", st)
	}
	// The next page displaces it.
	mustGet(t, c, Key{Block: 1}, page(50))
	if st := c.Stats(); st.Pages != 1 || st.Bytes != 50 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want the oversized page evicted", st)
	}
}

func TestCacheErrorNotCached(t *testing.T) {
	c := New(1 << 20)
	boom := errors.New("boom")
	if _, err := c.Get(Key{}, func() (*persist.Page, error) { return nil, boom }); err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
	if st := c.Stats(); st.Pages != 0 {
		t.Fatalf("error was cached: %+v", st)
	}
	// The key loads cleanly afterwards.
	mustGet(t, c, Key{}, page(10))
}

// TestCachePanickingLoadReleasesFlight: a load that panics must not
// abandon its flight — waiters get a synthetic error instead of blocking
// on fl.done forever, and the key stays loadable afterwards.
func TestCachePanickingLoadReleasesFlight(t *testing.T) {
	c := New(1 << 20)
	k := Key{Shard: 2, Gen: 3, Block: 4}

	entered := make(chan struct{})
	release := make(chan struct{})
	go func() {
		defer func() { recover() }() // the panic must still propagate to us
		c.Get(k, func() (*persist.Page, error) {
			close(entered)
			<-release
			panic("load blew up")
		})
	}()
	<-entered

	// A waiter joins the in-progress flight, then the load panics: the
	// waiter must return an error rather than hang.
	done := make(chan error, 1)
	go func() {
		_, err := c.Get(k, func() (*persist.Page, error) { return page(10), nil })
		done <- err
	}()
	// Give the waiter a moment to register on the flight before releasing
	// the panic; joining after the flight retires just reloads cleanly, so
	// either interleaving must end with a non-blocked waiter.
	time.Sleep(10 * time.Millisecond)
	close(release)
	select {
	case err := <-done:
		if err != nil && !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("waiter error = %v, want nil (fresh load) or synthetic panic error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter still blocked on the panicked flight")
	}

	// The key left c.loading: a later Get runs a fresh load and succeeds.
	mustGet(t, c, k, page(10))
	if st := c.Stats(); st.Pages != 1 {
		t.Fatalf("stats after recovery = %+v, want the page resident", st)
	}
}

func TestCacheInvalidateShard(t *testing.T) {
	c := New(1 << 20)
	for s := 0; s < 3; s++ {
		for b := 0; b < 4; b++ {
			mustGet(t, c, Key{Shard: s, Gen: 7, Block: b}, page(10))
		}
	}
	c.InvalidateShard(1)
	st := c.Stats()
	if st.Pages != 8 || st.Bytes != 80 {
		t.Fatalf("stats = %+v, want shard 1's 4 pages gone", st)
	}
	for b := 0; b < 4; b++ {
		loaded := false
		c.Get(Key{Shard: 1, Gen: 7, Block: b}, func() (*persist.Page, error) { loaded = true; return page(10), nil })
		if !loaded {
			t.Fatalf("shard 1 block %d survived invalidation", b)
		}
	}
}

func TestCacheSingleflight(t *testing.T) {
	c := New(1 << 20)
	const waiters = 16
	var loads atomic.Int32
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := c.Get(Key{Block: 42}, func() (*persist.Page, error) {
				loads.Add(1)
				<-gate
				return page(10), nil
			})
			if err != nil || p == nil {
				panic(fmt.Sprintf("Get = (%p, %v)", p, err))
			}
		}()
	}
	close(gate)
	wg.Wait()
	// Exactly one load regardless of interleaving: the flight is registered
	// and the page inserted under the same lock, so for a clean key there
	// is never a window with neither present.
	st := c.Stats()
	if loads.Load() != 1 || st.Misses != 1 || st.Hits != waiters-1 {
		t.Fatalf("loads=%d stats=%+v, want exactly 1 load, %d hits", loads.Load(), st, waiters-1)
	}
}
