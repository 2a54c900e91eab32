package hot

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/hotindex/hot/internal/chaos"
	"github.com/hotindex/hot/internal/tidstore"
)

// asyncFixtureKeys generates n distinct 8-byte keys whose top byte is drawn
// from hotFrac-weighted ranges: hotFrac of the keys land below boundary
// byte 64 (shards 0–1 of a uniform 8-way split), the rest are uniform. The
// returned sample is a *uniform* key table, so the tree's boundaries do NOT
// adapt to the skew — the low shards really are hot.
func asyncFixtureKeys(n int, hotFrac float64, seed int64) (store *tidstore.Store, keys [][]byte, sample [][]byte) {
	rng := rand.New(rand.NewSource(seed))
	store = &tidstore.Store{}
	seen := make(map[uint64]bool, n)
	keys = make([][]byte, 0, n)
	for len(keys) < n {
		v := rng.Uint64() >> 1
		if rng.Float64() < hotFrac {
			v &= (1 << 62) - 1 // top byte in [0, 64): shards 0–1 of a uniform split
		}
		if seen[v] {
			continue
		}
		seen[v] = true
		k := make([]byte, 8)
		binary.BigEndian.PutUint64(k, v)
		store.Add(k)
		keys = append(keys, k)
	}
	sample = make([][]byte, 256)
	for i := range sample {
		b := make([]byte, 8)
		b[0] = byte(i)
		sample[i] = b
	}
	return store, keys, sample
}

// TestAsyncInsertOracle drives async inserts from many workers across shard
// counts and checks the result is oracle-identical to synchronous inserts.
func TestAsyncInsertOracle(t *testing.T) {
	for _, shards := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("s%d", shards), func(t *testing.T) {
			store, keys, sample := asyncFixtureKeys(4000, 0, 7)
			st := NewShardedTree(store.Key, shards, sample)
			const workers = 8
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := w; i < len(keys); i += workers {
						st.InsertAsync(keys[i], TID(i))
					}
				}(w)
			}
			wg.Wait()
			applied, rejected := st.Flush()
			if applied != uint64(len(keys)) || rejected != 0 {
				t.Fatalf("Flush = (%d, %d), want (%d, 0)", applied, rejected, len(keys))
			}
			if st.Len() != len(keys) {
				t.Fatalf("Len = %d, want %d", st.Len(), len(keys))
			}
			for i, k := range keys {
				if tid, ok := st.Lookup(k); !ok || tid != TID(i) {
					t.Fatalf("lookup %x = (%d, %v), want (%d, true)", k, tid, ok, i)
				}
			}
			if err := st.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAsyncZipfHotShard is the skew stress test: 8 workers aim 85% of an
// async insert stream at the two lowest shards of an 8-way tree whose
// boundaries were fixed uniformly, with a yield armed inside the trie's
// write so the hot shards' writer locks are often held by a descheduled
// writer while the others convoy on them. After Flush the contents must be
// oracle-identical and the skew must have landed on the two hot shards.
func TestAsyncZipfHotShard(t *testing.T) {
	const (
		workers = 8
		nKeys   = 24000
	)
	reg := chaos.New(99)
	reg.On(chaos.RowexAfterTraverse, 0.3, chaos.Yield(2))
	reg.Arm()
	defer chaos.Disarm()

	store, keys, sample := asyncFixtureKeys(nKeys, 0.85, 1000)
	st := NewShardedTree(store.Key, 8, sample)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(keys); i += workers {
				st.InsertAsync(keys[i], TID(i))
			}
		}(w)
	}
	wg.Wait()
	applied, rejected := st.Flush()
	if applied != nKeys || rejected != 0 {
		t.Fatalf("Flush = (%d, %d), want (%d, 0)", applied, rejected, nKeys)
	}
	if st.Len() != nKeys {
		t.Fatalf("Len = %d, want %d", st.Len(), nKeys)
	}
	for i, k := range keys {
		if tid, ok := st.Lookup(k); !ok || tid != TID(i) {
			t.Fatalf("lookup %x = (%d, %v), want (%d, true)", k, tid, ok, i)
		}
	}
	if err := st.Verify(); err != nil {
		t.Fatal(err)
	}
	// The skew really concentrated on the two hot shards.
	if hot := st.ShardLen(0) + st.ShardLen(1); hot < nKeys/2 {
		t.Fatalf("hot shards hold %d of %d keys — skew fixture broken", hot, nKeys)
	}
}

// TestAsyncAppliedOnReturn pins the async contract's eager apply: an async
// write is applied before its call returns. Eight goroutines upsert their
// own keys, zipf-skewed and all routed to one shard of eight, with a yield
// armed inside the trie's write so the shard's writer lock is often held by
// a descheduled writer; each looks its key up as soon as UpsertAsync
// returns and must read the TID it just wrote.
func TestAsyncAppliedOnReturn(t *testing.T) {
	reg := chaos.New(41)
	reg.On(chaos.RowexAfterTraverse, 0.3, chaos.Yield(2))
	reg.Arm()
	defer chaos.Disarm()

	store, keys, sample := asyncFixtureKeys(8000, 1, 43)
	st := NewShardedTree(store.Key, 8, sample)
	var hot [][]byte
	var tids [][2]TID // two TIDs per key, so every upsert changes its value
	for i, k := range keys {
		if st.Shard(k) == 0 {
			hot = append(hot, k)
			tids = append(tids, [2]TID{TID(i), store.Add(k)})
		}
	}
	const workers, perW = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			zipf := rand.NewZipf(rand.New(rand.NewSource(int64(w))), 1.2, 1, uint64(len(hot)/workers-1))
			for i := 0; i < perW; i++ {
				ki := w + workers*int(zipf.Uint64()) // worker w's keys only
				tid := tids[ki][i%2]
				st.UpsertAsync(hot[ki], tid)
				if got, ok := st.Lookup(hot[ki]); !ok || got != tid {
					t.Errorf("worker %d op %d: Lookup after UpsertAsync = (%d, %v), want (%d, true)", w, i, got, ok, tid)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if applied, rejected := st.Flush(); applied != workers*perW || rejected != 0 {
		t.Fatalf("Flush = (%d, %d), want (%d, 0)", applied, rejected, workers*perW)
	}
	if err := st.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncOrderingAndRejects pins the documented semantics: per-submitter
// FIFO per key, rejected accounting for duplicate inserts and absent
// deletes, and UpsertAsync never rejecting.
func TestAsyncOrderingAndRejects(t *testing.T) {
	store, keys, sample := asyncFixtureKeys(64, 0, 5)
	st := NewShardedTree(store.Key, 4, sample)

	k := keys[0]
	st.InsertAsync(k, 0) // applies
	st.DeleteAsync(k)    // applies (key present)
	st.InsertAsync(k, 0) // applies again: FIFO per submitter per key
	if applied, rejected := st.Flush(); applied != 3 || rejected != 0 {
		t.Fatalf("Flush = (%d, %d), want (3, 0)", applied, rejected)
	}
	if _, ok := st.Lookup(k); !ok {
		t.Fatal("key absent after insert-delete-insert")
	}

	st.InsertAsync(k, 0)    // duplicate: rejected
	st.DeleteAsync(keys[1]) // absent: rejected
	st.UpsertAsync(k, 0)    // blind overwrite: never rejected
	if applied, rejected := st.Flush(); applied != 6 || rejected != 2 {
		t.Fatalf("Flush = (%d, %d), want (6, 2)", applied, rejected)
	}
	if tid, ok := st.Lookup(k); !ok || tid != 0 {
		t.Fatalf("lookup after UpsertAsync = (%d, %v), want (0, true)", tid, ok)
	}
}

// TestAsyncMixedSyncChurn interleaves synchronous writers, async writers
// and wait-free readers under armed chaos across the rowex fault points —
// the async analogue of the sharded churn test.
func TestAsyncMixedSyncChurn(t *testing.T) {
	reg := chaos.New(17)
	reg.On(chaos.RowexAfterTraverse, 0.02, chaos.Yield(2))
	reg.On(chaos.RowexBetweenLocks, 0.02, chaos.Yield(1))
	reg.On(chaos.RowexBeforeValidate, 0.02, chaos.Yield(1))
	reg.Arm()
	defer chaos.Disarm()

	store, keys, sample := asyncFixtureKeys(4000, 0.7, 23)
	st := NewShardedTree(store.Key, 4, sample)
	const (
		workers = 8
		perW    = 4000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) * 131))
			// Even workers write async, odd workers synchronously; all read.
			for i := 0; i < perW; i++ {
				ki := rng.Intn(len(keys))
				k := keys[ki]
				switch c := rng.Intn(100); {
				case c < 40:
					if w%2 == 0 {
						st.UpsertAsync(k, TID(ki))
					} else {
						st.Upsert(k, TID(ki))
					}
				case c < 60:
					if w%2 == 0 {
						st.DeleteAsync(k)
					} else {
						st.Delete(k)
					}
				default:
					if tid, ok := st.Lookup(k); ok && tid != TID(ki) {
						t.Errorf("lookup %x = %d, want %d", k, tid, ki)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	st.Flush()
	if err := st.Verify(); err != nil {
		t.Fatal(err)
	}
	// Quiescent scan must visit exactly Len() strictly ascending keys.
	var prev []byte
	n := 0
	st.Scan(nil, len(keys)+1, func(tid TID) bool {
		k := store.Key(tid, nil)
		if n > 0 && string(prev) >= string(k) {
			t.Fatalf("scan order violation at %d", n)
		}
		prev = append(prev[:0], k...)
		n++
		return true
	})
	if n != st.Len() {
		t.Fatalf("scan visited %d, Len = %d", n, st.Len())
	}
}

// TestShardWritesTakeNoROWEXLock: a shard has one writer at a time — its
// writer lock, durable or not — so no write to a ShardedTree ever enters
// ROWEX's lock window. Eight goroutines churn sync and async upserts and
// deletes over disjoint key stripes of a four-shard tree with the three
// lock-window chaos points armed to count; none may be reached, nothing
// may restart, and the tree must verify and equal the writers' union
// model.
func TestShardWritesTakeNoROWEXLock(t *testing.T) {
	lockWindow := []chaos.Point{chaos.RowexBetweenLocks, chaos.RowexBeforeValidate, chaos.RowexBeforeUnlock}
	reg := chaos.New(27)
	for _, p := range lockWindow {
		reg.On(p, 1, nil)
	}
	reg.Arm()
	defer chaos.Disarm()

	store, keys, sample := asyncFixtureKeys(4000, 0.7, 29)
	alt := make([]TID, len(keys)) // a second TID per key, so upserts change values
	for i, k := range keys {
		alt[i] = store.Add(k)
	}
	st := NewShardedTree(store.Key, 4, sample)
	const workers = 8
	models := make([]map[int]TID, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		models[w] = map[int]TID{}
		wg.Add(1)
		go func(w int, model map[int]TID) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) * 7))
			// Even workers write async, odd workers synchronously: per-key
			// order holds within each.
			for i := 0; i < 4000; i++ {
				ki := w + workers*rng.Intn(len(keys)/workers)
				tid := TID(ki)
				if rng.Intn(2) == 0 {
					tid = alt[ki]
				}
				switch {
				case rng.Intn(3) == 0:
					delete(model, ki)
					if w%2 == 0 {
						st.DeleteAsync(keys[ki])
					} else {
						st.Delete(keys[ki])
					}
				default:
					model[ki] = tid
					if w%2 == 0 {
						st.UpsertAsync(keys[ki], tid)
					} else {
						st.Upsert(keys[ki], tid)
					}
				}
			}
		}(w, models[w])
	}
	wg.Wait()
	st.Flush()

	for _, p := range lockWindow {
		if n := reg.Hits(p); n != 0 {
			t.Errorf("%s reached %d times by shard writes", p, n)
		}
	}
	if o := st.OpStats(); o.Restarts != 0 || o.ValidationFails != 0 {
		t.Errorf("shard writes restarted: %s", o)
	}
	if err := st.Verify(); err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, model := range models {
		want += len(model)
		for ki, tid := range model {
			if got, ok := st.Lookup(keys[ki]); !ok || got != tid {
				t.Fatalf("key %d: Lookup = (%d, %v), want %d", ki, got, ok, tid)
			}
		}
	}
	if st.Len() != want {
		t.Fatalf("Len = %d, model holds %d", st.Len(), want)
	}
}
