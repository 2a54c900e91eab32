// kvstore builds a small ordered key-value store, twice over.
//
// The first half is hot.Map: a workload of puts, overwrites, deletes and
// range queries over URL keys, demonstrating that Map accepts arbitrary
// byte keys (including embedded zero bytes) while keeping them in
// lexicographic order. It persists by snapshot — hot.SaveFile at the end of
// a run (temp file, fsync, atomic rename), a salvaging hot.Load at the
// start of the next, which keeps the longest valid prefix should the file
// be damaged.
//
// The second half is the durable store: the same keys in a range-sharded
// concurrent tree opened with hot.OpenDurableShardedTree, so every write
// goes to its shard's write-ahead log and the next run begins where this
// one ended — after a clean exit, a Ctrl-C or a crash. The tree maps keys
// to TIDs and resolves TIDs back to keys through a Loader; the example owns
// that TID→key table and keeps no file for it: DurableOptions.RecoverEntry
// hands every recovered (key, TID) pair back during the open. One goroutine
// per shard submits the load asynchronously, a single Flush acknowledges
// it, and Checkpoint cuts each shard's base and truncates its log.
//
// To serve a store like this over a network instead of in-process, see
// cmd/hot-server: the same durable open behind a TCP front end (its key
// table, internal/server.KeyMap, is rebuilt the same way), with streaming
// replication to read-only followers. The directory holds snap.hot (the
// shard boundary manifest, written once) and, per shard, one base file,
// snap-NNN.hot — written by a checkpoint or a demotion alike, with a block
// index, so a reopen with DurableOptions.ColdTier can serve the shard from
// it instead of loading it — plus wal-NNN.log, the shard's writes since
// that base.
package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	hot "github.com/hotindex/hot"
)

// keyTable is the durable store's TID→key table: the tree's Loader, and
// the inverse of the tree. It is written only while one goroutine runs —
// by RecoverEntry during the open, by add before the writers start — and
// read by every shard afterwards.
type keyTable struct {
	keys map[hot.TID][]byte
	next hot.TID
}

// bind records key as tid's key (DurableOptions.RecoverEntry).
func (kt *keyTable) bind(key []byte, tid hot.TID) error {
	kt.keys[tid] = append([]byte(nil), key...)
	if tid >= kt.next {
		kt.next = tid + 1
	}
	return nil
}

// add binds key to the next free TID.
func (kt *keyTable) add(key []byte) hot.TID {
	tid := kt.next
	_ = kt.bind(key, tid) // bind rejects nothing
	return tid
}

// key is the hot.Loader.
func (kt *keyTable) key(tid hot.TID, _ []byte) []byte { return kt.keys[tid] }

func fail(what string, err error) {
	fmt.Println(what+":", err)
	os.Exit(1)
}

func main() {
	// Reopen the last run's map, or start empty on the first run.
	mapFile := filepath.Join(os.TempDir(), "hot-kvstore-map.hot")
	store := hot.NewMap()
	var rep hot.RecoveryReport
	f, err := os.Open(mapFile)
	if err == nil {
		rep, err = hot.Load(f, store, true)
		f.Close()
	}
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		fail("open map snapshot", err)
	}
	fmt.Printf("recovered %d keys from %s\n", store.Len(), mapFile)
	if rep.Damage != nil {
		fmt.Printf("   snapshot damage salvaged: %v\n", rep.Damage)
	}

	rng := rand.New(rand.NewSource(7))

	sections := []string{"articles", "users", "products", "wiki"}
	put := func(k string, v uint64) { store.Set([]byte(k), v) }

	// Load a URL-shaped keyspace.
	const n = 5000
	start := time.Now()
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("/%s/%06d", sections[rng.Intn(len(sections))], rng.Intn(1000000))
		put(k, uint64(i))
	}
	fmt.Printf("loaded %d keys in %v (size now %d)\n",
		n, time.Since(start).Round(time.Millisecond), store.Len())

	// Binary keys with embedded zeros work too.
	put("session\x00binary\x00key", 424242)
	if v, ok := store.Get([]byte("session\x00binary\x00key")); ok {
		fmt.Println("binary key roundtrip:", v)
	}

	// Overwrite and delete.
	put("/users/000042", 1)
	put("/users/000042", 2)
	if v, _ := store.Get([]byte("/users/000042")); v != 2 {
		panic("overwrite failed")
	}
	store.Delete([]byte("/users/000042"))

	// Range query: first 5 entries of the /products/ section.
	fmt.Println("first 5 products:")
	store.Range([]byte("/products/"), 5, func(k []byte, v uint64) bool {
		fmt.Printf("   %s = %d\n", k, v)
		return true
	})

	// Count keys per section with bounded ranges.
	for _, sec := range sections {
		count := 0
		store.Range([]byte("/"+sec+"/"), -1, func(k []byte, v uint64) bool {
			if string(k[:len(sec)+2]) != "/"+sec+"/" {
				return false // left the section
			}
			count++
			return true
		})
		fmt.Printf("section %-9s %6d keys\n", sec, count)
	}

	// Persist: one crash-safe snapshot file. A crash mid-save leaves the
	// previous file intact; what a Map cannot promise is the writes since
	// its last save — that is what the durable store below is for.
	if err := hot.SaveFile(mapFile, store); err != nil {
		fail("save map snapshot", err)
	}
	mfi, _ := os.Stat(mapFile)
	fmt.Printf("saved %d keys to %s (%d bytes)\n", store.Len(), mapFile, mfi.Size())

	// ---- The durable store: the same keyspace, range-sharded and logged ----
	//
	// hot.Map is single-threaded and durable only at its saves. A
	// hot.ShardedTree opened durably is neither: N range partitions, each
	// an independent writer with its own write-ahead log. The tree layer
	// has no key escape, so the keys get a NUL terminator to stay
	// prefix-free.
	skeys := make([][]byte, 0, store.Len())
	store.Range(nil, -1, func(k []byte, v uint64) bool {
		skeys = append(skeys, append(append([]byte(nil), k...), 0))
		return true
	})
	// Recovery = per shard, its base file plus a replay of its log,
	// salvaging the longest valid prefix of either if a crash tore them.
	// The sample seeds the shard boundaries on the first open only.
	const nShards = 4
	table := &keyTable{keys: make(map[hot.TID][]byte)}
	dir := filepath.Join(os.TempDir(), "hot-kvstore-durable")
	tr, info, err := hot.OpenDurableShardedTree(dir, table.key, nShards, skeys,
		hot.DurableOptions{RecoverEntry: table.bind})
	if err != nil {
		fail("open durable store", err)
	}
	fmt.Printf("durable: recovered %d keys (%d from shard bases, %d log records replayed) from %s\n",
		tr.Len(), info.SnapshotEntries, info.WALRecords, dir)
	if info.SnapshotDamage != nil {
		fmt.Printf("   base damage salvaged: %v\n", info.SnapshotDamage)
	}
	if info.WALDamage != nil {
		fmt.Printf("   log tail truncated (%d logs damaged): %v\n", info.WALDamaged, info.WALDamage)
	}
	// Close makes every applied write durable, so SIGINT/SIGTERM only has
	// to stop the writers: they quit at their next key and main closes the
	// store — Ctrl-C at any moment loses nothing that was submitted.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	closeStore := func() {
		if err := tr.Close(); err != nil {
			fail("close", err)
		}
	}

	// Give every key the store does not hold yet a TID, route it once, then
	// give each shard exactly one writer, so no two goroutines ever touch
	// the same synchronization domain or the same log.
	buckets := make([][]hot.TID, tr.Shards())
	fresh := 0
	for _, k := range skeys {
		if _, ok := tr.Lookup(k); !ok {
			s := tr.Shard(k)
			buckets[s] = append(buckets[s], table.add(k))
			fresh++
		}
	}
	// An async write is logged and applied at once and owes its fsync to
	// the next barrier; Flush is that barrier, and it is the
	// acknowledgement: one overlapped fsync per shard for the whole load.
	start = time.Now()
	var wg sync.WaitGroup
	for s := range buckets {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for _, tid := range buckets[s] {
				if ctx.Err() != nil {
					return
				}
				tr.InsertAsync(table.keys[tid], tid)
			}
		}(s)
	}
	wg.Wait()
	tr.Flush()
	if ctx.Err() != nil {
		fmt.Println("\ninterrupted: closing durable store (every submitted write is on disk)")
		closeStore()
		return
	}
	fmt.Printf("durable: %d new keys into %d shards in %v (log %d bytes, shard lens:",
		fresh, tr.Shards(), time.Since(start).Round(time.Millisecond), tr.LogSize())
	for i := 0; i < tr.Shards(); i++ {
		fmt.Printf(" %d", tr.ShardLen(i))
	}
	fmt.Println(")")

	// A synchronous write is durable when it returns.
	if tid, ok := tr.Lookup(skeys[0]); ok {
		tr.Delete(skeys[0])
		tr.Insert(skeys[0], tid)
	}

	// The cursor walks the shards one after the next as one globally
	// ordered stream, crossing shard boundaries transparently.
	fmt.Println("first 3 wiki entries via cross-shard cursor:")
	c := tr.Iter([]byte("/wiki/"))
	for i := 0; i < 3 && c.Valid(); i++ {
		fmt.Printf("   %s = %d\n", c.Key()[:len(c.Key())-1], c.TID())
		c.Next()
	}

	// Checkpoint: cut every shard that logged since its last cut — its
	// trie streamed to its indexed snap-NNN.hot (temp file + fsync +
	// atomic rename), its log truncated behind it — so the next start
	// replays only what comes after. A crash mid-checkpoint leaves each
	// shard with its previous base plus its full log — nothing is lost
	// either way.
	start = time.Now()
	before := tr.LogSize()
	if err := tr.Checkpoint(); err != nil {
		fail("checkpoint", err)
	}
	fmt.Printf("checkpointed %d keys in %v (log %d -> %d bytes)\n",
		tr.Len(), time.Since(start).Round(time.Millisecond), before, tr.LogSize())
	if err := tr.Verify(); err != nil {
		fail("verify", err)
	}
	closeStore()
}
