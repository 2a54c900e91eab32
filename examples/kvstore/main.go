// kvstore builds a small ordered key-value store on hot.Map: a workload of
// puts, overwrites, deletes and range queries over URL keys, demonstrating
// that Map accepts arbitrary byte keys (including embedded zero bytes)
// while keeping them in lexicographic order. The store runs in durable
// (write-ahead-logged) mode: every acknowledged put is fsynced before Set
// returns, recovery stats are logged on start, and a SIGINT/SIGTERM closes
// the store cleanly — Ctrl-C at any moment loses nothing, and the next run
// begins where the interrupted one ended.
//
// The second half scales the same store out: the URL keys move into a
// range-sharded concurrent tree (hot.ShardedTree) written by one goroutine
// per shard, scanned across shard boundaries with the merged cursor, and
// persisted as a single multiplexed sharded snapshot.
//
// To serve a store like this over a network instead of in-process, see
// cmd/hot-server: the sharded tree opened durably behind a TCP front end,
// with streaming replication to read-only followers. Its directory holds
// snap.hot (the shard boundary manifest, written once) and, per shard, a
// base file — snap-NNN.hot from a checkpoint or cold-NNN.hot from a
// demotion — plus wal-NNN.log, the shard's writes since that base.
package main

import (
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

func main() {
	// Open the store durably: <dir>/snap.hot is the last checkpoint,
	// <dir>/wal.log the writes since. Recovery = snapshot + log replay,
	// salvaging the longest valid prefix of either if a crash tore them.
	dir := filepath.Join(os.TempDir(), "hot-kvstore")
	// A single-threaded writer gains nothing from a group-commit
	// accumulation window, so leave GroupCommitDelay zero.
	store, info, err := hot.OpenDurableMap(dir, hot.DurableOptions{})
	if err != nil {
		fmt.Println("open durable store:", err)
		os.Exit(1)
	}
	fmt.Printf("recovered %d keys (%d from snapshot, %d log records replayed) from %s\n",
		store.Len(), info.SnapshotEntries, info.WALRecords, dir)
	if info.SnapshotDamage != nil {
		fmt.Printf("   snapshot damage salvaged: %v\n", info.SnapshotDamage)
	}
	if info.WALDamage != nil {
		fmt.Printf("   log tail truncated (%d logs damaged): %v\n", info.WALDamaged, info.WALDamage)
	}

	// Close on SIGINT/SIGTERM: acknowledged writes are already fsynced, so
	// the handler only has to close the log and exit — interrupting the
	// load loop below at any point loses nothing.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigs
		fmt.Printf("\n%v: closing durable store (every acknowledged write is on disk)\n", s)
		if err := store.Close(); err != nil {
			fmt.Println("close:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}()

	rng := rand.New(rand.NewSource(7))

	sections := []string{"articles", "users", "products", "wiki"}
	put := func(k string, v uint64) { store.Set([]byte(k), v) }

	// Load a URL-shaped keyspace. Every put is group-commit fsynced, so
	// this measures durable write latency, not just trie speed.
	const n = 5000
	start := time.Now()
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("/%s/%06d", sections[rng.Intn(len(sections))], rng.Intn(1000000))
		put(k, uint64(i))
	}
	fmt.Printf("loaded %d keys durably in %v (size now %d, log %d bytes)\n",
		n, time.Since(start).Round(time.Millisecond), store.Len(), store.LogSize())

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

	// Checkpoint: fold the log into a fresh snapshot (temp file + fsync +
	// atomic rename) and truncate the log behind it, so the next start
	// replays only what comes after. A crash mid-checkpoint leaves the
	// previous snapshot plus the full log — nothing is lost either way.
	start = time.Now()
	before := store.LogSize()
	if err := store.Checkpoint(); err != nil {
		fmt.Println("checkpoint failed:", err)
		os.Exit(1)
	}
	fmt.Printf("checkpointed %d keys in %v (log %d -> %d bytes)\n",
		store.Len(), time.Since(start).Round(time.Millisecond), before, store.LogSize())

	// ---- Scaling writes: the same keyspace, range-sharded ----
	//
	// hot.Map is single-threaded. To scale writers, move the keys into a
	// hot.ShardedTree: N range partitions, each an independent ROWEX writer
	// and epoch domain, loaded by one goroutine per shard. The tree layer
	// has no key escape, so the URL keys get a NUL terminator to stay
	// prefix-free.
	skeys := make([][]byte, 0, store.Len())
	store.Range(nil, -1, func(k []byte, v uint64) bool {
		skeys = append(skeys, append(append([]byte(nil), k...), 0))
		return true
	})
	loader := func(tid hot.TID, _ []byte) []byte { return skeys[tid] }
	const nShards = 4
	tr := hot.NewShardedTree(loader, nShards, skeys)

	// Route every key once, then give each shard exactly one writer, so no
	// two goroutines ever touch the same synchronization domain.
	buckets := make([][]int, tr.Shards())
	for i, k := range skeys {
		buckets[tr.Shard(k)] = append(buckets[tr.Shard(k)], i)
	}
	start = time.Now()
	var wg sync.WaitGroup
	for s := range buckets {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for _, i := range buckets[s] {
				tr.Insert(skeys[i], hot.TID(i))
			}
		}(s)
	}
	wg.Wait()
	fmt.Printf("sharded: loaded %d keys into %d shards in %v (shard lens:",
		tr.Len(), tr.Shards(), time.Since(start).Round(time.Millisecond))
	for i := 0; i < tr.Shards(); i++ {
		fmt.Printf(" %d", tr.ShardLen(i))
	}
	fmt.Println(")")

	// The merged cursor walks all shards as one globally ordered stream,
	// crossing shard boundaries transparently.
	fmt.Println("first 3 wiki entries via cross-shard cursor:")
	c := tr.Iter([]byte("/wiki/"))
	for i := 0; i < 3 && c.Valid(); i++ {
		fmt.Printf("   %s = %d\n", c.Key()[:len(c.Key())-1], c.TID())
		c.Next()
	}

	// One multiplexed, crash-safe snapshot file persists every shard:
	// manifest section (the boundary table) plus one section per shard.
	ssnap := filepath.Join(os.TempDir(), "hot-kvstore-sharded.hot")
	if err := tr.SnapshotFile(ssnap); err != nil {
		fmt.Println("sharded snapshot failed:", err)
		os.Exit(1)
	}
	re, err := hot.LoadShardedTreeFile(ssnap, loader)
	if err != nil {
		fmt.Println("sharded reload failed:", err)
		os.Exit(1)
	}
	if err := re.Verify(); err != nil {
		fmt.Println("sharded verify failed:", err)
		os.Exit(1)
	}
	sfi, _ := os.Stat(ssnap)
	fmt.Printf("sharded snapshot round-trip: %d keys, %d shards, %d bytes, verified\n",
		re.Len(), re.Shards(), sfi.Size())

	if err := store.Close(); err != nil {
		fmt.Println("close:", err)
		os.Exit(1)
	}
}
