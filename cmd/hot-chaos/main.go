// hot-chaos is the robustness analogue of hot-exp ycsb: instead of measuring
// throughput it tries to break the ROWEX trie. It runs seeded rounds of
// concurrent inserts, upserts, deletes, lookups and ordered scans with the
// fault-injection points of internal/chaos armed — widened lock windows,
// delayed epoch advances, injected pin-slot contention — then verifies the
// full structural-invariant catalog between rounds and reports how many
// injected faults the index survived, alongside the writer-path
// restart/backoff/validation and epoch-contention counters.
//
// With -shards N the same fault pressure is aimed at the range-sharded
// writer path instead: the shard writer lock, the submission queues and
// the shards' epoch domains. A shard runs no ROWEX — its writes are
// serialized by the lock — so the three lock-window points
// (rowex/between-locks, before-validate, before-unlock) are never reached
// and restarts stay 0, while after-traverse (every write) and mid-copy
// (every insert and delete; an upsert of a present key stores its TID in
// place and copies nothing) still fire against wait-free readers. Between
// rounds each shard is verified individually (structural invariants plus
// shard-range containment) while the aggregate Len is checked against a
// full cross-shard scan oracle. Sharded runs additionally route half of
// the mutations through the asynchronous submission-queue path
// (UpsertAsync/DeleteAsync) with the queue-push and writer-handoff fault
// points armed, and Flush the queues before each round's verification.
// They also run over a cold tier: the tree is seeded with every key, a
// tier is armed in a temporary directory and every other shard demoted,
// and a few times a round one worker demotes every other shard again — so
// the workers' upserts and deletes land in cold shards' deltas, a delete of
// a section key as a tombstone, and the re-demotions fold the deltas, all
// under the armed points (the totals' stats line counts demotions,
// promotions and folds). Nothing calls Promote, so a sharded run fails if
// any write promoted a shard.
//
//	hot-chaos -seed 1 -ops 100000          # acceptance run
//	hot-chaos -shards 8                    # sharded writer path
//	hot-chaos -prob 0.05 -workers 16       # heavier fault pressure
//	hot-chaos -disarmed                    # baseline without injections
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hotindex/hot"
	"github.com/hotindex/hot/internal/chaos"
	"github.com/hotindex/hot/internal/tidstore"
)

func main() {
	var (
		seed     = flag.Int64("seed", 1, "PRNG seed for keys, workload and injections")
		ops      = flag.Int("ops", 100_000, "total operations across all rounds")
		nkeys    = flag.Int("keys", 1<<15, "distinct keys in the working set")
		workers  = flag.Int("workers", defaultWorkers(), "concurrent worker goroutines")
		rounds   = flag.Int("rounds", 8, "verification rounds (ops are split across them)")
		prob     = flag.Float64("prob", 0.01, "per-hit injection probability")
		shards   = flag.Int("shards", 0, "run against a range-sharded tree with this many shards (0 = single ConcurrentTree)")
		disarmed = flag.Bool("disarmed", false, "run without arming the injection registry")
	)
	flag.Parse()
	if *ops < 1 || *nkeys < 1 || *workers < 1 || *rounds < 1 {
		fmt.Fprintln(os.Stderr, "hot-chaos: -ops, -keys, -workers and -rounds must be >= 1")
		os.Exit(2)
	}
	if *prob < 0 || *prob > 1 {
		fmt.Fprintln(os.Stderr, "hot-chaos: -prob must be in [0, 1]")
		os.Exit(2)
	}

	store, keys := genKeys(*nkeys, *seed)
	var tr index
	var coldDir string
	if *shards > 0 {
		st := hot.NewShardedTree(store.Key, *shards, keys)
		var err error
		coldDir, err = tierSharded(st, keys)
		if coldDir != "" {
			defer os.RemoveAll(coldDir)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "hot-chaos: arming the cold tier:", err)
			os.Exit(1)
		}
		tr = st
	} else {
		tr = hot.NewConcurrent(store.Key)
	}

	reg := chaos.New(*seed)
	if !*disarmed {
		reg.On(chaos.RowexAfterTraverse, *prob, chaos.Yield(4))
		reg.On(chaos.RowexBetweenLocks, *prob, chaos.Yield(2))
		reg.On(chaos.RowexBeforeValidate, *prob, chaos.Yield(2))
		reg.On(chaos.RowexMidCopy, *prob, chaos.Yield(1))
		reg.On(chaos.RowexBeforeUnlock, *prob, chaos.Yield(1))
		reg.On(chaos.EpochEnter, *prob, chaos.Yield(1))
		reg.On(chaos.EpochAdvance, *prob, chaos.Sleep(50*time.Microsecond))
		reg.On(chaos.ShardQueuePush, *prob, chaos.Yield(2))
		reg.On(chaos.ShardWriterHandoff, *prob, chaos.Yield(2))
		reg.Arm()
		defer chaos.Disarm()
	}

	fmt.Printf("hot-chaos: seed=%d ops=%d keys=%d workers=%d rounds=%d prob=%g shards=%d armed=%v\n",
		*seed, *ops, *nkeys, *workers, *rounds, *prob, *shards, !*disarmed)

	var (
		corruptions int
		scanFaults  atomic.Uint64
		prev        hot.OpStats
		start       = time.Now()
	)
	perRound := *ops / *rounds
	for r := 0; r < *rounds; r++ {
		runRound(tr, store, keys, *workers, perRound, *seed+int64(r)*997, &scanFaults)
		if ai, ok := tr.(asyncIndex); ok {
			ai.Flush() // drain the submission queues before verification
		}
		// All workers joined: the trie is quiescent and must verify clean.
		// On a sharded tree Verify covers every shard's structural
		// invariants plus shard-range containment of every stored key.
		if err := tr.Verify(); err != nil {
			corruptions++
			fmt.Printf("round %d: CORRUPTION: %v\n", r, err)
			continue
		}
		// Quiescent scan oracle: a full ordered scan (shard after shard
		// when sharded) must visit exactly Len() keys, strictly
		// ascending.
		if got, want := oracleScanCount(tr, store, *nkeys), tr.Len(); got != want {
			corruptions++
			fmt.Printf("round %d: CORRUPTION: full scan visited %d keys, Len()=%d\n", r, got, want)
			continue
		}
		st := tr.OpStats()
		fmt.Printf("round %d: len=%d height=%d  %s\n", r, tr.Len(), tr.Height(), st.Sub(prev))
		if sh, ok := tr.(*hot.ShardedTree); ok {
			fmt.Printf("  shard lens:")
			for i := 0; i < sh.Shards(); i++ {
				fmt.Printf(" %d", sh.ShardLen(i))
			}
			fmt.Println()
		}
		prev = st
	}
	if n := scanFaults.Load(); n > 0 {
		corruptions++
		fmt.Printf("scan order violations: %d\n", n)
	}
	sh, sharded := tr.(*hot.ShardedTree)
	if sharded && sh.ColdStats().Promotions > 0 {
		corruptions++
		fmt.Printf("writes promoted shards %d times\n", sh.ColdStats().Promotions)
	}

	elapsed := time.Since(start)
	st := tr.OpStats()
	freed, pending := tr.ReclaimStats()
	fmt.Printf("\ntotals after %.2fs (%.3f mops):\n", elapsed.Seconds(),
		float64(*ops)/elapsed.Seconds()/1e6)
	fmt.Printf("  opstats: %s\n", st)
	if sharded {
		fmt.Printf("  stats: %s\n", sh.Stats())
	}
	fmt.Printf("  reclaim: freed=%d pending=%d\n", freed, pending)
	if !*disarmed {
		fmt.Printf("  survived faults: %d\n", reg.FiredTotal())
		for _, p := range chaos.Points() {
			fmt.Printf("    %-24s hits=%-8d fired=%d\n", p, reg.Hits(p), reg.Fired(p))
		}
	}
	if corruptions > 0 {
		fmt.Printf("FAIL: %d corruption(s) detected\n", corruptions)
		os.RemoveAll(coldDir)
		os.Exit(1)
	}
	fmt.Println("OK: zero corruption errors")
}

// asyncIndex is the submission-queue surface; only hot.ShardedTree
// provides it, so single-tree runs stay all-synchronous.
type asyncIndex interface {
	UpsertAsync(k []byte, tid hot.TID)
	DeleteAsync(k []byte)
	Flush() (applied, rejected uint64)
}

// index is the surface the chaos driver needs; hot.ConcurrentTree and
// hot.ShardedTree both provide it.
type index interface {
	Upsert(k []byte, tid hot.TID) (hot.TID, bool)
	Delete(k []byte) bool
	Lookup(k []byte) (hot.TID, bool)
	Scan(start []byte, max int, fn func(hot.TID) bool) int
	Len() int
	Height() int
	Verify() error
	OpStats() hot.OpStats
	ReclaimStats() (uint64, int64)
}

// oracleScanCount scans the whole index in order, asserting strictly
// ascending keys, and returns the number of entries visited (-1 on an
// order violation). In a quiescent state this must equal Len().
func oracleScanCount(tr index, store *tidstore.Store, nkeys int) int {
	var prev []byte
	count := 0
	ordered := true
	tr.Scan(nil, nkeys+1, func(tid hot.TID) bool {
		got := store.Key(tid, nil)
		if count > 0 && string(prev) >= string(got) {
			ordered = false
			return false
		}
		prev = append(prev[:0], got...)
		count++
		return true
	})
	if !ordered {
		return -1
	}
	return count
}

// defaultWorkers keeps writer interleaving meaningful even on one CPU:
// injected yields force goroutine switches inside the protocol windows, so
// more goroutines than cores still produce real contention.
func defaultWorkers() int {
	if n := runtime.GOMAXPROCS(0); n > 4 {
		return n
	}
	return 4
}

// tierSharded seeds st with every key under its canonical TID, arms a cold
// tier in a fresh temporary directory — returned for removal, also on
// error — and demotes every other shard.
func tierSharded(st *hot.ShardedTree, keys [][]byte) (string, error) {
	for i, k := range keys {
		st.Upsert(k, hot.TID(i))
	}
	dir, err := os.MkdirTemp("", "hot-chaos-cold-")
	if err != nil {
		return "", err
	}
	if err := st.EnableColdTier(hot.ColdTierConfig{Dir: dir}); err != nil {
		return dir, err
	}
	demoteEveryOther(st)
	return dir, nil
}

// demoteEveryOther demotes shards 0, 2, 4, …: a hot one is cut to its
// section, a cold one's delta folded into a fresh one. A failed cut is a
// broken store and panics.
func demoteEveryOther(st *hot.ShardedTree) {
	for s := 0; s < st.Shards(); s += 2 {
		if err := st.Demote(s); err != nil {
			panic(fmt.Sprintf("hot-chaos: demoting shard %d: %v", s, err))
		}
	}
}

// genKeys registers n distinct 8-byte keys in a fresh store.
func genKeys(n int, seed int64) (*tidstore.Store, [][]byte) {
	s := &tidstore.Store{}
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[uint64]bool, n)
	keys := make([][]byte, 0, n)
	for len(keys) < n {
		v := rng.Uint64() >> 1
		if seen[v] {
			continue
		}
		seen[v] = true
		k := make([]byte, 8)
		binary.BigEndian.PutUint64(k, v)
		s.Add(k)
		keys = append(keys, k)
	}
	return s, keys
}

// runRound fires ops operations at the trie from workers goroutines: a
// 45/25/20/10 mix of upserts, deletes, lookups and bounded ordered scans.
// On a sharded tree half the mutations go through the async submission
// queues; upserts always write the key's canonical TID, so sync/async
// reorderings never change a stored value and the lookup probe stays
// valid. Scans double as wait-free-reader integrity probes: observed keys
// must be strictly ascending. On a sharded tree worker 0 also demotes
// every other shard four times a round, each time twice two of its ops
// apart, so the second pass folds the deltas the first one's cold shards
// took meanwhile — and no more often: a fold rewrites the shard's whole
// section.
func runRound(tr index, store *tidstore.Store, keys [][]byte,
	workers, ops int, seed int64, scanFaults *atomic.Uint64) {
	ai, _ := tr.(asyncIndex)
	st, _ := tr.(*hot.ShardedTree)
	var wg sync.WaitGroup
	perWorker := ops / workers
	if perWorker == 0 {
		perWorker = 1
	}
	demoteEvery := perWorker/4 + 1
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)))
			var prevKey []byte
			for i := 0; i < perWorker; i++ {
				if j := i % demoteEvery; st != nil && w == 0 && (j == 0 || j == 2) {
					demoteEveryOther(st)
				}
				ki := rng.Intn(len(keys))
				k := keys[ki]
				switch c := rng.Intn(100); {
				case c < 22 && ai != nil:
					ai.UpsertAsync(k, hot.TID(ki))
				case c < 45:
					tr.Upsert(k, hot.TID(ki))
				case c < 58 && ai != nil:
					ai.DeleteAsync(k)
				case c < 70:
					tr.Delete(k)
				case c < 90:
					if tid, ok := tr.Lookup(k); ok && tid != hot.TID(ki) {
						scanFaults.Add(1)
					}
				default:
					prevKey = prevKey[:0]
					tr.Scan(k, 100, func(tid hot.TID) bool {
						got := store.Key(tid, nil)
						if len(prevKey) > 0 && string(prevKey) >= string(got) {
							scanFaults.Add(1)
							return false
						}
						prevKey = append(prevKey[:0], got...)
						return true
					})
				}
			}
		}(w)
	}
	wg.Wait()
}
