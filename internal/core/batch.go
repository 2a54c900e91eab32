package core

import (
	"encoding/binary"
	"slices"
	"sync"

	"github.com/hotindex/hot/internal/epoch"
	"github.com/hotindex/hot/internal/key"
)

// Batched lookups. A single lookup's descent is a chain of dependent
// loads — node header, partial keys, slot, child — so every cache miss
// serializes. A batched lookup keeps up to batchLanes independent descents
// in flight and advances them one node per round. Each round makes three
// passes over the live lanes, each pass issuing one load per lane back to
// back: touch every lane's node and the first word of its partial keys,
// then search every node (now cache-resident), then load every lane's slot
// and step to the child or resolve the TID. Within a pass no lane's load
// waits on another's, so the out-of-order window holds all the lanes'
// misses at once — the Go-portable form of software prefetching, the
// remedy the Cuckoo Trie applies to DRAM-bound probes.
//
// Every lane carries its own trie: one batch may descend many tries at
// once (LookupBatchAcross), which is how a sharded index runs a single
// batch across all its shards instead of one short batch per shard.

// batchLanes is the number of descents a batched lookup keeps in flight
// per round. Larger values expose more memory-level parallelism until the
// out-of-order window and the load buffers saturate; 32 measured best on
// the DRAM-bound 1M-key lookup benchmark (16 left ~15% on the table).
const batchLanes = 32

// batchState is the reusable scratch of a batched lookup: every key's
// trie, the live lanes' descent frontier, the epoch guards the call holds
// and a key-load buffer for the final false-positive checks. Trie keeps
// one (steady-state batched lookups allocate nothing, and found is the
// mask it hands back); the concurrent entries draw from a pool.
type batchState struct {
	trees []*tree // per key: the trie it is looked up in, nil to skip it
	// The live lanes, compacted after every round: each lane's key index,
	// current node and search result in that node.
	lane  [batchLanes]int
	nodes [batchLanes]*node
	idx   [batchLanes]int
	// chunk holds the key indices of the lanes seeded together, for the
	// final false-positive checks.
	chunk [batchLanes]int
	// guards are the epoch guards of the tries a call pinned, released
	// when it returns.
	guards []epoch.Guard
	buf    []byte
	found  []bool
	// sink absorbs the touch pass's loads so the compiler keeps them.
	sink uint64
}

// batchStatePool feeds the concurrent entries, which cannot pin per-trie
// scratch (calls may race).
var batchStatePool = sync.Pool{New: func() any { return new(batchState) }}

// checkBatch panics unless out and found can hold n answers.
func checkBatch(n int, out []TID, found []bool) {
	if len(out) < n || len(found) < n {
		panic("core: LookupBatch out slice shorter than keys")
	}
}

// every points each of n keys at trie tr.
func (st *batchState) every(tr *tree, n int) {
	st.trees = slices.Grow(st.trees[:0], n)[:n]
	for i := range st.trees {
		st.trees[i] = tr
	}
}

// foundSlice returns the reusable found mask resized to n.
func (st *batchState) foundSlice(n int) []bool {
	if cap(st.found) < n {
		st.found = make([]bool, n)
	}
	st.found = st.found[:n]
	return st.found
}

// release drops the call's trie references, so a pooled state keeps no
// trie alive.
func (st *batchState) release() {
	clear(st.trees)
	clear(st.guards)
	st.guards = st.guards[:0]
}

// lookup resolves keys[i] in st.trees[i] into out[i] and found[i] for
// every i whose trie is not nil (out[i] is 0 for an absent key); a key
// without a trie is left as it was. Lanes start at their tries' roots,
// loaded when the lane is seeded; in-place child and TID stores still
// reach a descent, so each answer is a value its key held during the call.
// The caller holds whatever epoch guards the tries need.
func (st *batchState) lookup(keys [][]byte, out []TID, found []bool) {
	if st.buf == nil {
		st.buf = make([]byte, 0, 64)
	}
	trees := st.trees
	for next := 0; next < len(keys); {
		// Seed up to batchLanes lanes; a rootless trie resolves at once.
		m, live := 0, 0
		for ; next < len(keys) && m < batchLanes; next++ {
			tr := trees[next]
			if tr == nil {
				continue
			}
			st.chunk[m] = next
			m++
			if rb := tr.root.Load(); rb.n != nil {
				st.lane[live], st.nodes[live] = next, rb.n
				live++
			} else {
				out[next], found[next] = rb.tid, rb.leaf
			}
		}
		for live > 0 {
			// Touch: each lane's node header and first partial-key word.
			var sink uint64
			for j := 0; j < live; j++ {
				nd := st.nodes[j]
				sink += uint64(nd.n) + binary.LittleEndian.Uint64(nd.keys)
			}
			st.sink += sink
			// Search: every node is resident now.
			for j := 0; j < live; j++ {
				st.idx[j] = st.nodes[j].search(keys[st.lane[j]])
			}
			// Slot: step to the child, or resolve the candidate TID and
			// retire the lane.
			w := 0
			for j := 0; j < live; j++ {
				s := &st.nodes[j].slots[st.idx[j]]
				if c := s.loadChild(); c != nil {
					st.lane[w], st.nodes[w] = st.lane[j], c
					w++
					continue
				}
				i := st.lane[j]
				out[i], found[i] = s.loadTID(), true
			}
			live = w
		}
		// Final false-positive checks (Listing 2, line 7), one key load
		// per candidate.
		for _, i := range st.chunk[:m] {
			if found[i] && !key.Equal(trees[i].load(out[i], st.buf[:0]), keys[i]) {
				found[i] = false
			}
			if !found[i] {
				out[i] = 0
			}
		}
	}
}

// LookupBatchAcross looks up keys[i] in tries[which[i]] for every i as one
// batch, storing the TID in out[i] (0 when absent) and whether it was found
// in found[i]; a negative which[i] leaves out[i] and found[i] as they were.
// The descents of all the tries advance together (see batchState.lookup).
// Each entry of tries is pinned once for the whole call, so the caller
// lists every trie once and pinning costs one epoch guard per trie, not per
// key. Writers are not held off, so each answer is a value its key held
// during the call. len(which), len(out) and len(found) must be at least
// len(keys).
func LookupBatchAcross(tries []*ConcurrentTrie, which []int, keys [][]byte, out []TID, found []bool) {
	n := len(keys)
	checkBatch(n, out, found)
	st := batchStatePool.Get().(*batchState)
	for _, tr := range tries {
		st.guards = append(st.guards, tr.gc.Enter())
	}
	st.trees = slices.Grow(st.trees[:0], n)[:n]
	for i, w := range which[:n] {
		if w < 0 {
			st.trees[i] = nil
		} else {
			st.trees[i] = &tries[w].tree
		}
	}
	st.lookup(keys, out, found)
	for _, g := range st.guards {
		g.Exit()
	}
	st.release()
	batchStatePool.Put(st)
}
