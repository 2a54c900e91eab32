package core

import (
	"encoding/binary"
	"slices"
	"sync"

	"github.com/hotindex/hot/internal/key"
)

// Batched lookups. A single lookup's descent is a chain of dependent
// loads — probe key, node header, partial keys, slot, child, and at the
// end the candidate's tuple — so every cache miss serializes. A batched
// lookup keeps up to batchLanes independent lookups in flight and issues
// each kind of load for all of them back to back, in touch-then-use
// passes: touch every lane's probe key as it is seeded; then, one node
// per round, touch every lane's node and the first word of its partial
// keys, search every node (now cache-resident), and load every lane's
// slot to step to the child or resolve the TID; then fetch every
// candidate's key through its trie's loader and touch it, and only then
// compare each with its probe. Within a pass no lane's load waits on
// another's, so the out-of-order window holds all the lanes' misses at
// once — the Go-portable form of software prefetching, the remedy the
// Cuckoo Trie applies to DRAM-bound probes.
//
// Every lane carries its own trie: one batch may descend many tries at
// once (LookupBatchAcross), which is how a sharded index runs a single
// batch across all its shards instead of one short batch per shard.

// batchLanes is the number of descents a batched lookup keeps in flight
// per round. Larger values expose more memory-level parallelism until the
// out-of-order window and the load buffers saturate; 32 measured best on
// the DRAM-bound 1M-key lookup benchmark (16 left ~15% on the table).
const batchLanes = 32

// laneKeyBytes is the capacity of each lane's key-load buffer; a loader
// that writes a longer key appends past it into memory of its own.
const laneKeyBytes = 64

// batchState is the reusable scratch of a batched lookup: every key's
// trie, the live lanes' descent frontier and the lanes' key-load buffers
// for the final false-positive checks.
// Trie keeps one (steady-state batched lookups allocate nothing, and found
// is the mask it hands back); the concurrent entries draw from a pool.
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
	// keyBuf backs one laneKeyBytes buffer per lane: a loader may write
	// the key into its buf, and every candidate of a chunk is loaded
	// before any is compared. The buffers belong to the state; a slice a
	// loader returned is never kept as a buffer, since it may alias a
	// store's tuple arena (and one pooled state serves many loaders).
	keyBuf []byte
	// loaded holds the chunk's candidate keys between the fetch and the
	// compare pass, cleared before lookup returns.
	loaded [batchLanes][]byte
	found  []bool
	// sink absorbs the touch passes' loads so the compiler keeps them.
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
}

// lookup resolves keys[i] in st.trees[i] into out[i] and found[i] for
// every i whose trie is not nil (out[i] is 0 for an absent key); a key
// without a trie is left as it was. Lanes start at their tries' roots,
// loaded when the lane is seeded; in-place child and TID stores still
// reach a descent, so each answer is a value its key held during the call.
// The candidates' loaded keys are dropped before it returns, so a pooled
// state holds no tuple memory.
func (st *batchState) lookup(keys [][]byte, out []TID, found []bool) {
	if st.keyBuf == nil {
		st.keyBuf = make([]byte, batchLanes*laneKeyBytes)
	}
	trees := st.trees
	var sink uint64
	for next := 0; next < len(keys); {
		// Seed up to batchLanes lanes, touching each probe key's first and
		// last byte; a rootless trie resolves at once.
		m, live := 0, 0
		for ; next < len(keys) && m < batchLanes; next++ {
			tr := trees[next]
			if tr == nil {
				continue
			}
			st.chunk[m] = next
			m++
			sink += ends(keys[next])
			if rb := tr.root.Load(); rb.n != nil {
				st.lane[live], st.nodes[live] = next, rb.n
				live++
			} else {
				out[next], found[next] = rb.tid, rb.leaf
			}
		}
		for live > 0 {
			// Touch: each lane's node header and first partial-key word.
			for j := 0; j < live; j++ {
				nd := st.nodes[j]
				sink += uint64(nd.n) + binary.LittleEndian.Uint64(nd.keys())
			}
			// Search: every node is resident now.
			for j := 0; j < live; j++ {
				st.idx[j] = st.nodes[j].search(keys[st.lane[j]])
			}
			// Slot: step to the child, or resolve the candidate TID and
			// retire the lane.
			w := 0
			for j := 0; j < live; j++ {
				c, tid := st.nodes[j].entry(st.idx[j])
				if c != nil {
					st.lane[w], st.nodes[w] = st.lane[j], c
					w++
					continue
				}
				i := st.lane[j]
				out[i], found[i] = tid, true
			}
			live = w
		}
		// Fetch: load every candidate's key into its lane's own buffer and
		// touch its first and last byte.
		for j, i := range st.chunk[:m] {
			if !found[i] {
				continue
			}
			k := trees[i].load(out[i], st.keyBuf[j*laneKeyBytes:j*laneKeyBytes:(j+1)*laneKeyBytes])
			sink += ends(k)
			st.loaded[j] = k
		}
		// Compare: the false-positive checks (Listing 2, line 7), every
		// candidate's key resident now.
		for j, i := range st.chunk[:m] {
			if found[i] && !key.Equal(st.loaded[j], keys[i]) {
				found[i] = false
			}
			if !found[i] {
				out[i] = 0
			}
		}
	}
	st.sink += sink
	clear(st.loaded[:])
}

// ends reads k's first and last byte, which touches both cache lines a key
// of up to 64 bytes can span.
func ends(k []byte) uint64 {
	if len(k) == 0 {
		return 0
	}
	return uint64(k[0]) + uint64(k[len(k)-1])
}

// LookupBatchAcross looks up keys[i] in tries[which[i]] for every i as one
// batch, storing the TID in out[i] (0 when absent) and whether it was found
// in found[i]; a negative which[i] leaves out[i] and found[i] as they were.
// The descents of all the tries advance together (see batchState.lookup).
// Writers are not held off, so each answer is a value its key held during
// the call. len(which), len(out) and len(found) must be at least
// len(keys).
func LookupBatchAcross(tries []*ConcurrentTrie, which []int, keys [][]byte, out []TID, found []bool) {
	n := len(keys)
	checkBatch(n, out, found)
	st := batchStatePool.Get().(*batchState)
	st.trees = slices.Grow(st.trees[:0], n)[:n]
	for i, w := range which[:n] {
		if w < 0 {
			st.trees[i] = nil
		} else {
			st.trees[i] = &tries[w].tree
		}
	}
	st.lookup(keys, out, found)
	st.release()
	batchStatePool.Put(st)
}
