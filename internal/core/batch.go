package core

import (
	"sync"

	"github.com/hotindex/hot/internal/key"
)

// Batched lookups. A single lookup's descent is a pointer chase: each node
// read depends on the previous one, so every cache miss serializes. A
// batched lookup instead advances B independent descents through the trie
// in lockstep — a level-synchronous sweep in which each round issues B
// data-independent node reads and B independent extract+comply
// evaluations, letting the CPU's out-of-order window overlap the misses
// (the Go-portable form of software prefetching; the Cuckoo Trie applies
// the same remedy to DRAM-bound probes).

// batchLanes is the number of descents a batched lookup keeps in flight
// per round. Larger values expose more memory-level parallelism until the
// out-of-order window and the load buffers saturate; 32 measured best on
// the DRAM-bound 1M-key lookup benchmark (16 left ~15% on the table).
const batchLanes = 32

// batchState is the reusable scratch of a batched lookup: the per-lane
// descent frontier, resolved candidate TIDs, a key-load buffer for the
// final false-positive checks and the found mask handed back to the
// caller. The single-threaded wrappers keep one per tree (steady-state
// batched lookups allocate nothing); the concurrent wrapper draws from a
// pool.
type batchState struct {
	nodes [batchLanes]*node
	tids  [batchLanes]TID
	buf   []byte
	found []bool
}

// batchStatePool feeds ConcurrentTrie.LookupBatch, which cannot pin
// per-tree scratch (calls may race).
var batchStatePool = sync.Pool{New: func() any { return new(batchState) }}

// foundSlice returns the reusable found mask resized to n.
func (st *batchState) foundSlice(n int) []bool {
	if cap(st.found) < n {
		st.found = make([]bool, n)
	}
	st.found = st.found[:n]
	return st.found
}

// lookupBatch resolves keys[i] into out[i] for every i, returning a mask
// of which keys were present (out[i] is 0 for absent keys). The whole
// batch descends from one root load; in-place child and TID stores still
// reach it, so each answer is a value its key held during the call. The
// returned slice is st.found, reused by the next call with the same state.
func (t *tree) lookupBatch(keys [][]byte, out []TID, st *batchState) []bool {
	n := len(keys)
	if len(out) < n {
		panic("core: LookupBatch out slice shorter than keys")
	}
	if st.buf == nil {
		st.buf = make([]byte, 0, 64)
	}
	found := st.foundSlice(n)
	rb := t.root.Load()
	if rb.n == nil {
		for i := range found {
			ok := rb.leaf && key.Equal(t.load(rb.tid, st.buf[:0]), keys[i])
			found[i] = ok
			if ok {
				out[i] = rb.tid
			} else {
				out[i] = 0
			}
		}
		return found
	}
	for base := 0; base < n; base += batchLanes {
		m := n - base
		if m > batchLanes {
			m = batchLanes
		}
		chunk := keys[base : base+m]
		for i := 0; i < m; i++ {
			st.nodes[i] = rb.n
		}
		// Level-synchronous descent: every pass advances each unresolved
		// lane by exactly one node. The m node reads (and their
		// extract+comply evaluations) within a pass carry no data
		// dependencies on each other, so their cache misses overlap.
		for active := m; active > 0; {
			for i := 0; i < m; i++ {
				nd := st.nodes[i]
				if nd == nil {
					continue
				}
				s := &nd.slots[nd.search(chunk[i])]
				if c := s.loadChild(); c != nil {
					st.nodes[i] = c
					continue
				}
				st.nodes[i] = nil
				st.tids[i] = s.loadTID()
				active--
			}
		}
		// Final false-positive checks (Listing 2, line 7), one key load
		// per lane.
		for i := 0; i < m; i++ {
			tid := st.tids[i]
			if key.Equal(t.load(tid, st.buf[:0]), chunk[i]) {
				out[base+i] = tid
				found[base+i] = true
			} else {
				out[base+i] = 0
				found[base+i] = false
			}
		}
	}
	return found
}
