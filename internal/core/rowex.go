package core

import (
	"runtime"
	"sync"
	"time"

	"github.com/hotindex/hot/internal/chaos"
	"github.com/hotindex/hot/internal/epoch"
)

// ConcurrentTrie is the ROWEX-synchronized Height Optimized Trie of
// Section 5. Readers are wait-free: they never take locks and never
// restart, relying on atomic child-pointer loads and on obsolete nodes
// remaining intact until reclaimed. Insert, Upsert and Delete perform the
// paper's five writer steps:
//
//	(a) traverse and determine the set of affected nodes,
//	(b) lock them bottom-up,
//	(c) validate that none is obsolete (restart otherwise),
//	(d) apply the modification: an insert or delete copies the affected
//	    nodes and marks the replaced ones obsolete, an upsert of a present
//	    key stores its new TID into the leaf entry in place,
//	(e) unlock top-down.
//
// A writer that is alone by construction uses Writer instead, which runs
// the same body without (b), (c), (e) and the restart. Obsolete nodes are
// retired to an epoch-based reclamation manager either way.
type ConcurrentTrie struct {
	tree
	rootMu sync.Mutex // guards root-box swaps (the "lock above the root")
}

// NewConcurrent returns an empty concurrent HOT trie. The loader must be
// safe for concurrent use.
func NewConcurrent(loader Loader) *ConcurrentTrie {
	t := &ConcurrentTrie{}
	t.init(loader, MaxFanout)
	t.gc = &epoch.Manager{}
	return t
}

// Lookup returns the TID stored under k. It is wait-free.
func (t *ConcurrentTrie) Lookup(k []byte) (TID, bool) {
	g := t.gc.Enter()
	tid, ok := t.lookup(k, g.Scratch())
	g.Exit()
	return tid, ok
}

// LookupBatch looks up all keys as one batch, storing each key's TID in the
// corresponding out slot (0 when absent) and returning a mask of which keys
// were found; len(out) must be at least len(keys). The whole batch runs
// under one epoch guard, advancing the descents together so their memory
// stalls overlap (see batchState.lookup). Writers are not held off, so
// each answer is a value its key held during the call, not a point-in-time
// view of the whole batch. The returned mask is owned by the caller.
func (t *ConcurrentTrie) LookupBatch(keys [][]byte, out []TID) []bool {
	found := make([]bool, len(keys))
	checkBatch(len(keys), out, found)
	st := batchStatePool.Get().(*batchState)
	st.every(&t.tree, len(keys))
	g := t.gc.Enter()
	st.lookup(keys, out, found)
	g.Exit()
	st.release()
	batchStatePool.Put(st)
	return found
}

// Scan invokes fn for up to max entries in ascending key order starting at
// the first key ≥ start. Like the paper's readers it observes nodes
// atomically: concurrent writers may commit before or after each step.
func (t *ConcurrentTrie) Scan(start []byte, max int, fn func(TID) bool) int {
	g := t.gc.Enter()
	n := t.scan(start, max, fn, g.Scratch())
	g.Exit()
	return n
}

// ReclaimStats reports how many obsolete nodes have been retired and how
// many the epoch manager has already reclaimed.
func (t *ConcurrentTrie) ReclaimStats() (freed uint64, pending int64) {
	return t.gc.Freed(), t.gc.Pending()
}

// Insert stores tid under k, reporting false if the key already exists.
func (t *ConcurrentTrie) Insert(k []byte, tid TID) bool {
	inserted, _, _ := t.rowexWrite(k, tid, false)
	return inserted
}

// Upsert stores tid under k, returning the replaced TID if one existed.
func (t *ConcurrentTrie) Upsert(k []byte, tid TID) (old TID, replaced bool) {
	_, old, replaced = t.rowexWrite(k, tid, true)
	return old, replaced
}

// rowexWrite runs the shared write body with the trie as its latch, one
// epoch-pinned attempt at a time, until an attempt validates.
func (t *ConcurrentTrie) rowexWrite(k []byte, tid TID, upsert bool) (inserted bool, old TID, replaced bool) {
	checkKey(k)
	checkTID(tid)
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	for attempt := 0; ; attempt++ {
		g := t.gc.Enter()
		inserted, old, replaced, ok := t.write(k, tid, upsert, sc, t)
		g.Exit() // unpinned while backing off, so reclamation can advance
		if ok {
			t.maybeAdvance()
			return inserted, old, replaced
		}
		t.restartBackoff(attempt)
	}
}

// Delete removes k, reporting whether it was present.
func (t *ConcurrentTrie) Delete(k []byte) bool {
	checkKey(k)
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	for attempt := 0; ; attempt++ {
		g := t.gc.Enter()
		deleted, ok := t.del(k, sc, t)
		g.Exit()
		if ok {
			t.maybeAdvance()
			return deleted
		}
		t.restartBackoff(attempt)
	}
}

// Writer is a ConcurrentTrie's exclusive writer: the shared write body
// without the latch — no epoch pin, no lock, no validation, no restart.
// Replaced nodes still go to the epoch manager, so readers stay wait-free
// while it writes. The caller guarantees that no other write of any kind
// (Writer or ROWEX) runs on the trie at the same time: a ShardedTree shard
// holds its writer lock, and a section load writes a trie no other writer
// can reach. Insert and Upsert store any 64-bit TID: their callers validate
// what they take from outside against MaxTID first, and a sharded delta
// keeps its tombstones in the bit above it.
type Writer struct{ t *ConcurrentTrie }

// Writer returns the trie's exclusive writer.
func (t *ConcurrentTrie) Writer() Writer { return Writer{t} }

// Insert is ConcurrentTrie.Insert for the exclusive writer.
func (w Writer) Insert(k []byte, tid TID) bool {
	checkKey(k)
	inserted, _, _, _ := w.t.write(k, tid, false, &w.t.sc, nil)
	w.t.maybeAdvance()
	return inserted
}

// Upsert is ConcurrentTrie.Upsert for the exclusive writer.
func (w Writer) Upsert(k []byte, tid TID) (old TID, replaced bool) {
	checkKey(k)
	_, old, replaced, _ = w.t.write(k, tid, true, &w.t.sc, nil)
	w.t.maybeAdvance()
	return old, replaced
}

// Delete is ConcurrentTrie.Delete for the exclusive writer.
func (w Writer) Delete(k []byte) bool {
	checkKey(k)
	deleted, _ := w.t.del(k, &w.t.sc, nil)
	w.t.maybeAdvance()
	return deleted
}

// lockRoot is the latch's lock for the empty and single-leaf shapes: the
// root box, reporting false (holding nothing) when rb is no longer the
// published root.
func (t *ConcurrentTrie) lockRoot(rb *rootBox) bool {
	t.rootMu.Lock()
	if t.root.Load() != rb {
		t.ops.validationFails.Add(1)
		t.rootMu.Unlock()
		return false
	}
	return true
}

// lock implements steps (b) and (c) for stack levels [lo, last]: acquire
// the nodes' locks bottom-up (deepest first, the root lock last when
// useRoot) and validate that every locked node is still reachable and not
// obsolete, that the path links between locked levels are intact, and that
// the final slot still holds the candidate leaf. On validation failure
// everything is unlocked and false is returned (the caller restarts).
func (t *ConcurrentTrie) lock(stack []pathEntry, lo int, useRoot bool, cand TID) bool {
	last := len(stack) - 1
	for i := last; i >= lo; i-- {
		stack[i].nd.cold().mu.Lock()
		chaos.Fire(chaos.RowexBetweenLocks)
	}
	if useRoot {
		t.rootMu.Lock()
	}
	chaos.Fire(chaos.RowexBeforeValidate)
	valid := true
	for i := lo; i <= last && valid; i++ {
		// A concurrent writer that changed a traversal link would have had
		// to lock stack[i], which excludes us.
		valid = !stack[i].nd.cold().obsolete.Load() &&
			(i == last || stack[i].nd.child(stack[i].idx) == stack[i+1].nd)
	}
	if valid {
		c, tid := stack[last].nd.entry(stack[last].idx)
		valid = c == nil && tid == cand
	}
	// A window that starts at the root (always so with useRoot) is reached
	// through the root box, which must still hold it.
	if valid && lo == 0 {
		valid = t.root.Load().n == stack[0].nd
	}
	if !valid {
		t.ops.validationFails.Add(1)
		t.unlock(stack, lo, useRoot)
		return false
	}
	return true
}

// unlock implements step (e), top-down; with an empty stack it releases
// what lockRoot took.
func (t *ConcurrentTrie) unlock(stack []pathEntry, lo int, useRoot bool) {
	chaos.Fire(chaos.RowexBeforeUnlock)
	if useRoot {
		t.rootMu.Unlock()
	}
	for i := lo; i < len(stack); i++ {
		stack[i].nd.cold().mu.Unlock()
	}
}

func (t *ConcurrentTrie) maybeAdvance() {
	if t.gc.Pending() >= 512 {
		t.gc.TryAdvance()
	}
}

// OpStats returns the insertion-case counters plus the writer-path
// robustness counters: restarts, parked backoffs, step-(c) validation
// failures, and the epoch manager's pin-slot contention count.
func (t *ConcurrentTrie) OpStats() OpStats {
	s := t.tree.OpStats()
	s.Contended = t.gc.Contended()
	return s
}

// Restart/backoff policy: a failed attempt (step (c) validation or a
// root-box race) restarts the whole operation. The first few restarts only
// yield the processor — under light contention the conflicting writer
// finishes within a scheduling quantum. Past restartYieldAttempts the
// writer parks with capped exponential sleep, so a restart storm degrades
// into bounded sleeping instead of spinning cores at 100%.
const (
	restartYieldAttempts = 8
	restartBaseSleep     = 2 * time.Microsecond
	restartMaxSleep      = 512 * time.Microsecond
)

func (t *ConcurrentTrie) restartBackoff(attempt int) {
	t.ops.restarts.Add(1)
	if attempt < restartYieldAttempts {
		runtime.Gosched()
		return
	}
	t.ops.backoffs.Add(1)
	shift := attempt - restartYieldAttempts
	d := restartMaxSleep
	if shift < 8 {
		d = restartBaseSleep << uint(shift)
	}
	time.Sleep(d)
}
