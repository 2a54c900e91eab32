package core

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"github.com/hotindex/hot/internal/chaos"
)

// ConcurrentTrie is the ROWEX-synchronized Height Optimized Trie of
// Section 5. Readers are wait-free: they never take locks and never
// restart, relying on atomic child-pointer loads and on obsolete nodes
// remaining intact while a reader holds them, which the garbage collector
// guarantees (see keyBufs). Insert, Upsert and Delete perform the
// paper's five writer steps:
//
//	(a) traverse and determine the set of affected nodes,
//	(b) lock them (their lock stripes in ascending order, see lock),
//	(c) validate that none is obsolete (restart otherwise),
//	(d) apply the modification: an insert or delete copies the affected
//	    nodes and marks the replaced ones obsolete, an upsert of a present
//	    key stores its new TID into the leaf entry in place,
//	(e) unlock.
//
// A writer that is alone by construction uses Writer instead, which runs
// the same body without (b), (c), (e) and the restart. Obsolete nodes are
// left to the garbage collector either way.
type ConcurrentTrie struct {
	tree
	// locks is the ROWEX writers' lock table, allocated by the first lock
	// call: a trie only a Writer writes never has one.
	locks  atomic.Pointer[lockTable]
	rootMu sync.Mutex // guards root-box swaps (the "lock above the root")
}

// lockStripeBits sizes the lock table: 2^lockStripeBits stripes. Nodes
// that share a stripe share a lock, which costs only concurrency.
const lockStripeBits = 10

// lockTable is a ConcurrentTrie's node locks: a node's lock is the stripe
// its address hashes to (see stripeOf).
type lockTable [1 << lockStripeBits]sync.Mutex

// stripeOf returns the index of nd's lock stripe: a Fibonacci hash of its
// address, which never changes (the Go heap does not move blocks).
func stripeOf(nd *node) uint16 {
	return uint16(uint64(uintptr(unsafe.Pointer(nd))) * 0x9E3779B97F4A7C15 >> (64 - lockStripeBits))
}

// stripes returns, in dst's storage, the distinct lock stripes of the
// nodes on path in ascending order: the order lock takes them in.
func stripes(path []pathEntry, dst []uint16) []uint16 {
	for _, e := range path {
		dst = append(dst, stripeOf(e.nd))
	}
	slices.Sort(dst)
	return slices.Compact(dst)
}

// lockTable returns the trie's lock table, allocating it on first use.
func (t *ConcurrentTrie) lockTable() *lockTable {
	if lt := t.locks.Load(); lt != nil {
		return lt
	}
	t.locks.CompareAndSwap(nil, new(lockTable))
	return t.locks.Load()
}

// HasLockTable reports whether a ROWEX write has allocated the trie's
// lock table.
func (t *ConcurrentTrie) HasLockTable() bool { return t.locks.Load() != nil }

// Memory is tree.Memory plus the lock table, once allocated, in GoBytes.
func (t *ConcurrentTrie) Memory() MemoryStats {
	m := t.tree.Memory()
	if t.HasLockTable() {
		m.GoBytes += int(unsafe.Sizeof(lockTable{}))
	}
	return m
}

// NewConcurrent returns an empty concurrent HOT trie. The loader must be
// safe for concurrent use.
func NewConcurrent(loader Loader) *ConcurrentTrie {
	t := &ConcurrentTrie{}
	t.init(loader, MaxFanout)
	return t
}

// Lookup returns the TID stored under k. It is wait-free.
func (t *ConcurrentTrie) Lookup(k []byte) (TID, bool) {
	b := t.leaseKeyBuf()
	tid, ok := t.lookup(k, b.bytes())
	b.release()
	return tid, ok
}

// LookupBatch looks up all keys as one batch, storing each key's TID in the
// corresponding out slot (0 when absent) and returning a mask of which keys
// were found; len(out) must be at least len(keys). The descents advance
// together so their memory stalls overlap (see batchState.lookup). Writers
// are not held off, so each answer is a value its key held during the
// call, not a point-in-time view of the whole batch. The returned mask is
// owned by the caller.
func (t *ConcurrentTrie) LookupBatch(keys [][]byte, out []TID) []bool {
	found := make([]bool, len(keys))
	checkBatch(len(keys), out, found)
	st := batchStatePool.Get().(*batchState)
	st.every(&t.tree, len(keys))
	st.lookup(keys, out, found)
	st.release()
	batchStatePool.Put(st)
	return found
}

// Scan invokes fn for up to max entries in ascending key order starting at
// the first key ≥ start. Like the paper's readers it observes nodes
// atomically: concurrent writers may commit before or after each step.
func (t *ConcurrentTrie) Scan(start []byte, max int, fn func(TID) bool) int {
	b := t.leaseKeyBuf()
	n := t.scan(start, max, fn, b.bytes())
	b.release()
	return n
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
// attempt at a time, until an attempt validates.
func (t *ConcurrentTrie) rowexWrite(k []byte, tid TID, upsert bool) (inserted bool, old TID, replaced bool) {
	checkKey(k)
	checkTID(tid)
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	for attempt := 0; ; attempt++ {
		if inserted, old, replaced, ok := t.write(k, tid, upsert, sc, t); ok {
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
		if deleted, ok := t.del(k, sc, t); ok {
			return deleted
		}
		t.restartBackoff(attempt)
	}
}

// Writer is a ConcurrentTrie's exclusive writer: the shared write body
// without the latch — no lock, no validation, no restart. Replaced nodes
// are still copied and marked obsolete, never recycled, so readers stay
// wait-free while it writes. The caller guarantees that no other write of
// any kind (Writer or ROWEX) runs on the trie at the same time: a
// ShardedTree shard holds its writer lock, and a section load writes a
// trie no other writer can reach. Insert and Upsert store any 64-bit TID:
// their callers validate what they take from outside against MaxTID first,
// and a sharded delta keeps its tombstones in the bit above it.
type Writer struct{ t *ConcurrentTrie }

// Writer returns the trie's exclusive writer.
func (t *ConcurrentTrie) Writer() Writer { return Writer{t} }

// Insert is ConcurrentTrie.Insert for the exclusive writer.
func (w Writer) Insert(k []byte, tid TID) bool {
	checkKey(k)
	inserted, _, _, _ := w.t.write(k, tid, false, &w.t.sc, nil)
	return inserted
}

// Upsert is ConcurrentTrie.Upsert for the exclusive writer.
func (w Writer) Upsert(k []byte, tid TID) (old TID, replaced bool) {
	checkKey(k)
	_, old, replaced, _ = w.t.write(k, tid, true, &w.t.sc, nil)
	return old, replaced
}

// Delete is ConcurrentTrie.Delete for the exclusive writer.
func (w Writer) Delete(k []byte) bool {
	checkKey(k)
	deleted, _ := w.t.del(k, &w.t.sc, nil)
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
// the nodes' lock stripes, each once and in ascending order, then the root
// lock when useRoot, and validate that every locked node is not obsolete,
// that the path links between locked levels are intact, and that the final
// slot still holds the candidate leaf. On validation failure everything is
// unlocked and false is returned (the caller restarts). Every writer takes
// its stripes in one global order and the root lock last (lockRoot takes
// it alone), so two writers never wait on each other in a cycle.
//
// The obsolete check is what refuses a stale window whose top node a
// cascaded pull-up replaced: that pull-up copies the grandparent too, so
// the old grandparent, unchanged, still links to the replaced node, and a
// check of the link one level above the window would pass.
func (t *ConcurrentTrie) lock(stack []pathEntry, lo int, useRoot bool, cand TID) bool {
	last := len(stack) - 1
	lt := t.lockTable()
	var sb [32]uint16
	for _, s := range stripes(stack[lo:], sb[:0]) {
		lt[s].Lock()
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
		valid = !stack[i].nd.isObsolete() &&
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

// unlock implements step (e): the root lock, then the stripes lock took;
// with an empty stack it releases what lockRoot took.
func (t *ConcurrentTrie) unlock(stack []pathEntry, lo int, useRoot bool) {
	chaos.Fire(chaos.RowexBeforeUnlock)
	if useRoot {
		t.rootMu.Unlock()
	}
	lt := t.locks.Load()
	var sb [32]uint16
	for _, s := range stripes(stack[lo:], sb[:0]) {
		lt[s].Unlock()
	}
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
