package core

import (
	"runtime"
	"sync"
	"time"

	"github.com/hotindex/hot/internal/chaos"
	"github.com/hotindex/hot/internal/epoch"
	"github.com/hotindex/hot/internal/key"
)

// ConcurrentTrie is the ROWEX-synchronized Height Optimized Trie of
// Section 5. Readers are wait-free: they never take locks and never
// restart, relying on atomic child-pointer loads and on obsolete nodes
// remaining intact until reclaimed. Writers perform the paper's five steps:
//
//	(a) traverse and determine the set of affected nodes,
//	(b) lock them bottom-up,
//	(c) validate that none is obsolete (restart otherwise),
//	(d) apply the copy-on-write modification, marking replaced nodes
//	    obsolete,
//	(e) unlock top-down.
//
// Obsolete nodes are retired to an epoch-based reclamation manager.
type ConcurrentTrie struct {
	tree
	rootMu sync.Mutex // guards root-box swaps (the "lock above the root")
	gc     epoch.Manager
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
	g := t.gc.Enter()
	tid, ok := t.lookup(k, nil)
	g.Exit()
	return tid, ok
}

// LookupBatch looks up all keys as one batch, storing each key's TID in the
// corresponding out slot (0 when absent) and returning a mask of which keys
// were found; len(out) must be at least len(keys). The whole batch reads
// from a single root snapshot under one epoch guard, advancing the descents
// in lockstep so their memory stalls overlap. The returned mask is owned by
// the caller.
func (t *ConcurrentTrie) LookupBatch(keys [][]byte, out []TID) []bool {
	st := batchStatePool.Get().(*batchState)
	g := t.gc.Enter()
	found := t.lookupBatch(keys, out, st)
	g.Exit()
	st.found = nil // handed to the caller; must not be pooled
	batchStatePool.Put(st)
	return found
}

// Scan invokes fn for up to max entries in ascending key order starting at
// the first key ≥ start. Like the paper's readers it observes nodes
// atomically: concurrent writers may commit before or after each step.
func (t *ConcurrentTrie) Scan(start []byte, max int, fn func(TID) bool) int {
	g := t.gc.Enter()
	n := t.scan(start, max, fn, nil)
	g.Exit()
	return n
}

// ReclaimStats reports how many obsolete nodes have been retired and how
// many the epoch manager has already reclaimed.
func (t *ConcurrentTrie) ReclaimStats() (freed uint64, pending int64) {
	return t.gc.Freed(), t.gc.Pending()
}

// Insert stores tid under k, reporting false if the key already exists.
// Like Upsert and Delete it is a WriterBatch of one operation: the
// retry–pin–advance protocol exists once, on the batch.
func (t *ConcurrentTrie) Insert(k []byte, tid TID) bool {
	b := t.BeginBatch()
	inserted := b.Insert(k, tid)
	b.End()
	return inserted
}

// Upsert stores tid under k, returning the replaced TID if one existed.
func (t *ConcurrentTrie) Upsert(k []byte, tid TID) (old TID, replaced bool) {
	b := t.BeginBatch()
	old, replaced = b.Upsert(k, tid)
	b.End()
	return old, replaced
}

// Delete removes k, reporting whether it was present.
func (t *ConcurrentTrie) Delete(k []byte) bool {
	b := t.BeginBatch()
	deleted := b.Delete(k)
	b.End()
	return deleted
}

// tryWrite performs one optimistic write attempt. ok=false requests a
// restart (validation failed against a concurrent modification).
func (t *ConcurrentTrie) tryWrite(k []byte, tid TID, upsert bool) (inserted bool, old TID, replaced, ok bool) {
	rb := t.root.Load()
	if rb.n == nil {
		// Empty or single-leaf tree: serialize on the root lock.
		t.rootMu.Lock()
		defer t.rootMu.Unlock()
		if t.root.Load() != rb {
			t.ops.validationFails.Add(1)
			return false, 0, false, false
		}
		if !rb.leaf {
			t.root.Store(&rootBox{tid: tid, leaf: true})
			t.size.Add(1)
			return true, 0, false, true
		}
		mb, differ := key.MismatchBit(t.load(rb.tid, nil), k)
		if !differ {
			if upsert {
				t.root.Store(&rootBox{tid: tid, leaf: true})
				return false, rb.tid, true, true
			}
			return false, 0, false, true
		}
		var nd *node
		if key.Bit(k, mb) == 1 {
			nd = nodeFrom2(uint16(mb), leafSlot(rb.tid), leafSlot(tid), nil)
		} else {
			nd = nodeFrom2(uint16(mb), leafSlot(tid), leafSlot(rb.tid), nil)
		}
		t.root.Store(&rootBox{n: nd})
		t.size.Add(1)
		return true, 0, false, true
	}

	stack, cand := descend(rb.n, k, make([]pathEntry, 0, 8))
	chaos.Fire(chaos.RowexAfterTraverse)
	mb, differ := key.MismatchBit(t.load(cand, nil), k)
	if !differ {
		if !upsert {
			return false, 0, false, true // duplicate: no locks needed
		}
		last := len(stack) - 1
		lockTop := max(last-1, 0)
		if !t.lockLevels(stack, lockTop, last, last == 0, rb, cand, true) {
			return false, 0, false, false
		}
		nd2 := stack[last].nd.withSlotReplaced(stack[last].idx, leafSlot(tid), nil)
		t.replaceAt(stack, last, nd2)
		t.retireNodes([]*node{stack[last].nd})
		t.unlockLevels(stack, lockTop, last, last == 0)
		return false, cand, true, true
	}

	plan := planInsert(stack, cand, mb, key.Bit(k, mb), t.k)
	last := len(stack) - 1
	if !t.lockLevels(stack, plan.lockTop, last, plan.useRoot, rb, cand, true) {
		return false, 0, false, false
	}
	replacedNodes := t.execInsert(plan, tid, nil)
	t.retireNodes(replacedNodes)
	t.unlockLevels(stack, plan.lockTop, last, plan.useRoot)
	return true, 0, false, true
}

// WriterBatch is the writer side of the trie: every Insert, Upsert and
// Delete runs through one, and it owns the restart loop. Over a run of
// writes issued by one goroutine it amortizes the per-write epoch protocol:
// the epoch is pinned once lazily and held across consecutive successful
// writes, and the reclamation-advance check runs once at End instead of per
// operation — ConcurrentTrie's own write methods are a batch of one, the
// sharded index's drain slices and section loads a batch of many with the
// shard's epoch already warm. The batch is single-goroutine state; it must
// be closed with End and must not be held across blocking calls — a held
// pin stalls epoch advance, so batches are expected to be short (a drain
// slice). A restart unpins for the backoff's duration, keeping restart
// storms from blocking reclamation.
type WriterBatch struct {
	t       *ConcurrentTrie
	g       epoch.Guard
	pinned  bool
	mutated bool
}

// BeginBatch opens an amortized writer batch; no epoch is pinned until the
// first write.
func (t *ConcurrentTrie) BeginBatch() WriterBatch { return WriterBatch{t: t} }

func (b *WriterBatch) pin() {
	if !b.pinned {
		b.g = b.t.gc.Enter()
		b.pinned = true
	}
}

func (b *WriterBatch) unpin() {
	if b.pinned {
		b.g.Exit()
		b.pinned = false
	}
}

// Insert is the batched analogue of ConcurrentTrie.Insert.
func (b *WriterBatch) Insert(k []byte, tid TID) bool {
	inserted, _, _ := b.write(k, tid, false)
	return inserted
}

// Upsert is the batched analogue of ConcurrentTrie.Upsert.
func (b *WriterBatch) Upsert(k []byte, tid TID) (old TID, replaced bool) {
	_, old, replaced = b.write(k, tid, true)
	return old, replaced
}

func (b *WriterBatch) write(k []byte, tid TID, upsert bool) (inserted bool, old TID, replaced bool) {
	checkKey(k)
	checkTID(tid)
	for attempt := 0; ; attempt++ {
		b.pin()
		inserted, old, replaced, ok := b.t.tryWrite(k, tid, upsert)
		if ok {
			if attempt > 0 || inserted || replaced {
				b.mutated = true
			}
			return inserted, old, replaced
		}
		b.unpin() // let reclamation advance while we back off
		b.t.restartBackoff(attempt)
	}
}

// Delete is the batched analogue of ConcurrentTrie.Delete.
func (b *WriterBatch) Delete(k []byte) bool {
	checkKey(k)
	for attempt := 0; ; attempt++ {
		b.pin()
		deleted, ok := b.t.tryDelete(k)
		if ok {
			if deleted {
				b.mutated = true
			}
			return deleted
		}
		b.unpin()
		b.t.restartBackoff(attempt)
	}
}

// End releases the batch's epoch pin and runs the deferred reclamation-
// advance check. The batch may be reused after End.
func (b *WriterBatch) End() {
	b.unpin()
	if b.mutated {
		b.t.maybeAdvance()
		b.mutated = false
	}
}

func (t *ConcurrentTrie) tryDelete(k []byte) (deleted, ok bool) {
	rb := t.root.Load()
	if rb.n == nil {
		if !rb.leaf {
			return false, true
		}
		t.rootMu.Lock()
		defer t.rootMu.Unlock()
		if t.root.Load() != rb {
			t.ops.validationFails.Add(1)
			return false, false
		}
		if !key.Equal(t.load(rb.tid, nil), k) {
			return false, true
		}
		t.root.Store(emptyRoot)
		t.size.Add(-1)
		return true, true
	}
	stack, cand := descend(rb.n, k, make([]pathEntry, 0, 8))
	chaos.Fire(chaos.RowexAfterTraverse)
	if !key.Equal(t.load(cand, nil), k) {
		return false, true
	}
	plan := planDelete(stack, cand)
	last := len(stack) - 1
	if !t.lockLevels(stack, plan.lockTop, last, plan.useRoot, rb, cand, true) {
		return false, false
	}
	t.retireNodes(t.execDelete(plan, nil))
	t.unlockLevels(stack, plan.lockTop, last, plan.useRoot)
	return true, true
}

// lockLevels implements steps (b) and (c): acquire the affected nodes'
// locks bottom-up (deepest first, the root lock last) and validate that
// every locked node is still reachable and not obsolete, that the path
// links between locked levels are intact, and that the final slot still
// holds the candidate leaf. On validation failure everything is unlocked
// and false is returned (the caller restarts).
func (t *ConcurrentTrie) lockLevels(stack []pathEntry, lo, hi int, useRoot bool, rb *rootBox, cand TID, candIsLeaf bool) bool {
	for i := hi; i >= lo; i-- {
		stack[i].nd.mu.Lock()
		chaos.Fire(chaos.RowexBetweenLocks)
	}
	if useRoot {
		t.rootMu.Lock()
	}
	chaos.Fire(chaos.RowexBeforeValidate)
	valid := true
	for i := lo; i <= hi && valid; i++ {
		if stack[i].nd.obsolete.Load() {
			valid = false
			break
		}
		if i < hi {
			// The traversal link must still hold; a concurrent writer that
			// changed it would have had to lock stack[i], which excludes us.
			if stack[i].nd.slots[stack[i].idx].loadChild() != stack[i+1].nd {
				valid = false
			}
		}
	}
	if valid && candIsLeaf && hi == len(stack)-1 {
		lastS := &stack[len(stack)-1]
		s := &lastS.nd.slots[lastS.idx]
		if s.loadChild() != nil || s.tid != cand {
			valid = false
		}
	}
	if valid && useRoot {
		if cur := t.root.Load(); cur.n != stack[0].nd {
			valid = false
		}
		_ = rb
	}
	// The link above the lock window must also be intact when the topmost
	// locked node is not reached through the root box.
	if valid && !useRoot && lo == 0 {
		if cur := t.root.Load(); cur.n != stack[0].nd {
			valid = false
		}
	}
	if !valid {
		t.ops.validationFails.Add(1)
		t.unlockLevels(stack, lo, hi, useRoot)
		return false
	}
	return true
}

func (t *ConcurrentTrie) unlockLevels(stack []pathEntry, lo, hi int, useRoot bool) {
	chaos.Fire(chaos.RowexBeforeUnlock)
	if useRoot {
		t.rootMu.Unlock()
	}
	for i := lo; i <= hi; i++ {
		stack[i].nd.mu.Unlock()
	}
}

// retireNodes marks nodes obsolete and hands them to the epoch manager.
func (t *ConcurrentTrie) retireNodes(nodes []*node) {
	for _, nd := range nodes {
		nd.obsolete.Store(true)
		t.gc.Retire(nil)
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
