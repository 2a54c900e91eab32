package hot

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hotindex/hot/internal/chaos"
	"github.com/hotindex/hot/internal/core"
	"github.com/hotindex/hot/internal/persist"
	"github.com/hotindex/hot/internal/shard"
)

// This file is ShardedTree's write path. Every operation reaches a shard
// through one function, run: a synchronous call is run with one op
// (ShardedTree.writeSync), an async submission that finds its shard idle is
// the same, and a drain slice is run over the shard's ring.
// run holds the shard's writer lock and writes through the exclusive
// core.Writer of the shard's delta (cold.go: a hot shard's whole trie) —
// so a shard has one writer at a time and runs no
// ROWEX: no node locks, no validation, no restarts — readers stay
// wait-free. Around it sits the asynchronous layer: a per-shard bounded
// MPSC submission queue (internal/shard.Queue) drained in batches by
// whichever goroutine holds the shard's writer token — a flat-combining
// layer over the shard's writer. Synchronous writers do not take the
// token, only the lock; the unit of write parallelism is the shard.
//
// The problem the queues solve: a zipfian insert stream convoys all writers
// on the hot shard's writer lock, so adding workers stops adding throughput
// (the contention wall of the paper's Section 6.5 scalability experiment).
// With the submission queues, exactly one goroutine at a time drains a given
// shard: everyone else deposits into the shard's ring in O(1) and moves on,
// and the current writer applies the backlog in batches under one hold of
// the lock. A worker that finds its target ring full does not block — it
// steals a drain for some other backlogged shard first, so all workers stay
// busy even when one shard absorbs most of the stream.
//
// Ordering: ops submitted by one goroutine to one shard apply in submission
// order (same key ⇒ same shard ⇒ per-key FIFO per submitter). Ops from
// different goroutines, or a mix of async and synchronous writes to the
// same key, are unordered unless externally synchronized. Readers may
// observe an async op any time after submission — applying is eager, Flush
// is a completion barrier, not a publication point. On a durable tree it
// is also the durability point: an applied async op owes its fsync to the
// next barrier (see run and durableState.settle).

// asyncShard is one shard's write state: the ring, the writer token that
// elects the single current drainer, the writer lock every write to the
// shard's trie runs under, and the shard's own submitted/applied/rejected
// accounting — per-shard so the per-op hot path never touches a
// tree-global cache line shared with other shards' appliers.
type asyncShard struct {
	q         *shard.Queue
	submitted atomic.Uint64 // ops accepted by the *Async methods for this shard
	applied   atomic.Uint64 // ops applied to this shard
	rejected  atomic.Uint64 // applied ops that were no-ops (dup insert / absent delete)
	busy      atomic.Bool   // writer token: held by the shard's current drainer
	// mu is the shard's writer lock: run holds it around every write, and
	// on a durable tree around the write's log append too, so a cut, Close
	// or replication bootstrap taken under it sees the log and the trie
	// agree (durable_sharded.go).
	mu sync.Mutex
	_  [20]byte // pad to a cache line: no false sharing between shards
}

// asyncState is the ShardedTree-wide submission bookkeeping. The remaining
// shared counters sit on slow paths only (ring deposits, steals, slices).
type asyncState struct {
	ws []asyncShard

	enqueued  atomic.Uint64 // deposits into a busy shard's ring
	steals    atomic.Uint64 // drains run for a shard other than the worker's target
	drains    atomic.Uint64 // drain batch slices executed
	drained   atomic.Uint64 // ops applied from rings
	queueFull atomic.Uint64 // deposits rejected by a full ring
}

// defaultQueueCapacity is the per-shard submission ring size.
const defaultQueueCapacity = 1024

// drainSlice caps how many queued ops a drainer applies per batch before
// handing the token off; Drains counts these slices. The effective slice is
// also bounded by half the ring capacity (minimum 1), so a drain never runs
// a backlogged ring dry in one hold — the handoff windows are what let
// stealers and late depositors take over a hot shard's drain.
const drainSlice = 64

func (w *asyncShard) sliceLen() int {
	n := drainSlice
	if c := w.q.Cap() / 2; c < n {
		n = c
	}
	if n < 1 {
		n = 1
	}
	return n
}

func newAsyncState(shards, capacity int) *asyncState {
	a := &asyncState{ws: make([]asyncShard, shards)}
	for i := range a.ws {
		a.ws[i].q = shard.NewQueue(capacity)
	}
	return a
}

// pending reports submitted-but-unapplied ops.
func (a *asyncState) pending() uint64 {
	var p uint64
	for i := range a.ws {
		// applied is incremented after submitted, so read it first: the
		// difference can transiently overestimate but never underestimate.
		ap := a.ws[i].applied.Load()
		p += a.ws[i].submitted.Load() - ap
	}
	return p
}

// InsertAsync submits an asynchronous Insert of tid under key. It returns
// once the op is applied or deposited in the owning shard's submission
// queue; Flush waits for application and, on a durable tree, makes the op
// durable (until then it is applied but not promised — see durable.go; the
// same holds for UpsertAsync and DeleteAsync). A duplicate key makes the op
// a no-op counted in Flush's rejected total (the async analogue of Insert
// returning false). The key slice must remain valid and unmodified until
// Flush.
func (t *ShardedTree) InsertAsync(key []byte, tid TID) {
	checkOp(key, tid)
	t.submitAsync(shard.Op{Key: key, TID: tid, Kind: shard.OpInsert})
}

// UpsertAsync submits an asynchronous Upsert of tid under key: inserted or
// overwritten, never rejected. The key slice must remain valid and
// unmodified until Flush.
func (t *ShardedTree) UpsertAsync(key []byte, tid TID) {
	checkOp(key, tid)
	t.submitAsync(shard.Op{Key: key, TID: tid, Kind: shard.OpUpsert})
}

// DeleteAsync submits an asynchronous Delete of key. Deleting an absent key
// makes the op a no-op counted in Flush's rejected total. The key slice
// must remain valid and unmodified until Flush.
func (t *ShardedTree) DeleteAsync(key []byte) {
	checkOp(key, 0)
	t.submitAsync(shard.Op{Key: key, Kind: shard.OpDelete})
}

// checkOp is the contract check of every write entrance, synchronous and
// async alike, made before routing and before any lock is taken: a
// malformed op panics on the calling goroutine with one message and leaves
// nothing held — not the write guard, not the writer lock around the trie
// and the log, and not on whichever goroutine happens to drain it.
func checkOp(key []byte, tid TID) {
	if len(key) > MaxKeyLen {
		panic("hot: key exceeds MaxKeyLen")
	}
	if tid > MaxTID {
		panic("hot: TID exceeds MaxTID")
	}
}

// Flush is the async barrier. It drives every submission queue dry, helping
// drain backlogged shards itself, until every op submitted before the call
// has been applied; on a durable tree it then pays the fsyncs those ops
// left owed (durableState.settle), so that when Flush returns they are
// durable too — this is the acknowledgement point of an async write. It
// returns the cumulative totals since construction: applied counts ops
// applied to their shard, rejected the subset that were no-ops (duplicate
// inserts, absent deletes) — callers track deltas across phases. Concurrent
// submitters may race new ops past a Flush; each caller is guaranteed
// completion of its own submissions only. A log failure panics, like a
// synchronous write's.
func (t *ShardedTree) Flush() (applied, rejected uint64) {
	t.barrier()
	if t.dur != nil {
		t.dur.settle()
	}
	a := t.async
	for i := range a.ws {
		applied += a.ws[i].applied.Load()
		rejected += a.ws[i].rejected.Load()
	}
	return applied, rejected
}

// barrier is Flush's completion half: it returns once every op submitted
// before the call has been applied (and, on a durable tree, appended to its
// shard's log — run does both under one lock).
func (t *ShardedTree) barrier() {
	a := t.async
	targets := make([]uint64, len(a.ws))
	for i := range a.ws {
		targets[i] = a.ws[i].submitted.Load()
	}
	for spin := 0; ; {
		done, helped := true, false
		for s := range a.ws {
			w := &a.ws[s]
			if w.applied.Load() >= targets[s] {
				continue
			}
			done = false
			if !w.q.Empty() {
				st := t.lockShardWrite(s)
				if w.busy.CompareAndSwap(false, true) {
					t.drainLocked(s, st, w)
					helped = true
				}
				t.unlockShardWrite(s)
			}
		}
		if done {
			return
		}
		if helped {
			spin = 0
			continue
		}
		// Nothing to help with: ops are in flight on other goroutines
		// (mid-apply, or mid-deposit before their ring write is visible).
		spin++
		if spin < 64 {
			runtime.Gosched()
		} else {
			time.Sleep(10 * time.Microsecond)
		}
	}
}

// AsyncPending reports how many submitted async ops have not been applied
// yet (queued or mid-apply) — the live backlog Flush would wait for.
func (t *ShardedTree) AsyncPending() int { return int(t.async.pending()) }

// submitAsync routes op to its shard and either applies it directly (fast
// path: idle shard), deposits it into the shard's ring, or — when the ring
// is full — steals a drain for another backlogged shard and retries.
// Every deposit, token acquisition and apply happens under the shard's
// shared write guard (a no-op without a cold tier), and every transition —
// which holds the guard exclusively — drains the ring into the state it
// replaces first.
func (t *ShardedTree) submitAsync(op shard.Op) {
	a := t.async
	s := shard.Find(t.bounds, op.Key)
	w := &a.ws[s]
	w.submitted.Add(1)
	for attempt := 0; ; attempt++ {
		st := t.lockShardWrite(s)
		// Fast path: the shard is idle and has no backlog — become its
		// writer and apply directly. The empty check keeps FIFO order with
		// ops this goroutine already queued.
		if w.q.Empty() && w.busy.CompareAndSwap(false, true) {
			if _, ok, _ := t.run(s, st, op, 0, false); !ok && op.Kind != shard.OpUpsert {
				w.rejected.Add(1)
			}
			w.applied.Add(1)
			t.drainLocked(s, st, w)
			t.unlockShardWrite(s)
			return
		}
		if w.q.TryPush(op) {
			a.enqueued.Add(1)
			chaos.Fire(chaos.ShardQueuePush)
			// Lost-wakeup guard: the writer may have drained and released
			// between our token check and the deposit. If the token is free
			// now, take it and drain our own deposit.
			if w.busy.CompareAndSwap(false, true) {
				t.drainLocked(s, st, w)
			}
			t.unlockShardWrite(s)
			return
		}
		a.queueFull.Add(1)
		// Ring full. If the token is free the backlog has no drainer (every
		// producer lost the same race) — drain it ourselves, then retry.
		if w.busy.CompareAndSwap(false, true) {
			t.drainLocked(s, st, w)
			t.unlockShardWrite(s)
			continue
		}
		t.unlockShardWrite(s)
		// The shard is backlogged with an active writer: steal a drain for
		// some other shard instead of blocking, then retry the deposit.
		if t.stealOne(s) {
			continue
		}
		// Nothing to steal anywhere: bounded backoff, then retry.
		if attempt < 8 {
			runtime.Gosched()
		} else {
			time.Sleep(2 * time.Microsecond)
		}
	}
}

// drainLocked applies the shard's queued backlog one run per drainSlice,
// handing the writer token off after every slice so no goroutine monopolizes
// a hot shard: a still-backlogged ring is re-acquired immediately unless
// another worker — a stealer, a depositing producer's lost-wakeup guard, or
// Flush — takes the token over first, in which case that worker continues
// the drain. The final release re-checks the ring, so a deposit that raced
// the release is never stranded. Callers must hold w.busy.
func (t *ShardedTree) drainLocked(s int, st *shardState, w *asyncShard) {
	a := t.async
	slice := w.sliceLen()
	for {
		if _, _, n := t.run(s, st, shard.Op{}, slice, false); n > 0 {
			a.drains.Add(1)
			a.drained.Add(uint64(n))
		}
		w.busy.Store(false)
		chaos.Fire(chaos.ShardWriterHandoff)
		if w.q.Empty() || !w.busy.CompareAndSwap(false, true) {
			return
		}
		// Backlog remains and we won the token back: next slice.
	}
}

// stealOne scans the other shards for a backlogged ring with a free writer
// token, drains the first one found and reports whether it helped.
func (t *ShardedTree) stealOne(except int) bool {
	a := t.async
	for i := 1; i < len(a.ws); i++ {
		s := except + i
		if s >= len(a.ws) {
			s -= len(a.ws)
		}
		w := &a.ws[s]
		if w.q.Empty() {
			continue
		}
		st := t.lockShardWrite(s)
		if !w.q.Empty() && w.busy.CompareAndSwap(false, true) {
			a.steals.Add(1)
			t.drainLocked(s, st, w)
			t.unlockShardWrite(s)
			return true
		}
		t.unlockShardWrite(s)
	}
	return false
}

// drainExclusive empties shard s's submission ring into st, its state,
// during a transition. The caller holds the shard's write guard
// exclusively, so no depositor can race and the writer token is
// necessarily free (every holder takes it under the shared guard): the CAS
// always wins on the spot.
func (t *ShardedTree) drainExclusive(s int, st *shardState) {
	w := &t.async.ws[s]
	if !w.busy.CompareAndSwap(false, true) {
		panic("hot: shard writer token held during a transition")
	}
	t.drainLocked(s, st, w)
}

// run is the one way operations enter shard s. st is the shard's state,
// kept current by the caller's write guard (lockShardWrite). The ops are
// first, when it has a Kind, and then up to slice ops popped from the
// shard's ring (callers passing slice > 0 hold the writer token). All of
// them run under the shard's writer lock, durable or not, through
// shardState.apply. On a durable tree each op is appended to the
// shard's write-ahead log before it is applied, the pairs atomic under
// that lock so a cut is exact. What happens to the fsync depends on who is
// waiting for it. A synchronous run (commit: writeSync's one op)
// group-commits its own LSN after the lock is released — appends proceed
// while the fsync runs — and so pays for every record the shard still owed. An async run
// leaves its fsync owed to the next barrier (durableState.settle lists
// them): its ring ops count as applied as soon as they are, and Flush,
// which waits for exactly that, then settles the debt. Only an async run
// that finds maxOwedBytes of records waiting commits before it returns, so
// a submitter that never reaches a barrier cannot grow the log's buffer
// without bound. run returns first's result (old is Upsert's) and the
// number of ring ops it ran.
func (t *ShardedTree) run(s int, st *shardState, first shard.Op, slice int, commit bool) (old TID, ok bool, n int) {
	d, w := t.dur, &t.async.ws[s]
	var lsn, rejected uint64
	w.mu.Lock()
	if first.Kind != 0 {
		if d != nil {
			lsn = d.append(s, first)
		}
		old, ok = st.apply(first)
	}
	for ; n < slice; n++ {
		op, more := w.q.TryPop()
		if !more {
			break
		}
		if d != nil {
			lsn = d.append(s, op)
		}
		if _, done := st.apply(op); !done && op.Kind != shard.OpUpsert {
			rejected++
		}
	}
	w.mu.Unlock()
	if d != nil && lsn != 0 && (commit || d.wals[s].Buffered() >= maxOwedBytes) {
		d.commit(s, lsn)
	}
	if n > 0 {
		w.rejected.Add(rejected)
		w.applied.Add(uint64(n))
	}
	return old, ok, n
}

// applyOp is a hot shard's write (shardState.apply calls it): it applies
// op through w and returns what the op's synchronous method returns (old
// is Upsert's). A false ok on an insert or delete is the no-op the async
// accounting calls rejected.
func applyOp(w core.Writer, op shard.Op) (old TID, ok bool) {
	switch op.Kind {
	case shard.OpInsert:
		return 0, w.Insert(op.Key, op.TID)
	case shard.OpUpsert:
		return w.Upsert(op.Key, op.TID)
	default:
		return 0, w.Delete(op.Key)
	}
}

// replay applies one logged record to shard s — recovery's log tail and the
// follower's — verbatim and never logged: a rejected insert or absent
// delete replays as the no-op it was live. The record passes the tree's
// check (deletes carry no TID and skip it), and a key outside the shard's
// range means the record belongs to a different boundary generation (or is
// corrupt despite its CRC) and rejects it, cutting the log there. A shard
// recovered cold stays cold: its tail goes to its delta, exactly as it did
// live. replay writes through the exclusive Writer without the writer lock: its
// callers are recovery, before the tree is returned, and a follower's one
// feed goroutine, so it is the shard's only writer by construction.
func (t *ShardedTree) replay(s int, op shard.Op) error {
	if t.check != nil && op.Kind != shard.OpDelete {
		if err := t.check(op.Key, op.TID); err != nil {
			return err
		}
	}
	if !shard.Check(t.bounds, s, op.Key) {
		return &SnapshotError{Kind: persist.ErrCorrupt,
			Detail: fmt.Sprintf("log record key %q outside shard %d's range", op.Key, s)}
	}
	t.shards[s].Load().apply(op)
	return nil
}

// queueOpStats folds the submission-queue counters into an aggregated
// OpStats snapshot.
func (a *asyncState) queueOpStats(o *OpStats) {
	o.Enqueued = a.enqueued.Load()
	o.Steals = a.steals.Load()
	o.Drains = a.drains.Load()
	o.Drained = a.drained.Load()
	o.QueueFull = a.queueFull.Load()
	depth := 0
	for i := range a.ws {
		depth += a.ws[i].q.Len()
	}
	o.QueueDepth = uint64(depth)
}
