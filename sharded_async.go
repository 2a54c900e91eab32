package hot

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/hotindex/hot/internal/core"
	"github.com/hotindex/hot/internal/persist"
	"github.com/hotindex/hot/internal/shard"
)

// This file is ShardedTree's write path. Every operation reaches a shard
// through one function, run, whether it came from a synchronous method
// (Insert, Upsert, Delete) or an async one (InsertAsync, UpsertAsync,
// DeleteAsync). run holds the shard's writer lock and writes through the
// exclusive core.Writer of the shard's delta (cold.go: a hot shard's whole
// trie) — so a shard has one writer at a time and runs no ROWEX: no node
// locks, no validation, no restarts — readers stay wait-free. The unit of
// write parallelism is the shard.
//
// The two kinds of write differ only in what they wait for. Both are
// applied before the call returns. A synchronous write on a durable tree
// also waits for its fsync; an async write leaves it owed to the shard's
// next barrier (Flush, and the others durable.go lists) and counts in
// Flush's applied and rejected totals. So the async ops of one goroutine
// apply in call order (per-key FIFO per submitter); ops of different
// goroutines, or a mix of async and synchronous writes to the same key,
// are unordered unless externally synchronized.
//
// There is no submission queue in front of the writer lock. A queue would
// let a writer return before its op is applied, and on the server's
// pipelined writes, the async path's one production caller, it measured no
// faster (DESIGN.md "Async writes").

// asyncShard is one shard's writer lock and its async accounting — per
// shard, so the per-op path never touches a tree-global cache line shared
// with other shards' writers.
type asyncShard struct {
	// mu is the shard's writer lock: run holds it around every write, and
	// on a durable tree around the write's log append too, so a cut, Close
	// or replication bootstrap taken under it sees the log and the trie
	// agree (durable_sharded.go).
	mu       sync.Mutex
	applied  atomic.Uint64 // async ops applied to this shard
	rejected atomic.Uint64 // applied async ops that were no-ops (dup insert / absent delete)
	_        [40]byte      // pad to a cache line: no false sharing between shards
}

// InsertAsync inserts tid under key like Insert, but returns without
// waiting for the write's fsync: the op is applied — visible to every
// reader — before the call returns, and durable once Flush returns (see
// durable.go; the same holds for UpsertAsync and DeleteAsync). A duplicate
// key makes the op a no-op counted in Flush's rejected total (the async
// analogue of Insert returning false).
func (t *ShardedTree) InsertAsync(key []byte, tid TID) {
	t.run(shard.Op{Key: key, TID: tid, Kind: shard.OpInsert}, true)
}

// UpsertAsync upserts tid under key with InsertAsync's contract: inserted
// or overwritten, never rejected.
func (t *ShardedTree) UpsertAsync(key []byte, tid TID) {
	t.run(shard.Op{Key: key, TID: tid, Kind: shard.OpUpsert}, true)
}

// DeleteAsync deletes key with InsertAsync's contract. Deleting an absent
// key makes the op a no-op counted in Flush's rejected total.
func (t *ShardedTree) DeleteAsync(key []byte) {
	t.run(shard.Op{Key: key, Kind: shard.OpDelete}, true)
}

// checkOp is the contract check of every write entrance, synchronous and
// async alike, made before routing and before any lock is taken: a
// malformed op panics on the calling goroutine with one message and leaves
// nothing held — not the write guard, and not the writer lock around the
// trie and the log.
func checkOp(key []byte, tid TID) {
	if len(key) > MaxKeyLen {
		panic("hot: key exceeds MaxKeyLen")
	}
	if tid > MaxTID {
		panic("hot: TID exceeds MaxTID")
	}
}

// Flush is the async barrier. Every async op is applied before its call
// returns; on a durable tree Flush pays the fsyncs those ops left owed
// (durableState.settle), so that when it returns every async op that
// returned before the call is durable too — this is the acknowledgement
// point of an async write. It returns the cumulative totals since
// construction: applied counts async ops applied to their shard, rejected
// the subset that were no-ops (duplicate inserts, absent deletes) —
// callers track deltas across phases. A log failure panics, like a
// synchronous write's.
func (t *ShardedTree) Flush() (applied, rejected uint64) {
	if t.dur != nil {
		t.dur.settle()
	}
	for i := range t.async {
		applied += t.async[i].applied.Load()
		rejected += t.async[i].rejected.Load()
	}
	return applied, rejected
}

// run is the one way an operation enters a shard: it checks op, routes
// it, loads the shard's state under its shared write guard
// (lockShardWrite) and, under the shard's writer lock, applies op through
// shardState.apply. On a durable tree op is appended to the shard's
// write-ahead log before it is applied, the pair atomic under that lock so
// a cut is exact. What happens to the fsync depends on who is waiting for
// it. A synchronous write group-commits its own LSN after the lock is
// released — appends proceed while the fsync runs — and so pays for every
// record the shard still owed. An async write leaves its fsync owed to the
// next barrier (durableState.settle lists them), unless it finds
// maxOwedBytes of records waiting: then it commits before it returns, so a
// submitter that never reaches a barrier cannot grow the log's buffer
// without bound. run returns what the op's synchronous method returns (old
// is Upsert's).
func (t *ShardedTree) run(op shard.Op, async bool) (old TID, ok bool) {
	checkOp(op.Key, op.TID)
	s := shard.Find(t.bounds, op.Key)
	st := t.lockShardWrite(s)
	d, w := t.dur, &t.async[s]
	var lsn uint64
	w.mu.Lock()
	if d != nil {
		lsn = d.append(s, op)
	}
	old, ok = st.apply(op)
	w.mu.Unlock()
	if d != nil && (!async || d.wals[s].Buffered() >= maxOwedBytes) {
		d.commit(s, lsn)
	}
	t.unlockShardWrite(s)
	if async {
		if !ok && op.Kind != shard.OpUpsert {
			w.rejected.Add(1)
		}
		w.applied.Add(1)
	}
	return old, ok
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
