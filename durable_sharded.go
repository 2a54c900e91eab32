package hot

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"github.com/hotindex/hot/internal/persist"
	"github.com/hotindex/hot/internal/shard"
	"github.com/hotindex/hot/internal/tidstore"
)

// Durable mode for the sharded index types: one write-ahead log per shard,
// so logging scales with the shards exactly like the writes themselves —
// shards share no log file, no commit lock and no fsync. See durable.go
// for the acknowledgement contract.
//
// Consistency hinges on one invariant: a shard's {log append, trie apply}
// pair is atomic under the shard's commit lock. The fsync happens outside
// the lock (group commit), but the cut a Checkpoint takes while holding
// every commit lock is therefore exact — no operation is ever logged but
// unapplied or applied but unlogged at the cut — so the snapshot written
// at the cut covers precisely LSNs ≤ cut and each log can be rotated to
// base = cut. Recovery replays each log's tail verbatim (inserts re-apply
// as inserts, rejections and all), which converges to the pre-crash state
// even when the snapshot is newer than a log's base (a crash between the
// snapshot rename and a rotation): every key's final value is decided by
// the last record touching it, or by the snapshot if no tail record does.

// durableState is the write-ahead side of a durable ShardedTree.
type durableState struct {
	dir    string
	kind   uint16 // snapshot section kind written at checkpoints
	mu     []paddedMutex
	wals   []*persist.WAL
	ckpt   sync.Mutex  // serializes Checkpoint, Close and replication sessions
	closed atomic.Bool // set by Close under every commit lock
}

// paddedMutex keeps the per-shard commit locks on separate cache lines, in
// the spirit of asyncShard's padding.
type paddedMutex struct {
	sync.Mutex
	_ [56]byte
}

func durableWalName(s int) string { return fmt.Sprintf("wal-%03d.log", s) }

func (d *durableState) snapPath() string { return filepath.Join(d.dir, durableSnapName) }

// append logs one operation to shard s's log. Callers hold d.mu[s]. A log
// failure panics: the store can no longer honor its durability contract
// (see durable.go). Writing after Close is a caller bug and panics with a
// clear message — the check is race-free because Close sets the flag while
// holding every commit lock.
func (d *durableState) append(s int, op shard.Op) uint64 {
	if d.closed.Load() {
		panic("hot: write to a closed durable index")
	}
	var wop persist.WalOp
	switch op.Kind {
	case shard.OpInsert:
		wop = persist.WalInsert
	case shard.OpUpsert:
		wop = persist.WalUpsert
	default:
		wop = persist.WalDelete
	}
	lsn, err := d.wals[s].Append(wop, op.Key, op.TID)
	if err != nil {
		panic(fmt.Sprintf("hot: shard %d write-ahead append failed: %v", s, err))
	}
	return lsn
}

// commit group-commits shard s's log through lsn, panicking on failure.
// Callers must NOT hold d.mu[s]: appends proceed while the fsync runs.
func (d *durableState) commit(s int, lsn uint64) {
	if err := d.wals[s].Commit(lsn); err != nil {
		panic(fmt.Sprintf("hot: shard %d log commit failed: %v", s, err))
	}
}

// Synchronous durable write paths: pin the shard hot under its shared
// write guard (promoting a cold shard first — a no-op without a cold
// tier), log under the commit lock, apply, then group-commit outside the
// commit lock but still under the guard, so a demotion's cut never falls
// between an append and its fsync.

func (d *durableState) insert(t *ShardedTree, s int, key []byte, tid TID) bool {
	tr := t.lockShardWrite(s)
	d.mu[s].Lock()
	lsn := d.append(s, shard.Op{Key: key, TID: tid, Kind: shard.OpInsert})
	ok := tr.Insert(key, tid)
	d.mu[s].Unlock()
	d.commit(s, lsn)
	t.unlockShardWrite(s)
	return ok
}

func (d *durableState) upsert(t *ShardedTree, s int, key []byte, tid TID) (TID, bool) {
	tr := t.lockShardWrite(s)
	d.mu[s].Lock()
	lsn := d.append(s, shard.Op{Key: key, TID: tid, Kind: shard.OpUpsert})
	old, replaced := tr.Upsert(key, tid)
	d.mu[s].Unlock()
	d.commit(s, lsn)
	t.unlockShardWrite(s)
	return old, replaced
}

func (d *durableState) delete(t *ShardedTree, s int, key []byte) bool {
	tr := t.lockShardWrite(s)
	d.mu[s].Lock()
	lsn := d.append(s, shard.Op{Key: key, Kind: shard.OpDelete})
	ok := tr.Delete(key)
	d.mu[s].Unlock()
	d.commit(s, lsn)
	t.unlockShardWrite(s)
	return ok
}

// Durable reports whether the tree was opened in durable (write-ahead
// logged) mode.
func (t *ShardedTree) Durable() bool { return t.dur != nil }

// LogSize returns the total byte length of the per-shard write-ahead logs
// — what a Checkpoint would truncate. It returns 0 for a non-durable tree.
func (t *ShardedTree) LogSize() int64 {
	if t.dur == nil {
		return 0
	}
	var n int64
	for _, w := range t.dur.wals {
		n += w.Size()
	}
	return n
}

// Checkpoint durably snapshots the whole tree and rotates every shard's
// log behind it, bounding recovery replay to what comes after. It holds
// every shard's commit lock for the duration — writers block, readers are
// unaffected — so the cut is exact: the snapshot covers precisely the
// records each log held, and each rotated log restarts at that base.
//
// Failure semantics: if writing the snapshot fails, the previous snapshot
// and the full logs are untouched (AtomicFile never replaces its target on
// error) and the store keeps running. If a log rotation fails, the new
// snapshot is already installed and a failure at shard k leaves shards < k
// rotated and shards ≥ k not. That on-disk state recovers exactly —
// replaying log records the snapshot already covers is a verbatim replay
// that converges to the same tree — but the live store can no longer bound
// its replay or promise future rotations, so a rotation failure poisons
// every shard's log: Checkpoint returns the error and any subsequent write
// panics like any other log failure. Reopen the directory to recover.
func (t *ShardedTree) Checkpoint() error {
	d := t.dur
	if d == nil {
		return errNotDurable
	}
	d.ckpt.Lock()
	defer d.ckpt.Unlock()
	if d.closed.Load() {
		return ErrClosed
	}
	for s := range d.mu {
		d.mu[s].Lock()
	}
	defer func() {
		for s := range d.mu {
			d.mu[s].Unlock()
		}
	}()
	if err := persist.AtomicFile(d.snapPath(), func(w io.Writer) error {
		return t.writeSections(w, d.kind)
	}); err != nil {
		return err
	}
	for s := range d.wals {
		// A hot shard's stale cold file (left by a demotion it has since
		// been promoted out of, or by a previous ColdTier-enabled process
		// whose section this open folded back into memory) is superseded
		// by the snapshot just written and MUST go before this shard's
		// log rotates: recovery prefers a cold file over the snapshot
		// section, so rotating first would crash-expose a window where
		// the stale image plus an empty log replays to old data. A cold
		// shard keeps its file — that file IS its durable state.
		if t.shards[s].cold.Load() == nil {
			if err := os.Remove(filepath.Join(d.dir, coldFileName(s))); err != nil && !os.IsNotExist(err) {
				perr := fmt.Errorf("hot: removing shard %d's stale cold file after the snapshot was replaced: %w", s, err)
				for _, w := range d.wals {
					w.Poison(perr)
				}
				return perr
			}
		}
		if err := d.wals[s].Rotate(d.wals[s].LastLSN()); err != nil {
			perr := fmt.Errorf("hot: rotating shard %d log after the snapshot was replaced: %w", s, err)
			for _, w := range d.wals {
				w.Poison(perr)
			}
			return perr
		}
	}
	return nil
}

// Close flushes the async backlog, makes every logged write durable, and
// closes the logs. On a non-durable tree it is just the Flush barrier.
// Close is idempotent — a second call returns nil without touching the
// logs. The tree must not be written after Close: durable writes panic
// with a clear error instead of failing deep inside the log layer.
func (t *ShardedTree) Close() error {
	d := t.dur
	if d == nil {
		t.Flush()
		return nil
	}
	d.ckpt.Lock()
	defer d.ckpt.Unlock()
	if d.closed.Load() {
		return nil
	}
	t.Flush()
	// Set the closed flag under every commit lock, so it is ordered against
	// all in-flight appends: any write that got its lock first is logged and
	// closed out below; any write that gets its lock later panics cleanly.
	for s := range d.mu {
		d.mu[s].Lock()
	}
	d.closed.Store(true)
	for s := range d.mu {
		d.mu[s].Unlock()
	}
	var first error
	for s := range d.wals {
		if err := d.wals[s].Close(); err != nil && first == nil {
			first = fmt.Errorf("hot: closing shard %d log: %w", s, err)
		}
	}
	return first
}

// replayShardOp applies one replayed log record to shard s, verbatim: a
// rejected insert or absent delete replays as the no-op it was live. A key
// outside the shard's range means the record belongs to a different
// boundary generation (or is corrupt despite its CRC) and rejects the
// record, cutting the log there. A shard recovered cold is materialized
// lazily by its first replayed record (mustTree promotes it); shards
// whose log tail is empty stay cold through recovery.
func (t *ShardedTree) replayShardOp(s int, op persist.WalOp, key []byte, tid uint64) error {
	if !shard.Check(t.bounds, s, key) {
		return &SnapshotError{Kind: persist.ErrCorrupt,
			Detail: fmt.Sprintf("log record key %q outside shard %d's range", key, s)}
	}
	tr := t.mustTree(s)
	switch op {
	case persist.WalInsert:
		tr.Insert(key, tid)
	case persist.WalUpsert:
		tr.Upsert(key, tid)
	case persist.WalDelete:
		tr.Delete(key)
	}
	return nil
}

// OpenDurableShardedTree opens (or creates) the durable sharded tree
// stored in dir: `snap.hot` (the newest checkpoint snapshot, which also
// records the shard boundaries) plus one `wal-NNN.log` per shard.
// Recovery loads the snapshot — salvaging its longest valid prefix if
// damaged — then replays each shard's log tail, truncating torn tails.
// The shards and sample arguments are used only when dir holds no
// snapshot yet (first open); an existing snapshot's boundary table always
// wins, so the sample need not be stable across runs. The loader must
// resolve TIDs exactly as in past runs.
func OpenDurableShardedTree(dir string, loader Loader, shards int, sample [][]byte, opts DurableOptions) (*ShardedTree, RecoveryInfo, error) {
	if loader == nil {
		panic("hot: nil Loader")
	}
	return openDurableSharded(dir, loader, persist.KindTree, nil, shards, sample, opts)
}

func openDurableSharded(dir string, loader Loader, kind uint16, check func(key []byte, tid TID) error, shards int, sample [][]byte, opts DurableOptions) (*ShardedTree, RecoveryInfo, error) {
	var info RecoveryInfo
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, info, err
	}
	if re := opts.RecoverEntry; re != nil {
		inner := check
		check = func(key []byte, tid TID) error {
			if inner != nil {
				if err := inner(key, tid); err != nil {
					return err
				}
			}
			return re(key, tid)
		}
	}
	// Discover per-shard cold section files (see cold.go). A valid
	// cold-NNN.hot is always at least as new as the shard's snap.hot
	// section — demotion rotates the shard's log at the section cut — so
	// it supersedes the section as the shard's recovery base. A cold file
	// that no longer opens is a hard error: unlike a torn WAL tail (an
	// expected crash artifact), a rotten cold section held acknowledged
	// data and needs operator attention.
	coldReaders := map[int]*persist.PageReader{}
	closeColds := func() {
		for _, pr := range coldReaders {
			pr.Close()
		}
	}
	if coldFiles, gerr := filepath.Glob(filepath.Join(dir, "cold-*.hot")); gerr != nil {
		return nil, info, gerr
	} else {
		for _, p := range coldFiles {
			var s int
			if _, serr := fmt.Sscanf(filepath.Base(p), "cold-%03d.hot", &s); serr != nil {
				continue
			}
			pr, oerr := persist.OpenPageReaderFile(p, kind)
			if oerr != nil {
				closeColds()
				return nil, info, fmt.Errorf("hot: opening shard %d cold section %s: %w", s, filepath.Base(p), oerr)
			}
			coldReaders[s] = pr
		}
	}
	snap := filepath.Join(dir, durableSnapName)
	var t *ShardedTree
	if _, err := os.Stat(snap); err == nil {
		f, oerr := os.Open(snap)
		if oerr != nil {
			closeColds()
			return nil, info, oerr
		}
		nt, rep, lerr := readSharded(f, kind, loader, check, true, func(i int) bool {
			_, cold := coldReaders[i]
			return cold
		})
		f.Close()
		if lerr != nil {
			// Unusable manifest: without the boundary table the logs
			// cannot be routed, so recovery needs operator attention.
			closeColds()
			return nil, info, lerr
		}
		t = nt
		info.SnapshotEntries = rep.Entries
		if !rep.Complete {
			info.SnapshotDamage = rep.Damage
		}
	} else if !os.IsNotExist(err) {
		closeColds()
		return nil, info, err
	}
	fresh := t == nil
	if fresh {
		if shards < 1 {
			panic("hot: shard count must be >= 1")
		}
		// A fresh open must find a truly fresh directory. Write-ahead logs
		// without their snapshot mean the snapshot was lost, not that the
		// store is new: re-deriving boundaries from the (possibly different)
		// sample would overwrite what remains of the old boundary table, and
		// replay would then cut every log record routed outside its new
		// shard's range — silently discarding acknowledged writes. Refuse.
		if logs, err := filepath.Glob(filepath.Join(dir, "wal-*.log")); err != nil {
			closeColds()
			return nil, info, err
		} else if len(logs) > 0 || len(coldReaders) > 0 {
			names := make([]string, len(logs))
			for i, l := range logs {
				names[i] = filepath.Base(l)
			}
			// Cold section files without their snapshot mean the same
			// thing as orphaned logs: the directory held acknowledged
			// writes whose boundary table is gone.
			for s := range coldReaders {
				names = append(names, coldFileName(s))
			}
			closeColds()
			return nil, info, &OrphanedLogError{Dir: dir, Logs: names}
		}
		t = newShardedFromBounds(loader, shard.Boundaries(shards, sample))
	}
	t.SetSnapshotCodec(opts.Codec)
	d := &durableState{dir: dir, kind: kind,
		mu:   make([]paddedMutex, len(t.shards)),
		wals: make([]*persist.WAL, len(t.shards))}
	if fresh {
		// First durable open: persist the (empty) tree immediately so the
		// shard boundaries are on disk. Recovery always restores bounds
		// from the snapshot — never re-derives them from a sample that
		// might differ between runs and misroute every log record.
		if err := persist.AtomicFile(snap, func(w io.Writer) error {
			return t.writeSections(w, kind)
		}); err != nil {
			return nil, info, err
		}
	}
	for s := range coldReaders {
		if s >= len(t.shards) {
			closeColds()
			return nil, info, fmt.Errorf("hot: %s names shard %d but the snapshot manifest defines %d shards",
				coldFileName(s), s, len(t.shards))
		}
	}
	if opts.ColdTier != nil {
		// Arm the cold tier before replay, so cold-recovered shards can
		// be lazily materialized by their first log record. The cold
		// files live in the durable directory by construction. armCold
		// (not enableCold) on purpose: the shards that were cold in the
		// previous run still hold empty placeholder tries at this point,
		// and enableCold's immediate budget pass could demote one —
		// overwriting its real cold file, the shard's only durable copy,
		// with an empty section. The first pass runs at the end of this
		// open instead, once the cold readers are installed and the logs
		// replayed.
		cfg := *opts.ColdTier
		cfg.Dir = dir
		if _, err := t.armCold(cfg, kind); err != nil {
			closeColds()
			return nil, info, err
		}
	}
	if ct := t.cold.Load(); ct != nil {
		for s, pr := range coldReaders {
			if check != nil {
				// The caller's recovery hook (RecoverEntry, set-entry
				// validation) must still see every cold entry — a later
				// promotion resolves the shard's TIDs through the
				// caller's loader state, which is rebuilt right here.
				n, werr := walkPageReader(pr, check)
				info.SnapshotEntries += n
				if werr != nil {
					closeColds()
					return nil, info, fmt.Errorf("hot: shard %d cold section: %w", s, werr)
				}
			}
			gen := ct.ws[s].gen.Add(1)
			t.shards[s].cold.Store(&coldShard{ct: ct, pr: pr, shard: s, gen: gen})
			t.shards[s].tree.Store(nil)
		}
	} else {
		// This run has no cold tier: fold the sections back into the
		// in-memory tries. The files stay on disk — the next Checkpoint
		// removes them once the snapshot supersedes them.
		for s, pr := range coldReaders {
			n, werr := walkPageReader(pr, t.shardSink(s, check))
			info.SnapshotEntries += n
			pr.Close()
			if werr != nil {
				closeColds()
				return nil, info, fmt.Errorf("hot: shard %d cold section: %w", s, werr)
			}
		}
	}
	for s := range t.shards {
		s := s
		w, rep, err := resumeWAL(filepath.Join(dir, durableWalName(s)), func(op persist.WalOp, key []byte, tid uint64) error {
			if check != nil && op != persist.WalDelete {
				if cerr := check(key, tid); cerr != nil {
					return cerr
				}
			}
			return t.replayShardOp(s, op, key, tid)
		}, opts.GroupCommitDelay)
		if err != nil {
			for _, pw := range d.wals {
				if pw != nil {
					pw.Close()
				}
			}
			closeColds()
			return nil, info, fmt.Errorf("hot: recovering shard %d log: %w", s, err)
		}
		d.wals[s] = w
		info.noteWALDamage(rep)
	}
	t.dur = d
	// Shards still cold after replay (their log tails were empty) start
	// this run cold; replayed shards were materialized by mustTree.
	for s := range t.shards {
		if t.shards[s].cold.Load() != nil {
			info.ColdShards++
		}
	}
	if ct := t.cold.Load(); ct != nil && ct.budget > 0 {
		// The budget pass deferred from armCold: every shard slot now
		// holds its real backing, so a tree loaded above budget demotes
		// genuinely resident shards — never a placeholder standing in
		// for a not-yet-installed cold section.
		ct.maintain()
	}
	return t, info, nil
}

// walkPageReader streams every entry of a cold section file through fn,
// block by block, returning how many entries fn accepted.
func walkPageReader(pr *persist.PageReader, fn func(key []byte, tid TID) error) (uint64, error) {
	var n uint64
	for i := 0; i < pr.Blocks(); i++ {
		p, err := pr.ReadBlock(i)
		if err != nil {
			return n, err
		}
		for j := 0; j < p.Len(); j++ {
			if err := fn(p.Key(j), p.TID(j)); err != nil {
				return n, err
			}
			n++
		}
	}
	return n, nil
}

// ---- ShardedUint64Set ----

// OpenDurableShardedUint64Set opens (or creates) the durable sharded
// integer set stored in dir (see OpenDurableShardedTree; the sample seeds
// the shard boundaries on first open only).
func OpenDurableShardedUint64Set(dir string, shards int, sample []uint64, opts DurableOptions) (*ShardedUint64Set, RecoveryInfo, error) {
	skeys := make([][]byte, len(sample))
	flat := make([]byte, 8*len(sample))
	for i, v := range sample {
		binary.BigEndian.PutUint64(flat[8*i:], v)
		skeys[i] = flat[8*i : 8*i+8]
	}
	t, info, err := openDurableSharded(dir, tidstore.Uint64Key, persist.KindUint64Set, checkSetEntry, shards, skeys, opts)
	if err != nil {
		return nil, info, err
	}
	return &ShardedUint64Set{t: t}, info, nil
}

// Durable reports whether the set was opened in durable mode.
func (s *ShardedUint64Set) Durable() bool { return s.t.Durable() }

// LogSize returns the total byte length of the per-shard write-ahead logs.
func (s *ShardedUint64Set) LogSize() int64 { return s.t.LogSize() }

// Checkpoint durably snapshots the set and rotates the logs behind it (see
// ShardedTree.Checkpoint).
func (s *ShardedUint64Set) Checkpoint() error { return s.t.Checkpoint() }

// Close flushes the async backlog, makes every logged write durable and
// closes the logs (see ShardedTree.Close).
func (s *ShardedUint64Set) Close() error { return s.t.Close() }
