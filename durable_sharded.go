package hot

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"github.com/hotindex/hot/internal/persist"
	"github.com/hotindex/hot/internal/shard"
)

// Durable mode for ShardedTree: one write-ahead log per shard, so logging
// scales with the shards exactly like the writes themselves — shards share
// no log file, no lock and no fsync. See durable.go for the
// acknowledgement contract. This file holds the log's two
// primitives (append, commit), the barrier that pays the fsyncs async
// writes leave owed (settle), the cut that retires a log behind a base,
// and the open; the function that couples append and apply, and commit
// when its caller waits for it, is ShardedTree.run (sharded_async.go), and
// a base enters a shard through ShardedTree.load (sharded_snapshot.go) —
// there is no durable-only write path and no recovery-only loader.
//
// The durable directory holds, for N shards:
//
//	snap.hot      the manifest (boundary table), written once at first open
//	snap-NNN.hot  shard NNN's base, with the HIDX block index, written by
//	              every cut: a Checkpoint, a Demote, a budget fold
//	wal-NNN.log   shard NNN's records since its base
//
// A directory written before the one base kind may also hold a legacy
// cold-NNN.hot, a demotion's base: recovery reads it when the shard has no
// snap-NNN.hot, and the shard's next cut removes it. A shard has at most one
// base in steady state and none before its first cut; the open option, not
// the file, decides how it is recovered (recoverBase). Consistency hinges on
// one invariant: a shard's {log append, trie apply} pair is atomic under the
// shard's writer lock (asyncShard.mu), so a cut taken under that lock is
// exact — the base covers precisely the LSNs the log held, every one of them
// synced to the log file before the base is written, and the log restarts
// there. One ordering rule covers every crash: a cut removes the superseded
// legacy base only BEFORE it rotates the log, so whenever two bases coexist
// the log still holds every record since the older one, and replaying it
// verbatim (inserts re-apply as inserts, rejections and all) over either
// converges to the pre-crash state — every key's final value is decided by
// the last record touching it, or by the base if no record does.

// durableState is the write-ahead side of a durable ShardedTree.
type durableState struct {
	dir    string
	wals   []*persist.WAL
	ckpt   sync.Mutex  // serializes Checkpoint, Demote, Close and replication sessions
	closed atomic.Bool // set by Close under every shard's writer lock
}

func durableWalName(s int) string { return fmt.Sprintf("wal-%03d.log", s) }

func snapFileName(s int) string { return fmt.Sprintf("snap-%03d.hot", s) }

// shard.OpKind borrows the log's record codes — the WAL byte is the
// on-disk format and does not move — so logging and replaying an op are
// conversions. A drift between the two enumerations fails to compile here:
// the index is then a negative or out-of-range constant.
var (
	_ = [1]struct{}{}[shard.OpInsert-shard.OpKind(persist.WalInsert)]
	_ = [1]struct{}{}[shard.OpUpsert-shard.OpKind(persist.WalUpsert)]
	_ = [1]struct{}{}[shard.OpDelete-shard.OpKind(persist.WalDelete)]
)

// append logs one operation to shard s's log. Callers hold the shard's
// writer lock. A log failure panics: the store can no longer honor its
// durability contract (see durable.go). Writing after Close is a caller bug
// and panics with a clear message — the check is race-free because Close
// sets the flag while holding every writer lock.
func (d *durableState) append(s int, op shard.Op) uint64 {
	if d.closed.Load() {
		panic("hot: write to a closed durable index")
	}
	lsn, err := d.wals[s].Append(persist.WalOp(op.Kind), op.Key, op.TID)
	if err != nil {
		panic(fmt.Sprintf("hot: shard %d write-ahead append failed: %v", s, err))
	}
	return lsn
}

// commit group-commits shard s's log through lsn, panicking on failure.
// Callers must NOT hold the shard's writer lock: appends proceed while the
// fsync runs.
func (d *durableState) commit(s int, lsn uint64) {
	if err := d.wals[s].Commit(lsn); err != nil {
		panic(fmt.Sprintf("hot: shard %d log commit failed: %v", s, err))
	}
}

// maxOwedBytes bounds the fsync debt one shard may carry: an async write
// that finds this many bytes of appended records not yet written to the log
// commits before it returns (ShardedTree.run). About 3 700 records of a
// 55-byte key — far more than any submitter that reaches a barrier now and
// then accumulates, and little enough that one that never does holds at
// most this much per shard in memory and at risk.
const maxOwedBytes = 256 << 10

// settle pays the fsyncs async writes left owed. An async write is appended
// and applied at once and becomes durable at the shard's next barrier:
// this one (Flush), a synchronous write to the shard (its commit covers
// every earlier record), a cut or a replication bootstrap of the shard
// (both sync before they read its state), a pass of a replication tailer,
// the maxOwedBytes bound, or Close. settle commits every shard whose log
// holds records past its durable LSN — the last of them on the calling
// goroutine, the others each on one of their own — so a barrier behind
// writes to k shards costs one round of k overlapped fsyncs, and a barrier
// behind one write costs exactly the one inline fsync a synchronous write
// does. A shard someone else is already syncing is waited for, not synced
// twice (the log's group commit). A failure panics, as in commit.
func (d *durableState) settle() {
	var wg sync.WaitGroup
	errs := make([]error, len(d.wals))
	last := -1
	for s, w := range d.wals {
		if w.LastLSN() == w.DurableLSN() {
			continue
		}
		if last >= 0 {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				errs[s] = d.wals[s].Sync()
			}(last)
		}
		last = s
	}
	if last >= 0 {
		errs[last] = d.wals[last].Sync()
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			panic(fmt.Sprintf("hot: shard %d log commit failed: %v", s, err))
		}
	}
}

// poison fails the store as a unit: every shard's log refuses further
// appends, commits and rotations with err, which poison returns.
func (d *durableState) poison(err error) error {
	for _, w := range d.wals {
		w.Poison(err)
	}
	return err
}

// clean reports whether shard s needs no cut: its log holds no record past
// its base, whichever file that base is.
func (d *durableState) clean(s int) bool {
	w := d.wals[s]
	return w.Err() == nil && w.LastLSN() == w.Base()
}

// cut is the one way a shard's state becomes its base: under the shard's
// writer lock it makes the shard's log durable through its last LSN, streams
// the shard's walk (shardState.walk) to an indexed snap-NNN.hot through the
// crash-safe file protocol, removes a legacy cold-NNN.hot the new file
// supersedes, and only then rotates the shard's log to that LSN (the
// ordering rule of the file comment). The fresh file becomes the shard's
// section — served through the cold tier (coldTier.install) — when the shard
// already had one or demote is set; a hot shard's Checkpoint cut leaves it
// hot. Serving is a transition: it holds the shard's exclusive write guard,
// and callers hold the tier's ct.mu. The sync comes first because a cut may
// fall between an async write's append and the fsync it left owed: the
// base would cover those records, and a crash after the base is
// installed but before the rotation would replay a log that stops short of
// its own base — some keys restored at the base's LSN, others rolled back to
// the log's. With the log synced first the rule holds as stated: the log on
// disk always reaches the base that supersedes it. Writers to every other
// shard proceed throughout. A failed sync or write leaves the previous base
// and the full log untouched (a failed sync has poisoned the shard's log);
// once the new base is installed, a failed remove or rotate leaves a
// directory that still recovers exactly but a live store that can no longer
// bound its replay, so it poisons every log. A non-durable tree (cut only by
// its cold tier) has no log: its cut is just the file.
func (t *ShardedTree) cut(s int, demote bool) error {
	d, ct, st := t.dur, t.cold.Load(), t.shards[s].Load()
	serve := ct != nil && (demote || st.pr != nil)
	if serve {
		ct.ws[s].wmu.Lock()
		defer ct.ws[s].wmu.Unlock()
	}
	w := &t.async[s]
	w.mu.Lock()
	defer w.mu.Unlock()
	var dir string
	if d != nil {
		dir = d.dir
		if err := d.wals[s].Sync(); err != nil {
			return fmt.Errorf("hot: syncing shard %d's log ahead of its cut: %w", s, err)
		}
	} else {
		dir = ct.dir
	}
	path := filepath.Join(dir, snapFileName(s))
	if err := persist.AtomicFile(path, func(w io.Writer) error {
		return writeSnapshot(w, persist.KindTree, t.SnapshotCodec(), true, st.walk)
	}); err != nil {
		return err
	}
	if d != nil {
		err := os.Remove(filepath.Join(dir, coldFileName(s)))
		if err == nil || os.IsNotExist(err) {
			err = d.wals[s].Rotate(d.wals[s].LastLSN())
		}
		if err != nil {
			return d.poison(fmt.Errorf("hot: retiring shard %d's log behind %s: %w", s, snapFileName(s), err))
		}
	}
	if serve {
		return ct.install(s, st, path)
	}
	return nil
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

// Checkpoint bounds recovery replay: it cuts every shard that has logged
// a record since its last cut — one shard at a time, holding only that
// shard's writer lock (and a cold shard's write guard), so writers to the
// other shards never stall and readers are unaffected — and rotates its
// log behind the new base, snap-NNN.hot. A hot shard stays hot; a cold
// shard is folded: its section and delta, merged, become the fresh file it
// is served from and its delta empties. A shard whose log did not move is
// skipped, whatever its base file, so a checkpoint costs what changed, not
// what is stored.
//
// Failure semantics: if writing a shard's file fails, that shard's
// previous base and full log are untouched (AtomicFile never replaces its
// target on error), the shards before it are already checkpointed, and the
// store keeps running. If a log rotation fails, the new base is already
// installed; that on-disk state recovers exactly — replaying log records
// the base already covers is a verbatim replay that converges to the same
// tree — but the live store can no longer bound its replay or promise
// future rotations, so the failure poisons every shard's log: Checkpoint
// returns the error and any subsequent write panics like any other log
// failure. Reopen the directory to recover.
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
	if ct := t.cold.Load(); ct != nil {
		ct.mu.Lock() // a cold shard's cut is a transition
		defer ct.mu.Unlock()
	}
	for s := range t.shards {
		if d.clean(s) {
			continue
		}
		if err := t.cut(s, false); err != nil {
			return err
		}
	}
	return nil
}

// Close makes every logged write durable — owed async writes included —
// and closes the logs, returning the first log error instead of panicking
// on it as Flush would. On a non-durable tree it does nothing.
// Close is idempotent — a second call returns nil without touching the
// logs. The tree must not be written after Close: durable writes panic
// with a clear error instead of failing deep inside the log layer.
func (t *ShardedTree) Close() error {
	d := t.dur
	if d == nil {
		return nil
	}
	d.ckpt.Lock()
	defer d.ckpt.Unlock()
	if d.closed.Load() {
		return nil
	}
	// Set the closed flag under every writer lock, so it is ordered against
	// all in-flight appends: any write that got its lock first is logged and
	// closed out below; any write that gets its lock later panics cleanly.
	ws := t.async
	for s := range ws {
		ws[s].mu.Lock()
	}
	d.closed.Store(true)
	for s := range ws {
		ws[s].mu.Unlock()
	}
	var first error
	for s := range d.wals {
		if err := d.wals[s].Close(); err != nil && first == nil {
			first = fmt.Errorf("hot: closing shard %d log: %w", s, err)
		}
	}
	return first
}

// OpenDurableShardedTree opens (or creates) the durable sharded tree
// stored in dir (see the file comment for the directory layout). Recovery
// reads the manifest, then shard by shard loads the shard's base —
// salvaging its longest valid prefix if damaged — and replays the shard's
// log tail, truncating a torn tail. The shards and sample arguments are
// used only when dir holds no manifest yet (first open); an existing
// boundary table always wins, so the sample need not be stable across
// runs. The loader must resolve TIDs exactly as in past runs.
func OpenDurableShardedTree(dir string, loader Loader, shards int, sample [][]byte, opts DurableOptions) (*ShardedTree, RecoveryInfo, error) {
	mustLoader(loader)
	var info RecoveryInfo
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, info, err
	}
	// RecoverEntry is the tree's check for the duration of the open and is
	// taken off again before the tree is returned: what enters a shard later
	// (a promotion's section) is none of the caller's hook's business.
	snap := filepath.Join(dir, durableSnapName)
	t, legacy, err := openManifest(snap, loader, opts.RecoverEntry, &info)
	if err != nil {
		// Unusable manifest: without the boundary table the logs cannot
		// be routed, so recovery needs operator attention.
		return nil, info, err
	}
	if t == nil {
		t = newSharded(loader, shards, sample)
		t.check = opts.RecoverEntry
		// A fresh open must find a truly fresh directory. Logs or shard
		// bases without the manifest mean the manifest was lost, not that
		// the store is new: re-deriving boundaries from the (possibly
		// different) sample would misroute every log record — replay cuts
		// a record routed outside its shard's range — silently discarding
		// acknowledged writes. Refuse.
		var orphans []string
		for _, pat := range []string{"wal-*.log", "cold-*.hot", "snap-*.hot"} {
			found, gerr := filepath.Glob(filepath.Join(dir, pat))
			if gerr != nil {
				return nil, info, gerr
			}
			for _, p := range found {
				orphans = append(orphans, filepath.Base(p))
			}
		}
		if len(orphans) > 0 {
			return nil, info, &OrphanedLogError{Dir: dir, Logs: orphans}
		}
		// Persist the boundaries before anything can be logged: recovery
		// always restores them from the manifest — never re-derives them
		// from a sample that might differ between runs.
		if err := persist.AtomicFile(snap, t.writeManifest); err != nil {
			return nil, info, err
		}
	}
	t.SetSnapshotCodec(opts.Codec)
	d := &durableState{dir: dir, wals: make([]*persist.WAL, len(t.shards))}
	fail := func(err error) (*ShardedTree, RecoveryInfo, error) {
		for s, w := range d.wals {
			if w != nil {
				w.Close()
			}
			if pr := t.shards[s].Load().pr; pr != nil {
				pr.Close()
			}
		}
		return nil, info, err
	}
	var ct *coldTier
	if opts.ColdTier != nil {
		// Arm without EnableColdTier's budget pass: that runs last, over
		// the recovered tree. The cold files live in the durable directory.
		cfg := *opts.ColdTier
		cfg.Dir = dir
		if ct, err = t.armCold(cfg); err != nil {
			return nil, info, err
		}
	}
	var recut []int
	for s := range t.shards {
		salvaged, err := t.recoverBase(s, dir, ct, legacy, &info)
		if err != nil {
			return fail(err)
		}
		w, rep, err := resumeWAL(filepath.Join(dir, durableWalName(s)), func(op persist.WalOp, key []byte, tid uint64) error {
			return t.replay(s, shard.Op{Key: key, TID: tid, Kind: shard.OpKind(op)})
		})
		if err != nil {
			return fail(fmt.Errorf("hot: recovering shard %d log: %w", s, err))
		}
		d.wals[s] = w
		info.noteWALDamage(rep)
		// A shard recovered cold starts this run cold, its tail, if any, in
		// its delta.
		st := t.shards[s].Load()
		if st.pr != nil {
			info.ColdShards++
		}
		if salvaged || legacy && st.pr == nil && st.len() > 0 {
			recut = append(recut, s)
		}
	}
	t.dur = d
	// Before the open returns, cut every shard whose base was salvaged — so
	// its damage is reported once, and a tiered open can serve it — and, the
	// one-way upgrade of a directory whose snap.hot carried the shard
	// sections, every shard with content, then shrink snap.hot to the
	// manifest. A crash in between re-runs this: a per-shard base beats its
	// legacy section.
	for _, s := range recut {
		if err := t.cut(s, false); err != nil {
			return fail(err)
		}
	}
	if legacy {
		if err := persist.AtomicFile(snap, t.writeManifest); err != nil {
			return fail(err)
		}
	}
	t.check = nil
	if ct != nil && ct.budget > 0 {
		ct.maintain()
	}
	return t, info, nil
}

// openManifest reads the manifest at path and returns the empty tree its
// boundary table defines, or a nil tree when the file does not exist. A
// snap.hot with bytes after the manifest is the legacy layout — manifest
// plus one section per shard in one file: it is loaded whole, salvaging
// past damage, and reported as legacy.
func openManifest(path string, loader Loader, check persist.EntryFunc, info *RecoveryInfo) (t *ShardedTree, legacy bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			err = nil
		}
		return nil, false, err
	}
	defer f.Close()
	if t, err = readManifest(f, loader, check); err != nil {
		return nil, false, err
	}
	var one [1]byte
	if n, _ := f.Read(one[:]); n == 0 {
		return t, false, nil
	}
	if _, err = f.Seek(0, io.SeekStart); err != nil {
		return nil, false, err
	}
	t, rep, err := readSharded(f, loader, check, true)
	if err != nil {
		return nil, false, err
	}
	info.SnapshotEntries = rep.Entries
	info.SnapshotDamage = rep.Damage
	return t, true, nil
}

// recoverBase installs shard s's base, if it has one, into its slot:
// snap-NNN.hot, else a legacy cold-NNN.hot (if a crash left both, either is
// correct — see the file comment — and snap-NNN.hot is taken). The open
// option decides how, never the file. Under a cold tier the base becomes
// the shard's section, nothing inserted: opened for paged reads and held to
// the shard's rules by vetCold; one that does not open or vet is a hard
// error — unlike a torn log tail (an expected crash artifact), it holds
// acknowledged data nothing else covers. Without a tier it is loaded
// sequentially through load, and damage is salvaged: the valid prefix
// loads, the first damage is reported, and salvaged asks the open for the
// cut that heals the shard. A base of another index kind is not damage but
// a foreign file, refused before anything is written under either option.
func (t *ShardedTree) recoverBase(s int, dir string, ct *coldTier, legacy bool, info *RecoveryInfo) (salvaged bool, err error) {
	path := filepath.Join(dir, snapFileName(s))
	if _, err := os.Stat(path); os.IsNotExist(err) {
		path = filepath.Join(dir, coldFileName(s))
	}
	if ct != nil {
		pr, err := persist.OpenPageReaderFile(path, persist.KindTree)
		if err == nil {
			if err = t.vetCold(s, pr); err != nil {
				pr.Close()
			}
		}
		if err != nil {
			if os.IsNotExist(err) {
				return false, nil
			}
			return false, fmt.Errorf("hot: shard %d base %s: %w", s, filepath.Base(path), err)
		}
		info.SnapshotEntries += pr.Count()
		t.shards[s].Store(ct.section(s, pr))
		return false, nil
	}
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			err = nil
		}
		return false, err
	}
	defer f.Close()
	tr := t.shards[s].Load().delta.Load()
	if legacy {
		// The per-shard base supersedes what the legacy section loaded.
		tr = t.newTrie()
		t.shards[s].Store(hotState(tr))
	}
	n, err := persist.Read(f, persist.KindTree, t.load(s, tr))
	info.SnapshotEntries += n
	if foreign(err) {
		return false, fmt.Errorf("hot: shard %d base %s: %w", s, filepath.Base(path), err)
	}
	if err != nil && info.SnapshotDamage == nil {
		errors.As(err, &info.SnapshotDamage)
	}
	return err != nil, nil
}

// walkPageReader streams every entry of a section file through fn, block
// by block.
func walkPageReader(pr *persist.PageReader, fn func(key []byte, tid TID) error) error {
	for i := 0; i < pr.Blocks(); i++ {
		p, err := pr.ReadBlock(i)
		if err != nil {
			return err
		}
		var it persist.PageIter
		for p.Seek(&it, nil); it.Valid(); it.Next() {
			if err := fn(it.Key(), it.TID()); err != nil {
				return err
			}
		}
	}
	return nil
}
