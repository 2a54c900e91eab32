package hot

import (
	"errors"
	"fmt"
	"os"

	"github.com/hotindex/hot/internal/persist"
)

// Durable mode: an opt-in write-ahead log under the in-memory index, so a
// crash — at any instruction — loses no acknowledged write. Every mutation
// is appended to an append-only log (internal/persist WAL format: per-
// record CRC32-C, monotonic LSNs) before it is applied, and acknowledged
// only after a group-committed fsync. Checkpoints bound replay time: a
// snapshot save records the checkpoint LSN and rotates the log behind it,
// and recovery is "load the newest valid snapshot, then replay the log
// tail", tolerant of torn tails and bit rot exactly like snapshot Recover.
//
// What "acknowledged" means:
//
//   - Synchronous writes (Insert/Upsert/Delete): durable when the call
//     returns.
//   - Asynchronous writes (InsertAsync/...): durable when Flush returns.
//     An async write is appended to its shard's log and applied — visible
//     to every reader — before the call returns, with no fsync: that is
//     left owed to the shard's next barrier. Flush is the barrier a caller
//     asks for: it syncs every shard whose log runs ahead of its durable
//     LSN, all of them at once. The others come for free: Close; a
//     synchronous write to the same shard (its commit covers every earlier
//     record); a cut of the shard by Checkpoint or a demotion, and a
//     replication bootstrap (both sync before they read the shard's
//     state); a follower's poll (each pass of a replication tailer syncs
//     first, so a follower is only ever sent durable records); and a bound
//     — the async write that finds 256 KiB of a shard's records waiting
//     commits before it returns, so a submitter that never flushes risks
//     at most that much per shard.
//     Writes no barrier has covered were never acknowledged: a crash may
//     lose them — of one goroutine's un-flushed stream each shard keeps
//     some prefix — and a reader may have seen a value the crash then
//     loses, as it always could between an op's apply and its fsync.
//
// A durable index that cannot reach its log can no longer honor that
// contract, so the plain write methods panic on log I/O errors (the error
// is sticky: the first failed append or fsync poisons the log). Checkpoint
// and Close return errors normally.

// DurableOptions tunes an index opened in durable mode.
type DurableOptions struct {
	// RecoverEntry, when non-nil, receives every (key, TID) pair about to
	// be restored during an OpenDurableShardedTree — each snapshot entry
	// and each replayed insert/upsert log record, before it is applied to
	// the trie — and is never called after the open returns. It lets a
	// caller rebuild the TID→key resolution state its Loader depends on
	// with no persistence of its own: the snapshot and the log both carry
	// the full key bytes (hot-server rebuilds its key arena this way).
	// Returning an error rejects the entry, with the same consequences as
	// any other damaged entry: a snapshot load stops there and a log
	// replay cuts the log at the previous record.
	RecoverEntry func(key []byte, tid TID) error

	// ColdTier, when non-nil, arms the pager-backed cold tier on the
	// opened index (see ShardedTree.EnableColdTier). The Dir field is
	// ignored: a durable index's sections are its per-shard base files.
	// It also decides how each base is recovered — the file never does.
	// With ColdTier, every shard that has a base is recovered cold, served
	// from it: the base is opened and vetted by its two end keys (by every
	// entry when RecoverEntry or the tree's own check is set), not loaded,
	// its log tail replays into the shard's delta, and a damaged base fails
	// the open. So a larger-than-RAM store reopens without materializing
	// its cold data, and a shard a Checkpoint cut while hot reopens cold.
	// Without ColdTier, every base is loaded into memory, and a damaged one
	// is salvaged — its valid prefix kept, the damage reported in
	// RecoveryInfo.SnapshotDamage — and cut afresh before the open returns.
	ColdTier *ColdTierConfig

	// Codec selects the block codec for every snapshot the durable index
	// writes — every per-shard base. The zero value is
	// SnapshotCodecRaw. Reopening an existing store with a different codec
	// is always safe: readers accept both codecs, and each shard's next
	// cut (checkpoint, demotion or fold) writes its file in the configured one.
	Codec SnapshotCodec
}

// RecoveryInfo reports what an OpenDurable* constructor restored: how much
// came from the snapshot, how much was replayed from the logs, and any
// damage that was tolerated along the way (torn tails cut off, corrupt
// records discarded). Zero damage fields mean a clean recovery.
type RecoveryInfo struct {
	// SnapshotEntries is the number of entries restored from the snapshot
	// (for a sharded index: from the per-shard base files).
	SnapshotEntries uint64
	// SnapshotDamage is the first damage that truncated a snapshot load,
	// nil when every snapshot file was complete or absent. A sharded
	// index loses only the damaged shard's entries past the damage.
	SnapshotDamage *SnapshotError
	// WALRecords is the number of log records replayed across all logs.
	WALRecords uint64
	// WALDamaged is the number of logs whose tail was cut off as torn or
	// corrupt (the damage is expected after a crash: the tail records were
	// never acknowledged).
	WALDamaged int
	// WALDamage is the first log damage encountered, nil when every log
	// was clean.
	WALDamage *SnapshotError
	// ColdShards is how many shards were recovered cold — served from
	// their base files and deltas without materializing a trie: under
	// DurableOptions.ColdTier every shard that has a base, else 0.
	ColdShards int
}

// durableSnapName is the snapshot file inside a durable directory.
const durableSnapName = "snap.hot"

// errNotDurable is returned by durability-only methods on an index that
// was not opened in durable mode.
var errNotDurable = errors.New("hot: index not opened in durable mode")

// ErrClosed is returned by durability operations (Checkpoint, replication
// sessions) on an index that has been closed. Plain writes after Close
// panic instead — see ShardedTree.Close.
var ErrClosed = errors.New("hot: durable index is closed")

// OrphanedLogError is returned when a durable open finds shard files —
// write-ahead logs or shard bases — in a directory whose snap.hot is
// missing. They prove the directory held acknowledged writes; proceeding
// with a fresh open would re-derive shard boundaries from the caller's
// sample, and replay would then cut every log record that falls outside its
// new shard's range — silently discarding durable data. The open refuses
// instead: restore snap.hot, or move the shard files aside deliberately.
type OrphanedLogError struct {
	// Dir is the durable directory.
	Dir string
	// Logs is the base names of the shard files found without snap.hot:
	// wal-NNN.log, snap-NNN.hot and legacy cold-NNN.hot.
	Logs []string
}

func (e *OrphanedLogError) Error() string {
	return fmt.Sprintf("hot: durable directory %s has no %s but holds shard files %v; "+
		"refusing a fresh open that would discard their acknowledged writes", e.Dir, durableSnapName, e.Logs)
}

// resumeWAL opens the log at path for appending, replaying its valid
// record prefix through fn first. A missing log is created fresh (base 0);
// a torn or corrupt tail — including records fn itself rejects — is cut
// off at the last valid record; a log whose header is unsalvageable is
// recreated empty. The returned report carries what was replayed and any
// damage tolerated.
func resumeWAL(path string, fn persist.WALEntryFunc) (*persist.WAL, persist.WALReplayReport, error) {
	if _, err := os.Stat(path); err != nil {
		if os.IsNotExist(err) {
			w, cerr := persist.CreateWAL(path, 0, 0)
			return w, persist.WALReplayReport{}, cerr
		}
		return nil, persist.WALReplayReport{}, err
	}
	rep, rerr := persist.ReplayWALFile(path, fn)
	if rerr != nil {
		var fe *persist.FormatError
		if !errors.As(rerr, &fe) {
			return nil, rep, rerr // I/O failure, not log damage
		}
		// fn-level rejection (a record that is structurally valid but
		// inconsistent with this index) or an unusable header: both cut
		// the log at the last record fn accepted.
		if rep.Damage == nil {
			rep.Damage = fe
		}
	}
	w, err := persist.ContinueWAL(path, rep, 0)
	if err != nil {
		var fe *persist.FormatError
		if !errors.As(err, &fe) {
			return nil, rep, err
		}
		// Not even the header survived: nothing was replayable, so a
		// fresh log loses nothing further.
		w, err = persist.CreateWAL(path, 0, 0)
		if err != nil {
			return nil, rep, err
		}
	}
	return w, rep, nil
}

// noteWALDamage folds one log's replay report into the recovery summary.
func (info *RecoveryInfo) noteWALDamage(rep persist.WALReplayReport) {
	info.WALRecords += rep.Records
	if rep.Damage != nil {
		info.WALDamaged++
		if info.WALDamage == nil {
			info.WALDamage = rep.Damage
		}
	}
}
