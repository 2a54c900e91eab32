package hot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hotindex/hot/internal/chaos"
	"github.com/hotindex/hot/internal/dataset"
	"github.com/hotindex/hot/internal/persist"
	"github.com/hotindex/hot/internal/tidstore"
)

// openDurableU64 opens the durable sharded integer set in dir: a
// ShardedTree whose TIDs are their own 8-byte keys (tidstore.Uint64Key),
// every recovered entry held to that convention (checkSetEntry), so a
// tiered open walks every base it serves.
func openDurableU64(dir string, shards int, sample []uint64, opts DurableOptions) (*ShardedTree, RecoveryInfo, error) {
	opts.RecoverEntry = checkSetEntry
	return OpenDurableShardedTree(dir, tidstore.Uint64Key, shards, u64Keys(sample), opts)
}

// checkSetEntry validates the embedded-key convention of integer-set
// entries: the 8-byte big-endian key must decode to exactly the stored TID.
func checkSetEntry(key []byte, tid TID) error {
	if len(key) != 8 {
		return &SnapshotError{Kind: persist.ErrCorrupt,
			Detail: fmt.Sprintf("set key length %d, want 8", len(key))}
	}
	if v := binary.BigEndian.Uint64(key); v != tid {
		return &SnapshotError{Kind: persist.ErrCorrupt,
			Detail: fmt.Sprintf("set key decodes to %d, TID is %d", v, tid)}
	}
	return nil
}

// TestDurableCleanReopenNoDamage: the shard logs of a store that was
// written and closed end in a zero tail, which is their clean end — each
// reopen reports no damaged log, keeps the tail for the next writes to
// overwrite, and recovers every write.
func TestDurableCleanReopenNoDamage(t *testing.T) {
	dir := t.TempDir()
	sample := walCrashSample()
	const shards, rounds, perRound = 4, 3, 300
	logSizes := func() []int64 {
		sizes := make([]int64, shards)
		for s := range sizes {
			st, err := os.Stat(filepath.Join(dir, durableWalName(s)))
			if err != nil {
				t.Fatal(err)
			}
			sizes[s] = st.Size()
		}
		return sizes
	}
	var want int
	for round := 0; round < rounds; round++ {
		set, info, err := openDurableU64(dir, shards, sample, DurableOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if info.WALDamaged != 0 || info.WALDamage != nil || info.WALRecords != uint64(round*perRound) {
			t.Fatalf("reopen %d: %d damaged logs (%v), %d records replayed, want 0 and %d",
				round, info.WALDamaged, info.WALDamage, info.WALRecords, round*perRound)
		}
		if set.Len() != want {
			t.Fatalf("reopen %d recovered %d values, want %d", round, set.Len(), want)
		}
		opened := logSizes()
		for i := 0; i < perRound; i++ {
			v := uint64(round*perRound+i) * 331 % 100000
			if set.Insert(u64Key(v), v) {
				want++
			}
		}
		logBytes := set.LogSize()
		if err := set.Close(); err != nil {
			t.Fatal(err)
		}
		var total int64
		for s, size := range logSizes() {
			if round > 0 && size < opened[s] {
				t.Fatalf("reopen %d: shard %d's log shrank from %d to %d bytes: its zero tail was cut", round, s, opened[s], size)
			}
			total += size
		}
		if total <= logBytes {
			t.Fatalf("round %d: logs hold %d bytes for %d of records: no zero tail", round, total, logBytes)
		}
	}
}

func TestDurableShardedEmbeddedKeyRoundTrip(t *testing.T) {
	dir := t.TempDir()
	sample := walCrashSample()
	set, info, err := openDurableU64(dir, 4, sample, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if info.SnapshotEntries != 0 || info.WALRecords != 0 {
		t.Fatalf("fresh open reported recovery: %+v", info)
	}
	if !set.Durable() {
		t.Fatal("set not durable")
	}
	const n = 2000
	for v := uint64(0); v < n; v++ {
		if !set.Insert(u64Key(v*37%100000), v*37%100000) {
			t.Fatalf("insert %d rejected", v)
		}
	}
	for v := uint64(0); v < n; v += 4 {
		if !set.Delete(u64Key(v * 37 % 100000)) {
			t.Fatalf("delete %d missed", v)
		}
	}
	want := set.Len()
	if err := set.Close(); err != nil {
		t.Fatal(err)
	}

	set2, info, err := openDurableU64(dir, 4, sample, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer set2.Close()
	if err := set2.Verify(); err != nil {
		t.Fatal(err)
	}
	if set2.Len() != want {
		t.Fatalf("recovered %d values, want %d", set2.Len(), want)
	}
	if info.WALRecords != n+n/4 {
		t.Fatalf("replayed %d records, want %d", info.WALRecords, n+n/4)
	}
	if info.WALDamaged != 0 || info.SnapshotDamage != nil {
		t.Fatalf("clean shutdown reported damage: %+v", info)
	}
	for v := uint64(0); v < n; v++ {
		val := v * 37 % 100000
		if _, got := set2.Lookup(u64Key(val)); got != (v%4 != 0) {
			// Hash collisions can re-insert a deleted value later in the
			// stream; recompute the truth the slow way before failing.
			truth := map[uint64]bool{}
			for w := uint64(0); w < n; w++ {
				truth[w*37%100000] = true
			}
			for w := uint64(0); w < n; w += 4 {
				delete(truth, w*37%100000)
			}
			if got != truth[val] {
				t.Fatalf("value %d: contains=%v want %v", val, got, truth[val])
			}
		}
	}
}

func TestDurableShardedTreeMixedSyncAsync(t *testing.T) {
	dir := t.TempDir()
	keys := dataset.Generate(dataset.Integer, 3000, 11)
	store := &tidstore.Store{}
	for _, k := range keys {
		store.Add(k)
	}
	open := func() (*ShardedTree, RecoveryInfo, error) {
		return OpenDurableShardedTree(dir, store.Key, 4, keys, DurableOptions{})
	}
	tr, _, err := open()
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys[:1000] {
		if !tr.Insert(k, TID(i)) {
			t.Fatalf("insert %d rejected", i)
		}
	}
	for i, k := range keys[1000:2000] {
		tr.InsertAsync(k, TID(1000+i))
	}
	tr.Flush()
	if err := tr.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i, k := range keys[2000:] {
		tr.UpsertAsync(k, TID(2000+i))
	}
	for _, k := range keys[:500] {
		tr.DeleteAsync(k)
	}
	tr.Flush()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	tr2, info, err := open()
	if err != nil {
		t.Fatal(err)
	}
	defer tr2.Close()
	if err := tr2.Verify(); err != nil {
		t.Fatal(err)
	}
	if tr2.Len() != len(keys)-500 {
		t.Fatalf("recovered %d keys, want %d", tr2.Len(), len(keys)-500)
	}
	// The checkpoint happened after 2000 ops, so replay must cover only
	// the tail written since.
	if info.SnapshotEntries != 2000 || info.WALRecords != 1500 {
		t.Fatalf("recovery split snapshot/log = %d/%d, want 2000/1500", info.SnapshotEntries, info.WALRecords)
	}
	for i, k := range keys {
		tid, ok := tr2.Lookup(k)
		switch {
		case i < 500:
			if ok {
				t.Fatalf("deleted key %d survived recovery", i)
			}
		default:
			if !ok || tid != TID(i) {
				t.Fatalf("key %d: tid=%d ok=%v", i, tid, ok)
			}
		}
	}
}

// TestDurableAsyncOwedBound: a submitter that never reaches a barrier does
// not grow a shard's log buffer without limit — the run that finds
// maxOwedBytes waiting commits — and Close settles whatever is still owed.
func TestDurableAsyncOwedBound(t *testing.T) {
	dir := t.TempDir()
	const shards, n = 4, 200000
	sample := make([]uint64, 64)
	for i := range sample {
		sample[i] = uint64(i) * n / 64
	}
	set, _, err := openDurableU64(dir, shards, sample, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The smallest record an 8-byte key makes: length|CRC word, op, one-byte
	// LSN, key length, key, one-byte TID. One run may overshoot the bound by
	// what it holds, at most a drain slice.
	const maxOwed = maxOwedBytes/(8+1+1+1+8+1) + drainSlice
	var settled uint64
	for i := uint64(0); i < n; i++ {
		set.InsertAsync(u64Key(i*7919%n), i*7919%n) // 7919 is coprime to n: a permutation, interleaving the shards
		if i%512 != 0 {
			continue
		}
		settled = 0
		for s, w := range set.dur.wals {
			last, durable := w.LastLSN(), w.DurableLSN()
			if last-durable > maxOwed {
				t.Fatalf("after %d un-flushed inserts shard %d owes %d records, bound is %d", i, s, last-durable, maxOwed)
			}
			settled += durable
		}
	}
	if settled == 0 {
		t.Fatalf("%d un-flushed inserts never crossed the bound: the test exercises nothing", n)
	}
	if err := set.Close(); err != nil {
		t.Fatal(err)
	}
	set, info, err := openDurableU64(dir, shards, sample, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	if info.WALRecords != n || info.WALDamaged != 0 || set.Len() != n {
		t.Fatalf("reopen recovered %d records (%d damaged logs) into %d values, want all %d", info.WALRecords, info.WALDamaged, set.Len(), n)
	}
}

// TestDurableOwedFsyncFailure: the fsync an async write leaves owed can fail
// at the barrier that pays it. Flush then panics on its caller, as a
// synchronous write's commit would, and Close returns the error; neither
// acknowledges the write, and the log stays poisoned.
func TestDurableOwedFsyncFailure(t *testing.T) {
	open := func(t *testing.T) *ShardedTree {
		set, _, err := openDurableU64(t.TempDir(), 4, walCrashSample(), DurableOptions{})
		if err != nil {
			t.Fatal(err)
		}
		set.InsertAsync(u64Key(1), 1)
		reg := chaos.New(1)
		reg.On(chaos.WalSync, 1, nil)
		reg.Arm()
		t.Cleanup(chaos.Disarm)
		return set
	}
	t.Run("flush", func(t *testing.T) {
		set := open(t)
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "log commit failed") {
				t.Fatalf("Flush over a failing fsync: recovered %v, want a log commit panic", r)
			}
			if err := set.Close(); !errors.Is(err, persist.ErrInjected) {
				t.Fatalf("Close after the failed Flush = %v, want the sticky log error", err)
			}
		}()
		set.Flush()
	})
	t.Run("close", func(t *testing.T) {
		if err := open(t).Close(); !errors.Is(err, persist.ErrInjected) {
			t.Fatalf("Close over a failing fsync = %v, want the injected error", err)
		}
	})
}

func TestDurableCheckpointTruncatesLogs(t *testing.T) {
	dir := t.TempDir()
	set, _, err := openDurableU64(dir, 4, walCrashSample(), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for v := uint64(0); v < 3000; v++ {
		set.Insert(u64Key(v), v)
	}
	grown := set.LogSize()
	if err := set.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if set.LogSize() >= grown/10 {
		t.Fatalf("checkpoint left logs at %d bytes (was %d)", set.LogSize(), grown)
	}
	if err := set.Close(); err != nil {
		t.Fatal(err)
	}
	set2, info, err := openDurableU64(dir, 4, walCrashSample(), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer set2.Close()
	if info.SnapshotEntries != 3000 || info.WALRecords != 0 {
		t.Fatalf("post-checkpoint recovery = %+v, want all from snapshot", info)
	}
	if set2.Len() != 3000 {
		t.Fatalf("recovered %d values", set2.Len())
	}
}

func TestDurableGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	set, _, err := openDurableU64(dir, 4, walCrashSample(),
		DurableOptions{GroupCommitDelay: 200 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 100
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				set.Insert(u64Key(uint64(g*per+i)), uint64(g*per+i))
			}
		}(g)
	}
	wg.Wait()
	if err := set.Close(); err != nil {
		t.Fatal(err)
	}
	set2, info, err := openDurableU64(dir, 4, walCrashSample(), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer set2.Close()
	if err := set2.Verify(); err != nil {
		t.Fatal(err)
	}
	if set2.Len() != workers*per || info.WALRecords != workers*per {
		t.Fatalf("recovered %d values, %d records; want %d", set2.Len(), info.WALRecords, workers*per)
	}
}

func TestDurableNotDurableErrors(t *testing.T) {
	tr := NewShardedTree(tidstore.Uint64Key, 2, nil)
	if tr.Durable() {
		t.Fatal("plain tree claims durability")
	}
	if err := tr.Checkpoint(); err != errNotDurable {
		t.Fatalf("Checkpoint on plain tree: %v", err)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("Close on plain tree: %v", err)
	}
	if tr.LogSize() != 0 {
		t.Fatal("plain tree reports log bytes")
	}
}

// TestDurableShardedOrphanedWALRefusal: shard files without snap.hot mean
// snap.hot was lost, not that the store is new. A fresh open must refuse —
// re-deriving boundaries would misroute the surviving log records and
// silently discard acknowledged writes — and name every shard file it
// found: the write-ahead logs, and the shard bases once a checkpoint cut
// them.
func TestDurableShardedOrphanedWALRefusal(t *testing.T) {
	keys := dataset.Generate(dataset.Integer, 500, 5)
	store := &tidstore.Store{}
	for _, k := range keys {
		store.Add(k)
	}
	for _, checkpoint := range []bool{false, true} {
		dir := t.TempDir()
		tr, _, err := OpenDurableShardedTree(dir, store.Key, 4, keys, DurableOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range keys {
			tr.Insert(k, TID(i))
		}
		var want []string
		for s := 0; s < 4; s++ {
			want = append(want, fmt.Sprintf("wal-%03d.log", s))
		}
		if checkpoint {
			if err := tr.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			for s := 0; s < 4; s++ {
				want = append(want, fmt.Sprintf("snap-%03d.hot", s))
			}
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}

		// Simulate losing snap.hot between runs.
		if err := os.Remove(filepath.Join(dir, durableSnapName)); err != nil {
			t.Fatal(err)
		}
		_, _, err = OpenDurableShardedTree(dir, store.Key, 4, keys, DurableOptions{})
		var oe *OrphanedLogError
		if !errors.As(err, &oe) {
			t.Fatalf("checkpointed=%v: reopen without snap.hot = %v, want *OrphanedLogError", checkpoint, err)
		}
		if oe.Dir != dir || fmt.Sprint(oe.Logs) != fmt.Sprint(want) {
			t.Fatalf("checkpointed=%v: error names %v in %q, want %v in %q", checkpoint, oe.Logs, oe.Dir, want, dir)
		}
		if !strings.Contains(err.Error(), "shard files") {
			t.Fatalf("checkpointed=%v: message %q does not say shard files", checkpoint, err)
		}
	}
}

// TestDurableShardedForeignDirectoryRefusal: a directory in the single-map
// durable layout this package once wrote — a Map snapshot as snap.hot, one
// wal.log beside it — is not a sharded store. The durable open must say so
// with a typed wrong-kind error and leave both files as they found them,
// whether or not the cold tier is asked for.
func TestDurableShardedForeignDirectoryRefusal(t *testing.T) {
	dir := t.TempDir()
	m := NewMap()
	for i := 0; i < 100; i++ {
		m.Set([]byte(fmt.Sprintf("key-%04d", i)), uint64(i))
	}
	snap, log := filepath.Join(dir, durableSnapName), filepath.Join(dir, "wal.log")
	if err := SaveFile(snap, m); err != nil {
		t.Fatal(err)
	}
	w, err := persist.CreateWAL(log, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 100; i < 105; i++ {
		if _, err := w.Append(persist.WalUpsert, []byte(fmt.Sprintf("key-%04d", i)), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	read := func() [2][]byte {
		var b [2][]byte
		for i, p := range []string{snap, log} {
			var err error
			if b[i], err = os.ReadFile(p); err != nil {
				t.Fatal(err)
			}
		}
		return b
	}
	before := read()

	store := &tidstore.Store{}
	for _, opts := range []DurableOptions{{}, {ColdTier: &ColdTierConfig{MemoryBudget: 1 << 20}}} {
		_, _, err := OpenDurableShardedTree(dir, store.Key, 4, nil, opts)
		var se *SnapshotError
		if !errors.As(err, &se) || se.Kind != SnapErrWrongKind {
			t.Fatalf("cold=%v: open of a map directory = %v, want SnapErrWrongKind", opts.ColdTier != nil, err)
		}
		after := read()
		if !bytes.Equal(before[0], after[0]) || !bytes.Equal(before[1], after[1]) {
			t.Fatalf("cold=%v: a refused open modified the directory", opts.ColdTier != nil)
		}
		if names, _ := filepath.Glob(filepath.Join(dir, "*")); len(names) != 2 {
			t.Fatalf("cold=%v: a refused open left %v behind", opts.ColdTier != nil, names)
		}
	}
}

// TestDurableShardedClosed pins the Close contract: Close is idempotent,
// a closed store refuses checkpoints with ErrClosed, and a write after
// Close panics with a clear hot:-prefixed message at the writer-lock
// boundary instead of failing deep inside the log layer.
func TestDurableShardedClosed(t *testing.T) {
	dir := t.TempDir()
	keys := dataset.Generate(dataset.Integer, 200, 9)
	store := &tidstore.Store{}
	for _, k := range keys {
		store.Add(k)
	}
	tr, _, err := OpenDurableShardedTree(dir, store.Key, 2, keys, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tr.Insert(keys[0], 0)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
	if err := tr.Checkpoint(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Checkpoint after Close = %v, want ErrClosed", err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("write to a closed durable tree did not panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.HasPrefix(msg, "hot:") {
			t.Fatalf("panic = %v, want a hot:-prefixed message", r)
		}
	}()
	tr.Insert(keys[1], 1)
}

// TestDurableShardedCheckpointRotateFaultMiddleShard drives the
// documented rotation-failure contract end to end: fail the SECOND of
// four log rotations — after the new snapshot is already installed — so
// earlier shards are rotated and later ones are not. That half-rotated
// store must poison every shard's log as a unit (Checkpoint errors,
// writes to any shard panic), and reopening the directory must recover
// every acknowledged write exactly.
func TestDurableShardedCheckpointRotateFaultMiddleShard(t *testing.T) {
	dir := t.TempDir()
	keys := dataset.Generate(dataset.Integer, 2000, 13)
	store := &tidstore.Store{}
	for _, k := range keys {
		store.Add(k)
	}
	tr, _, err := OpenDurableShardedTree(dir, store.Key, 4, keys, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if !tr.Insert(k, TID(i)) {
			t.Fatalf("insert %d rejected", i)
		}
	}

	reg := chaos.New(21)
	reg.OnAfter(chaos.WalRotate, 1, 1, nil) // skip shard 0, fail shard 1
	reg.Arm()
	cerr := tr.Checkpoint()
	chaos.Disarm()
	if cerr == nil {
		t.Fatal("checkpoint with a failed rotation returned nil")
	}
	if got := reg.Fired(chaos.WalRotate); got != 1 {
		t.Fatalf("rotation fault fired %d times, want 1", got)
	}

	// The store is poisoned as a unit: another checkpoint fails too, and
	// reads still work while writes to ANY shard panic (checked last — the
	// panic legitimately abandons a shard writer lock, so no Close after it).
	if err := tr.Checkpoint(); err == nil {
		t.Fatal("checkpoint on a poisoned store returned nil")
	}
	if tid, ok := tr.Lookup(keys[7]); !ok || tid != 7 {
		t.Fatalf("read on a poisoned store = (%d, %v)", tid, ok)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("write after a failed rotation did not panic")
			}
		}()
		tr.Upsert(keys[0], 9999)
	}()

	// The on-disk state — new snapshot, shard 0 rotated, shards 1..3 with
	// their full logs — recovers exactly: replaying records the snapshot
	// already covers is a verbatim no-op replay.
	tr2, _, err := OpenDurableShardedTree(dir, store.Key, 4, keys, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr2.Close()
	if err := tr2.Verify(); err != nil {
		t.Fatal(err)
	}
	if got := tr2.Len(); got != len(keys) {
		t.Fatalf("recovered %d keys, want %d", got, len(keys))
	}
	for i, k := range keys {
		if tid, ok := tr2.Lookup(k); !ok || tid != TID(i) {
			t.Fatalf("key %d = (%d, %v) after recovery", i, tid, ok)
		}
	}
}

// TestDurableShardedRefusesSetDirectory: a durable directory of the
// integer-set layout (u64SetVals) — snap.hot the shard manifest, and per
// shard a base of integer-set sections beside its log — is not a
// ShardedTree's, even over the embedded-key loader. The open must refuse
// it with a typed wrong-kind error, tiered or not, and leave every file as
// it found it: an untiered open must not salvage a foreign base down to
// nothing and cut the empty shard over it.
func TestDurableShardedRefusesSetDirectory(t *testing.T) {
	dir := t.TempDir()
	kind, write := u64SetUnit(-1)
	if err := persist.SaveFile(filepath.Join(dir, durableSnapName), kind, write); err != nil {
		t.Fatal(err)
	}
	for s := range u64SetVals {
		kind, write := u64SetUnit(s)
		if err := persist.SaveIndexedFile(filepath.Join(dir, snapFileName(s)), kind, write); err != nil {
			t.Fatal(err)
		}
		w, err := persist.CreateWAL(filepath.Join(dir, durableWalName(s)), uint64(len(u64SetVals[s])), 0)
		if err != nil {
			t.Fatal(err)
		}
		v := u64SetVals[s][0] + 1
		if _, err := w.Append(persist.WalInsert, u64Key(v), v); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	read := func() map[string]string {
		files := map[string]string{}
		names, err := filepath.Glob(filepath.Join(dir, "*"))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range names {
			b, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			files[filepath.Base(p)] = string(b)
		}
		return files
	}
	before := read()
	for _, opts := range []DurableOptions{{}, {ColdTier: &ColdTierConfig{}}} {
		_, _, err := openDurableU64(dir, 2, nil, opts)
		var se *SnapshotError
		if !errors.As(err, &se) || se.Kind != SnapErrWrongKind {
			t.Fatalf("cold=%v: open of an integer-set directory = %v, want SnapErrWrongKind", opts.ColdTier != nil, err)
		}
		if after := read(); fmt.Sprint(after) != fmt.Sprint(before) {
			t.Fatalf("cold=%v: a refused open changed the directory: %d files before, %d after", opts.ColdTier != nil, len(before), len(after))
		}
	}
}
