package hot

import (
	"bytes"
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

func TestDurableShardedUint64SetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	sample := walCrashSample()
	set, info, err := OpenDurableShardedUint64Set(dir, 4, sample, DurableOptions{})
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
		if !set.Insert(v * 37 % 100000) {
			t.Fatalf("insert %d rejected", v)
		}
	}
	for v := uint64(0); v < n; v += 4 {
		if !set.Delete(v * 37 % 100000) {
			t.Fatalf("delete %d missed", v)
		}
	}
	want := set.Len()
	if err := set.Close(); err != nil {
		t.Fatal(err)
	}

	set2, info, err := OpenDurableShardedUint64Set(dir, 4, sample, DurableOptions{})
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
		if got := set2.Contains(val); got != (v%4 != 0) {
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
	set, _, err := OpenDurableShardedUint64Set(dir, shards, sample, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The smallest record an 8-byte key makes: length|CRC word, op, one-byte
	// LSN, key length, key, one-byte TID. One run may overshoot the bound by
	// what it holds, at most a drain slice.
	const maxOwed = maxOwedBytes/(8+1+1+1+8+1) + drainSlice
	var settled uint64
	for i := uint64(0); i < n; i++ {
		set.InsertAsync(i * 7919 % n) // 7919 is coprime to n: a permutation, interleaving the shards
		if i%512 != 0 {
			continue
		}
		settled = 0
		for s, w := range set.t.dur.wals {
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
	set, info, err := OpenDurableShardedUint64Set(dir, shards, sample, DurableOptions{})
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
	open := func(t *testing.T) *ShardedUint64Set {
		set, _, err := OpenDurableShardedUint64Set(t.TempDir(), 4, walCrashSample(), DurableOptions{})
		if err != nil {
			t.Fatal(err)
		}
		set.InsertAsync(1)
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
	set, _, err := OpenDurableShardedUint64Set(dir, 4, walCrashSample(), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for v := uint64(0); v < 3000; v++ {
		set.Insert(v)
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
	set2, info, err := OpenDurableShardedUint64Set(dir, 4, walCrashSample(), DurableOptions{})
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
	set, _, err := OpenDurableShardedUint64Set(dir, 4, walCrashSample(),
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
				set.Insert(uint64(g*per + i))
			}
		}(g)
	}
	wg.Wait()
	if err := set.Close(); err != nil {
		t.Fatal(err)
	}
	set2, info, err := OpenDurableShardedUint64Set(dir, 4, walCrashSample(), DurableOptions{})
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

// TestDurableShardedOrphanedWALRefusal: write-ahead logs without their
// snapshot mean the snapshot was lost, not that the store is new. A fresh
// open must refuse — re-deriving boundaries would misroute the surviving
// log records and silently discard acknowledged writes.
func TestDurableShardedOrphanedWALRefusal(t *testing.T) {
	dir := t.TempDir()
	keys := dataset.Generate(dataset.Integer, 500, 5)
	store := &tidstore.Store{}
	for _, k := range keys {
		store.Add(k)
	}
	tr, _, err := OpenDurableShardedTree(dir, store.Key, 4, keys, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		tr.Insert(k, TID(i))
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate losing the snapshot between runs.
	if err := os.Remove(filepath.Join(dir, durableSnapName)); err != nil {
		t.Fatal(err)
	}
	_, _, err = OpenDurableShardedTree(dir, store.Key, 4, keys, DurableOptions{})
	var oe *OrphanedLogError
	if !errors.As(err, &oe) {
		t.Fatalf("reopen without snapshot = %v, want *OrphanedLogError", err)
	}
	if oe.Dir != dir || len(oe.Logs) != 4 {
		t.Fatalf("error names %d logs in %q, want 4 in %q", len(oe.Logs), oe.Dir, dir)
	}
	for s, name := range oe.Logs {
		if name != fmt.Sprintf("wal-%03d.log", s) {
			t.Fatalf("log %d listed as %q", s, name)
		}
	}
}

// TestDurableShardedForeignDirectoryRefusal: a directory in the single-map
// durable layout this package once wrote — a Map snapshot as snap.hot, one
// wal.log beside it — is not a sharded store. Both durable opens must say
// so with a typed wrong-kind error and leave both files as they found
// them, whether or not the cold tier is asked for.
func TestDurableShardedForeignDirectoryRefusal(t *testing.T) {
	dir := t.TempDir()
	m := NewMap()
	for i := 0; i < 100; i++ {
		m.Set([]byte(fmt.Sprintf("key-%04d", i)), uint64(i))
	}
	snap, log := filepath.Join(dir, durableSnapName), filepath.Join(dir, "wal.log")
	if err := m.SaveFile(snap); err != nil {
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
		_, _, terr := OpenDurableShardedTree(dir, store.Key, 4, nil, opts)
		_, _, serr := OpenDurableShardedUint64Set(dir, 4, nil, opts)
		for _, err := range []error{terr, serr} {
			var se *SnapshotError
			if !errors.As(err, &se) || se.Kind != SnapErrWrongKind {
				t.Fatalf("cold=%v: open of a map directory = %v, want SnapErrWrongKind", opts.ColdTier != nil, err)
			}
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
