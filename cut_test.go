package hot

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/hotindex/hot/internal/chaos"
	"github.com/hotindex/hot/internal/dataset"
	"github.com/hotindex/hot/internal/persist"
	"github.com/hotindex/hot/internal/tidstore"
)

// Tests of the per-shard cut (ShardedTree.cut): what a Checkpoint writes
// and what it leaves alone, whom it blocks, and the one-way upgrade of a
// directory whose snap.hot still carries the shard sections.

// dirCensus maps every file in dir to its FileInfo.
func dirCensus(t *testing.T, dir string) map[string]os.FileInfo {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := make(map[string]os.FileInfo, len(ents))
	for _, e := range ents {
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		m[e.Name()] = fi
	}
	return m
}

// censusChanges lists the files created, replaced or modified between two
// censuses (a rename over a name is a new inode, so SameFile catches it
// even at equal size and timestamp) plus the files that disappeared.
func censusChanges(before, after map[string]os.FileInfo) (changed, removed []string) {
	for name, a := range after {
		b, ok := before[name]
		if !ok || !os.SameFile(a, b) || a.Size() != b.Size() || !a.ModTime().Equal(b.ModTime()) {
			changed = append(changed, name)
		}
	}
	for name := range before {
		if _, ok := after[name]; !ok {
			removed = append(removed, name)
		}
	}
	return changed, removed
}

// TestCheckpointWritesOnlyWhatChanged: a Checkpoint over a store with
// three of four shards cold writes the one hot shard and nothing else —
// the cold files are not read back and rewritten — and a second Checkpoint
// with no write in between touches no file at all.
func TestCheckpointWritesOnlyWhatChanged(t *testing.T) {
	dir := t.TempDir()
	keys := dataset.Generate(dataset.URL, 4000, 23)
	store := &tidstore.Store{}
	for _, k := range keys {
		store.Add(k)
	}
	tr, _, err := OpenDurableShardedTree(dir, store.Key, 4, keys, DurableOptions{ColdTier: &ColdTierConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for i, k := range keys {
		if !tr.Insert(k, TID(i)) {
			t.Fatalf("insert %d failed", i)
		}
	}
	const hot = 2
	for s := 0; s < 4; s++ {
		if s != hot {
			if err := tr.Demote(s); err != nil {
				t.Fatal(err)
			}
		}
	}
	var section bytes.Buffer
	if err := tr.writeShard(&section, hot); err != nil {
		t.Fatal(err)
	}

	before := dirCensus(t, dir)
	if err := tr.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after := dirCensus(t, dir)
	changed, removed := censusChanges(before, after)
	if len(removed) != 0 {
		t.Fatalf("Checkpoint removed %v", removed)
	}
	var written int64
	for _, name := range changed {
		if name != snapFileName(hot) && name != durableWalName(hot) {
			t.Fatalf("Checkpoint with only shard %d hot touched %s (all changes: %v)", hot, name, changed)
		}
		written += after[name].Size()
	}
	if len(changed) != 2 {
		t.Fatalf("Checkpoint changed %v, want shard %d's base and log", changed, hot)
	}
	const block = 32<<10 + 4<<10 // persist's block target plus framing slack
	if sz := int64(section.Len()); written < sz || written > sz+block {
		t.Fatalf("Checkpoint wrote %d B, want within a block of the hot shard's %d B section", written, sz)
	}
	for s := 0; s < 4; s++ {
		if s == hot {
			continue
		}
		if _, err := os.Stat(filepath.Join(dir, snapFileName(s))); !os.IsNotExist(err) {
			t.Fatalf("Checkpoint wrote %s for a cold shard: %v", snapFileName(s), err)
		}
	}

	if err := tr.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if changed, removed := censusChanges(after, dirCensus(t, dir)); len(changed)+len(removed) != 0 {
		t.Fatalf("idle Checkpoint changed %v, removed %v", changed, removed)
	}
}

// TestCheckpointDoesNotStallOtherShards parks a Checkpoint inside its cut
// of shard 0 — mid-file, holding that shard's writer lock — and requires a
// durable write to shard 1 to be acknowledged meanwhile.
func TestCheckpointDoesNotStallOtherShards(t *testing.T) {
	dir := t.TempDir()
	keys := dataset.Generate(dataset.Integer, 2000, 31)
	store := &tidstore.Store{}
	for _, k := range keys {
		store.Add(k)
	}
	tr, _, err := OpenDurableShardedTree(dir, store.Key, 4, keys, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	other := -1
	for i, k := range keys {
		tr.Insert(k, TID(i))
		if tr.Shard(k) == 1 {
			other = i
		}
	}
	if tr.ShardLen(0) == 0 || other < 0 {
		t.Fatal("dataset left shard 0 or shard 1 empty")
	}

	parked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	reg := chaos.New(5)
	reg.On(chaos.SnapWriteBlock, 1, func() {
		once.Do(func() {
			close(parked)
			<-release
		})
	})
	reg.Arm()
	defer chaos.Disarm()
	ckpt := make(chan error, 1)
	go func() { ckpt <- tr.Checkpoint() }()
	<-parked // shard 0's cut is mid-write

	acked := make(chan struct{})
	go func() {
		tr.Upsert(keys[other], TID(other))
		close(acked)
	}()
	select {
	case <-acked:
	case <-time.After(10 * time.Second):
		t.Error("durable Upsert to shard 1 blocked behind the Checkpoint's cut of shard 0")
	}
	close(release)
	// The fired point also injects its write fault: the parked cut fails
	// cleanly, leaving shard 0's log whole and the store running.
	if err := <-ckpt; !errors.Is(err, persist.ErrInjected) {
		t.Fatalf("parked Checkpoint = %v, want the injected write fault", err)
	}
	<-acked
	chaos.Disarm()
	if err := tr.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint after the failed one: %v", err)
	}
}

// TestDurableLegacyDirectoryUpgrade opens directories in the layout before
// per-shard base files — snap.hot holding the manifest AND every shard's
// section — and requires every entry back, the new layout on disk before
// the open returns, and an identical tree from the next open. The second
// case interrupts the upgrade: the shards it already cut must win over
// their legacy sections when the upgrade re-runs.
func TestDurableLegacyDirectoryUpgrade(t *testing.T) {
	keys := dataset.Generate(dataset.URL, 3000, 41)
	store := &tidstore.Store{}
	for _, k := range keys {
		store.Add(k)
	}
	requireNewLayout := func(t *testing.T, dir string, tr *ShardedTree) {
		t.Helper()
		secs, err := persist.ScanSections(filepath.Join(dir, durableSnapName))
		if err != nil || len(secs) != 1 || secs[0].Kind != persist.KindShardManifest {
			t.Fatalf("snap.hot after the upgrade = %+v (err %v), want the manifest section alone", secs, err)
		}
		for s := 0; s < tr.Shards(); s++ {
			_, err := os.Stat(filepath.Join(dir, snapFileName(s)))
			if (err == nil) != (tr.ShardLen(s) > 0) {
				t.Fatalf("shard %d holds %d keys, stat %s: %v", s, tr.ShardLen(s), snapFileName(s), err)
			}
		}
	}
	requireKeys := func(t *testing.T, tr *ShardedTree, absent int) {
		t.Helper()
		if err := tr.Verify(); err != nil {
			t.Fatal(err)
		}
		for i, k := range keys {
			tid, ok := tr.Lookup(k)
			if i == absent {
				if ok {
					t.Fatalf("deleted key %d is back", i)
				}
			} else if !ok || tid != TID(i) {
				t.Fatalf("key %d = (%d, %v)", i, tid, ok)
			}
		}
	}

	t.Run("snapshot-only", func(t *testing.T) {
		dir := t.TempDir()
		seed, _ := buildPair(keys, store, 4)
		// Byte for byte what the stop-the-world checkpoint wrote.
		if err := seed.SnapshotFile(filepath.Join(dir, durableSnapName)); err != nil {
			t.Fatal(err)
		}
		for reopen := 0; reopen < 2; reopen++ {
			tr, info, err := OpenDurableShardedTree(dir, store.Key, 4, nil, DurableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if info.SnapshotEntries != uint64(len(keys)) || info.SnapshotDamage != nil {
				t.Fatalf("open %d restored %d entries (damage %v), want %d", reopen, info.SnapshotEntries, info.SnapshotDamage, len(keys))
			}
			requireKeys(t, tr, -1)
			requireNewLayout(t, dir, tr)
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
		}
	})

	t.Run("log-tails-interrupted", func(t *testing.T) {
		dir := t.TempDir()
		// Build the legacy shape with live log tails: the multiplexed
		// snapshot and the log bases are taken at the same cut, the second
		// half of the keys and one delete follow in the logs.
		tr, _, err := OpenDurableShardedTree(dir, store.Key, 4, keys, DurableOptions{})
		if err != nil {
			t.Fatal(err)
		}
		half := len(keys) / 2
		for i, k := range keys[:half] {
			tr.Insert(k, TID(i))
		}
		legacy := filepath.Join(t.TempDir(), "legacy.hot")
		if err := tr.SnapshotFile(legacy); err != nil {
			t.Fatal(err)
		}
		if err := tr.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		for i, k := range keys[half:] {
			tr.Insert(k, TID(half+i))
		}
		gone := -1
		for i, k := range keys[:half] {
			if tr.Shard(k) == 0 {
				gone = i
				break
			}
		}
		if gone < 0 || !tr.Delete(keys[gone]) {
			t.Fatal("no first-half key to delete from shard 0")
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		for s := 0; s < 4; s++ {
			if err := os.Remove(filepath.Join(dir, snapFileName(s))); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.Rename(legacy, filepath.Join(dir, durableSnapName)); err != nil {
			t.Fatal(err)
		}

		// Fail the upgrade's third file: shards 0 and 1 are cut and their
		// logs rotated, snap.hot still carries every legacy section —
		// shard 0's with the key its rotated-away log tail deleted.
		reg := chaos.New(7)
		reg.OnAfter(chaos.SnapRename, 2, 1, nil)
		reg.Arm()
		_, _, err = OpenDurableShardedTree(dir, store.Key, 4, nil, DurableOptions{})
		chaos.Disarm()
		if !errors.Is(err, persist.ErrInjected) {
			t.Fatalf("interrupted upgrade = %v, want the injected fault", err)
		}
		if _, err := os.Stat(filepath.Join(dir, snapFileName(1))); err != nil {
			t.Fatalf("interrupted upgrade left no %s: %v", snapFileName(1), err)
		}

		for reopen := 0; reopen < 2; reopen++ {
			tr, _, err := OpenDurableShardedTree(dir, store.Key, 4, nil, DurableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			requireKeys(t, tr, gone)
			requireNewLayout(t, dir, tr)
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
		}
	})
}
