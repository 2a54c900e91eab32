package hot

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
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
// the cold shards' bases are not read back and rewritten — and a second
// Checkpoint with no write in between touches no file at all.
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

// TestSalvagedBaseIsHealed: an untiered open that salvages a damaged base
// cuts the shard afresh before it returns, so the damage is reported once —
// the next untiered open finds none and the same contents — and a tiered
// open, which refuses a damaged base, then serves the shard.
func TestSalvagedBaseIsHealed(t *testing.T) {
	dir := t.TempDir()
	keys := dataset.Generate(dataset.URL, 6000, 53)
	store := &tidstore.Store{}
	for _, k := range keys {
		store.Add(k)
	}
	open := func(opts DurableOptions) (*ShardedTree, RecoveryInfo) {
		t.Helper()
		tr, info, err := OpenDurableShardedTree(dir, store.Key, 4, keys, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Verify(); err != nil {
			t.Fatal(err)
		}
		return tr, info
	}
	tr, _ := open(DurableOptions{})
	for i, k := range keys {
		tr.Insert(k, TID(i))
	}
	if err := tr.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a byte of shard 1's last block: a CRC failure past a valid prefix.
	path := filepath.Join(dir, snapFileName(1))
	secs, err := persist.ScanSections(path)
	if err != nil || len(secs) != 1 || secs[0].Blocks < 2 {
		t.Fatalf("shard 1's base: %+v (%v), want one section of two blocks or more", secs, err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const trailer = 16
	b[secs[0].Bytes-trailer-8] ^= 0x40
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	tr, info := open(DurableOptions{})
	n := tr.Len()
	if info.SnapshotDamage == nil || n >= len(keys) {
		t.Fatalf("first open over the damage: %d keys, damage %v, want the last block salvaged away", n, info.SnapshotDamage)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	tr, info = open(DurableOptions{})
	if info.SnapshotDamage != nil || tr.Len() != n {
		t.Fatalf("second open: %d keys, damage %v, want %d keys and no damage", tr.Len(), info.SnapshotDamage, n)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	tr, info = open(DurableOptions{ColdTier: &ColdTierConfig{}})
	defer tr.Close()
	if info.ColdShards != 4 || tr.Len() != n {
		t.Fatalf("tiered open after the heal: %+v, %d keys, want 4 cold shards and %d keys", info, tr.Len(), n)
	}
}

// TestCutRemovesLegacyColdBase: a cut of a shard whose base is a legacy
// cold-NNN.hot — a demotion's file as testdata/durable-pr22 holds it, which
// no cut writes any more — replaces it with an indexed snap-NNN.hot, under
// either open option, and the other option reopens the same contents. A
// rotation that fails after the cut removed the legacy file leaves a
// directory that recovers exactly.
func TestCutRemovesLegacyColdBase(t *testing.T) {
	keys := dataset.Generate(dataset.URL, 3000, 23)
	store := &tidstore.Store{}
	for _, k := range keys {
		store.Add(k)
	}
	// write opens the fixture under cold and upserts one key of each shard
	// to a fresh TID of the same key, returning the tree and its contents.
	write := func(t *testing.T, dir string, cold *ColdTierConfig) (*ShardedTree, []pathEntry) {
		t.Helper()
		tr, _, err := OpenDurableShardedTree(dir, store.Key, 4, nil, DurableOptions{ColdTier: cold})
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < tr.Shards(); s++ {
			i := slices.IndexFunc(keys, func(k []byte) bool { return tr.Shard(k) == s })
			if _, ok := tr.Upsert(keys[i], store.Add(keys[i])); !ok {
				t.Fatalf("shard %d: key %d absent from the fixture", s, i)
			}
		}
		return tr, treeEntries(tr)
	}
	reopen := func(t *testing.T, dir string, cold *ColdTierConfig, want []pathEntry) {
		t.Helper()
		tr, _, err := OpenDurableShardedTree(dir, store.Key, 4, nil, DurableOptions{ColdTier: cold})
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		checkTree(t, tr, want)
	}
	options := []*ColdTierConfig{{}, nil}
	for i, cold := range options {
		t.Run(fmt.Sprintf("tiered=%v", cold != nil), func(t *testing.T) {
			dir := copyDir(t, "testdata/durable-pr22")
			tr, want := write(t, dir, cold)
			if err := tr.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
			if legacy, err := filepath.Glob(filepath.Join(dir, "cold-*.hot")); err != nil || len(legacy) != 0 {
				t.Fatalf("after the Checkpoint: %v (%v), want no cold-NNN.hot", legacy, err)
			}
			for s := 0; s < 4; s++ {
				pr, err := persist.OpenPageReaderFile(filepath.Join(dir, snapFileName(s)), persist.KindTree)
				if err != nil || !pr.Indexed() {
					t.Fatalf("shard %d: %v, want an indexed snap-NNN.hot", s, err)
				}
				pr.Close()
			}
			reopen(t, dir, options[1-i], want)
		})
	}
	t.Run("idle", func(t *testing.T) {
		// Shards 0 and 1 logged nothing past their legacy bases: a
		// Checkpoint leaves them alone, whatever their file's name.
		dir := copyDir(t, "testdata/durable-pr22")
		tr, _, err := OpenDurableShardedTree(dir, store.Key, 4, nil, DurableOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		before := dirCensus(t, dir)
		if err := tr.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		changed, removed := censusChanges(before, dirCensus(t, dir))
		for _, name := range append(changed, removed...) {
			if name == coldFileName(0) || name == coldFileName(1) || name == snapFileName(0) || name == snapFileName(1) {
				t.Fatalf("Checkpoint rewrote an idle shard: changed %v, removed %v", changed, removed)
			}
		}
	})
	t.Run("rotate-fault", func(t *testing.T) {
		dir := copyDir(t, "testdata/durable-pr22")
		tr, want := write(t, dir, nil)
		reg := chaos.New(3)
		reg.OnAfter(chaos.WalRotate, 0, 1, nil)
		reg.Arm()
		err := tr.Checkpoint()
		chaos.Disarm()
		if !errors.Is(err, persist.ErrInjected) {
			t.Fatalf("Checkpoint = %v, want the injected rotation fault", err)
		}
		tr.Close() // the failed rotation poisoned the logs
		// Shard 0's cut installed its snap-000.hot and removed the legacy
		// file; its log still holds every record since the legacy base.
		if _, err := os.Stat(filepath.Join(dir, coldFileName(0))); !os.IsNotExist(err) {
			t.Fatalf("%s survived its cut: %v", coldFileName(0), err)
		}
		for _, cold := range options {
			reopen(t, copyDir(t, dir), cold, want)
		}
	})
}

// TestCheckpointUnderTieredChurn: writers — synchronous and async, inserts
// then deletes — run against a durable store under a cold tier whose budget
// pass demotes and folds as they go, while another goroutine loops
// Checkpoint, Demote and Promote. The store must hold exactly the model,
// and reopen to it under either option.
func TestCheckpointUnderTieredChurn(t *testing.T) {
	dir := t.TempDir()
	keys := dataset.Generate(dataset.URL, 4000, 61)
	store := &tidstore.Store{}
	for _, k := range keys {
		store.Add(k)
	}
	tiered := &ColdTierConfig{MemoryBudget: 1}
	tr, _, err := OpenDurableShardedTree(dir, store.Key, 4, keys, DurableOptions{ColdTier: tiered})
	if err != nil {
		t.Fatal(err)
	}
	gone := func(i int) bool { return i%3 == 0 }
	const writers = 4
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(keys); i += writers {
				if i%2 == 0 {
					tr.Insert(keys[i], TID(i))
				} else {
					tr.InsertAsync(keys[i], TID(i))
				}
			}
			for i := w; i < len(keys); i += writers {
				if gone(i) {
					tr.DeleteAsync(keys[i])
				}
			}
		}(w)
	}
	stop, stopped := make(chan struct{}), make(chan error, 1)
	go func() {
		for it := 0; ; it++ {
			select {
			case <-stop:
				stopped <- nil
				return
			default:
			}
			var err error
			switch s := it % 4; it % 3 {
			case 0:
				err = tr.Checkpoint()
			case 1:
				err = tr.Demote(s)
			default:
				err = tr.Promote(s)
			}
			if err != nil {
				stopped <- err
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	if err := <-stopped; err != nil {
		t.Fatal(err)
	}
	if _, rejected := tr.Flush(); rejected != 0 {
		t.Fatalf("%d async writes rejected", rejected)
	}
	index := make(map[string]int, len(keys))
	for i, k := range keys {
		index[string(k)] = i
	}
	var want []pathEntry
	for _, k := range dataset.SortedCopy(keys) {
		if i := index[string(k)]; !gone(i) {
			want = append(want, pathEntry{k, TID(i)})
		}
	}
	checkTree(t, tr, want)
	if cs := tr.ColdStats(); cs.Demotions == 0 || cs.Folds == 0 || cs.Promotions == 0 {
		t.Fatalf("the churn made no transition of some kind: %+v", cs)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	for _, cold := range []*ColdTierConfig{tiered, nil} {
		tr, _, err := OpenDurableShardedTree(copyDir(t, dir), store.Key, 4, nil, DurableOptions{ColdTier: cold})
		if err != nil {
			t.Fatal(err)
		}
		checkTree(t, tr, want)
		tr.Close()
	}
}
