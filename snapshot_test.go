package hot

import (
	"bytes"
	"fmt"
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

// loadFile is Load over the file at path.
func loadFile(path string, x loadTarget, salvage bool) (RecoveryReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return RecoveryReport{}, err
	}
	defer f.Close()
	return Load(f, x, salvage)
}

// loadTree strictly loads a tree snapshot from blob through loader.
func loadTree(t *testing.T, blob []byte, loader Loader) *Tree {
	t.Helper()
	tr := New(loader)
	if _, err := Load(bytes.NewReader(blob), tr, false); err != nil {
		t.Fatal(err)
	}
	return tr
}

// collectKeys returns the tree's full key sequence in scan order.
func collectKeys(t *Tree, loader Loader) [][]byte {
	var out [][]byte
	t.Scan(nil, t.Len(), func(tid TID) bool {
		out = append(out, append([]byte(nil), loader(tid, nil)...))
		return true
	})
	return out
}

// TestSnapshotRoundTripDatasets is the acceptance round trip: for each of
// the paper's four data-set shapes over a tuple store, and for integer
// keys embedded in their TIDs, save/load must be byte-exact on Len,
// iteration order, and lookups.
func TestSnapshotRoundTripDatasets(t *testing.T) {
	for _, kind := range dataset.Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			keys := dataset.Generate(kind, 3000, 7)
			s := &tidstore.Store{}
			orig := New(s.Key)
			for _, k := range keys {
				orig.Insert(k, s.Add(k))
			}
			checkSnapshotRoundTrip(t, orig, keys, s.Key)
		})
	}
	t.Run("embedded", func(t *testing.T) {
		orig := New(tidstore.Uint64Key)
		var keys [][]byte
		for i := uint64(0); i < 5000; i++ {
			v := i*i + 1
			keys = append(keys, u64Key(v))
			orig.Insert(u64Key(v), v)
		}
		checkSnapshotRoundTrip(t, orig, keys, tidstore.Uint64Key)
	})
}

// checkSnapshotRoundTrip saves orig, loads it back through loader and
// compares the two on Len, Verify, iteration order and the lookup of every
// key. Saving the loaded tree again, saving orig through SaveFile, and
// loading into a ConcurrentTree and saving that must all reproduce the
// first snapshot byte for byte: the format has no timestamps or
// nondeterminism, and both tree types read and write the same kind.
func checkSnapshotRoundTrip(t *testing.T, orig *Tree, keys [][]byte, loader Loader) {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got := loadTree(t, buf.Bytes(), loader)
	if got.Len() != orig.Len() {
		t.Fatalf("Len %d != %d", got.Len(), orig.Len())
	}
	if err := got.Verify(); err != nil {
		t.Fatal(err)
	}
	wantSeq := collectKeys(orig, loader)
	gotSeq := collectKeys(got, loader)
	for i := range wantSeq {
		if !bytes.Equal(wantSeq[i], gotSeq[i]) {
			t.Fatalf("iteration order diverges at %d: %q vs %q", i, gotSeq[i], wantSeq[i])
		}
	}
	for _, k := range keys {
		wantTID, _ := orig.Lookup(k)
		gotTID, ok := got.Lookup(k)
		if !ok || gotTID != wantTID {
			t.Fatalf("lookup %q = (%d,%v), want (%d,true)", k, gotTID, ok, wantTID)
		}
	}

	ct := NewConcurrent(loader)
	if _, err := Load(bytes.NewReader(buf.Bytes()), ct, false); err != nil {
		t.Fatal(err)
	}
	if err := ct.Verify(); err != nil {
		t.Fatal(err)
	}
	for _, x := range []snapshotter{got, ct} {
		var buf2 bytes.Buffer
		if err := Save(&buf2, x); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatalf("%T re-saved snapshot differs byte-for-byte", x)
		}
	}
	path := filepath.Join(t.TempDir(), "tree.hot")
	if err := SaveFile(path, orig); err != nil {
		t.Fatal(err)
	}
	if blob, err := os.ReadFile(path); err != nil || !bytes.Equal(blob, buf.Bytes()) {
		t.Fatalf("SaveFile wrote a different snapshot than Save (err %v)", err)
	}
}

// TestSnapshotEdgeShapes covers the loader edge cases: the empty tree, the
// single-entry tree (both have no compound nodes), and >255-byte keys
// (multi-byte length varints).
func TestSnapshotEdgeShapes(t *testing.T) {
	s := &tidstore.Store{}

	t.Run("empty", func(t *testing.T) {
		var buf bytes.Buffer
		if err := Save(&buf, New(s.Key)); err != nil {
			t.Fatal(err)
		}
		got := loadTree(t, buf.Bytes(), s.Key)
		if got.Len() != 0 {
			t.Fatalf("empty round trip: len=%d", got.Len())
		}
		if err := got.Verify(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("single", func(t *testing.T) {
		tr := New(s.Key)
		k := []byte("solitary")
		tr.Insert(k, s.Add(k))
		var buf bytes.Buffer
		if err := Save(&buf, tr); err != nil {
			t.Fatal(err)
		}
		got := loadTree(t, buf.Bytes(), s.Key)
		if got.Len() != 1 {
			t.Fatalf("single round trip: len=%d", got.Len())
		}
		if tid, ok := got.Lookup(k); !ok || s.Key(tid, nil) == nil {
			t.Fatal("single entry lost")
		}
		// Load fills only an empty index.
		if _, err := Load(bytes.NewReader(buf.Bytes()), got, true); err == nil || got.Len() != 1 {
			t.Fatalf("load into a non-empty tree: err %v, len %d", err, got.Len())
		}
	})

	t.Run("long-keys", func(t *testing.T) {
		tr := New(s.Key)
		var keys [][]byte
		for i := 0; i < 200; i++ {
			k := []byte(fmt.Sprintf("%0300d", i)) // 300 bytes: keyLen varint needs 2 bytes
			keys = append(keys, k)
			tr.Insert(k, s.Add(k))
		}
		var buf bytes.Buffer
		if err := Save(&buf, tr); err != nil {
			t.Fatal(err)
		}
		got := loadTree(t, buf.Bytes(), s.Key)
		if got.Len() != len(keys) {
			t.Fatalf("long-key round trip: len=%d", got.Len())
		}
		for _, k := range keys {
			if _, ok := got.Lookup(k); !ok {
				t.Fatalf("long key %q lost", k[:8])
			}
		}
		if err := got.Verify(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSnapshotMidDeletes snapshots a tree halfway through a delete pass —
// stale node heights from deletions (which Verify tolerates) must not leak
// into the snapshot, and the loaded tree must match the surviving keys.
func TestSnapshotMidDeletes(t *testing.T) {
	keys := dataset.Generate(dataset.Integer, 4000, 11)
	s := &tidstore.Store{}
	tr := New(s.Key)
	for _, k := range keys {
		tr.Insert(k, s.Add(k))
	}
	// Delete every other key, snapshotting in the middle of the pass.
	var snaps []*Tree
	for i, k := range keys {
		if i%2 == 0 {
			tr.Delete(k)
		}
		if i == len(keys)/2 {
			var buf bytes.Buffer
			if err := Save(&buf, tr); err != nil {
				t.Fatal(err)
			}
			snaps = append(snaps, loadTree(t, buf.Bytes(), s.Key))
		}
	}
	var buf bytes.Buffer
	if err := Save(&buf, tr); err != nil {
		t.Fatal(err)
	}
	final := loadTree(t, buf.Bytes(), s.Key)
	snaps = append(snaps, final)
	for _, got := range snaps {
		if err := got.Verify(); err != nil {
			t.Fatal(err)
		}
	}
	if final.Len() != tr.Len() {
		t.Fatalf("final len %d != %d", final.Len(), tr.Len())
	}
	for i, k := range keys {
		_, ok := final.Lookup(k)
		if want := i%2 == 1; ok != want {
			t.Fatalf("key %d presence %v, want %v", i, ok, want)
		}
	}
}

// TestConcurrentSnapshotUnderChaosDeletes streams snapshots from a live
// ConcurrentTree while workers churn deletes and re-inserts with the ROWEX
// chaos points armed (the delete path fires them at traversal, lock, and
// mid-copy steps). Every snapshot must load into a verifiable tree whose
// keys are an ascending subset of the working set; writers must never
// block on the snapshot.
func TestConcurrentSnapshotUnderChaosDeletes(t *testing.T) {
	store, keys := func() (*tidstore.Store, [][]byte) {
		s := &tidstore.Store{}
		keys := dataset.Generate(dataset.Integer, 1<<12, 3)
		for _, k := range keys {
			s.Add(k)
		}
		return s, keys
	}()
	tr := NewConcurrent(store.Key)
	for i, k := range keys {
		tr.Insert(k, TID(i))
	}
	valid := make(map[string]bool, len(keys))
	for _, k := range keys {
		valid[string(k)] = true
	}

	reg := chaos.New(99)
	reg.On(chaos.RowexAfterTraverse, 0.05, chaos.Yield(4))
	reg.On(chaos.RowexBetweenLocks, 0.05, chaos.Yield(2))
	reg.On(chaos.RowexMidCopy, 0.05, chaos.Yield(1))
	reg.Arm()
	defer chaos.Disarm()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := keys[(i*4+w)%len(keys)]
				if i%2 == 0 {
					tr.Delete(k)
				} else {
					tr.Insert(k, TID((i*4+w)%len(keys)))
				}
			}
		}(w)
	}

	deadline := time.Now().Add(500 * time.Millisecond)
	snapshots := 0
	for time.Now().Before(deadline) {
		var buf bytes.Buffer
		if err := Save(&buf, tr); err != nil {
			t.Fatalf("snapshot under churn: %v", err)
		}
		got := New(store.Key)
		if _, err := Load(bytes.NewReader(buf.Bytes()), got, false); err != nil {
			t.Fatalf("loading churn snapshot: %v", err)
		}
		if err := got.Verify(); err != nil {
			t.Fatalf("churn snapshot fails Verify: %v", err)
		}
		got.Scan(nil, got.Len(), func(tid TID) bool {
			if !valid[string(store.Key(tid, nil))] {
				t.Fatalf("snapshot contains a key outside the working set")
			}
			return true
		})
		snapshots++
	}
	close(stop)
	wg.Wait()
	if snapshots == 0 {
		t.Fatal("no snapshot completed")
	}
	if err := tr.Verify(); err != nil {
		t.Fatalf("live tree corrupt after snapshot churn: %v", err)
	}
}

// TestMapSnapshotRoundTrip round-trips a Map with binary keys (embedded
// zeros exercise the escape) through a stream and through a file.
func TestMapSnapshotRoundTrip(t *testing.T) {
	m := NewMap()
	var keys [][]byte
	for i := 0; i < 1000; i++ {
		k := []byte(fmt.Sprintf("k\x00%04d\x00\xff", i))
		keys = append(keys, k)
		m.Set(k, uint64(i)*3)
	}
	var buf bytes.Buffer
	if err := Save(&buf, m); err != nil {
		t.Fatal(err)
	}
	got := NewMap()
	if _, err := Load(bytes.NewReader(buf.Bytes()), got, false); err != nil {
		t.Fatal(err)
	}
	if got.Len() != m.Len() {
		t.Fatalf("len %d != %d", got.Len(), m.Len())
	}
	for i, k := range keys {
		v, ok := got.Get(k)
		if !ok || v != uint64(i)*3 {
			t.Fatalf("get %q = (%d,%v)", k, v, ok)
		}
	}
	// Order check: both maps must enumerate identically.
	var wantOrder, gotOrder [][]byte
	m.Range(nil, -1, func(k []byte, _ uint64) bool {
		wantOrder = append(wantOrder, append([]byte(nil), k...))
		return true
	})
	got.Range(nil, -1, func(k []byte, _ uint64) bool {
		gotOrder = append(gotOrder, append([]byte(nil), k...))
		return true
	})
	if len(wantOrder) != len(gotOrder) {
		t.Fatalf("range lengths differ: %d vs %d", len(gotOrder), len(wantOrder))
	}
	for j := range wantOrder {
		if !bytes.Equal(wantOrder[j], gotOrder[j]) {
			t.Fatalf("range order diverges at %d", j)
		}
	}

	// File round trip.
	path := filepath.Join(t.TempDir(), "map.hot")
	if err := SaveFile(path, m); err != nil {
		t.Fatal(err)
	}
	got2 := NewMap()
	if _, err := loadFile(path, got2, false); err != nil || got2.Len() != m.Len() {
		t.Fatalf("file round trip: len=%d err=%v", got2.Len(), err)
	}
}

// TestSnapshotKindMismatch: loading a snapshot into the wrong index type
// must fail with a typed SnapErrWrongKind error, strictly and salvaging
// alike, and leave the target empty. That includes a section of the
// integer-set kind an earlier build wrote, which no type reads any more.
func TestSnapshotKindMismatch(t *testing.T) {
	m := NewMap()
	m.Set([]byte("a"), 1)
	var mapSnap bytes.Buffer
	if err := Save(&mapSnap, m); err != nil {
		t.Fatal(err)
	}
	var setSnap bytes.Buffer
	kind, write := u64SetUnit(0)
	sw, err := persist.NewWriter(&setSnap, kind)
	if err != nil {
		t.Fatal(err)
	}
	if err := write(sw); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	newTree := func() loadTarget { return New(tidstore.Uint64Key) }
	newMap := func() loadTarget { return NewMap() }
	for _, c := range []struct {
		name   string
		blob   []byte
		target func() loadTarget
	}{
		{"map-into-tree", mapSnap.Bytes(), newTree},
		{"map-into-concurrent", mapSnap.Bytes(), func() loadTarget { return NewConcurrent(tidstore.Uint64Key) }},
		{"uint64set-into-tree", setSnap.Bytes(), newTree},
		{"uint64set-into-map", setSnap.Bytes(), newMap},
	} {
		for _, salvage := range []bool{false, true} {
			x := c.target()
			if _, err := Load(bytes.NewReader(c.blob), x, salvage); !foreign(err) || x.Len() != 0 {
				t.Fatalf("%s (salvage %v): err %v, %d entries loaded", c.name, salvage, err, x.Len())
			}
		}
	}
	for _, salvage := range []bool{false, true} {
		tr, _, err := LoadShardedTree(bytes.NewReader(setSnap.Bytes()), tidstore.Uint64Key, salvage)
		if !foreign(err) || tr != nil {
			t.Fatalf("uint64set as sharded (salvage %v): err %v", salvage, err)
		}
	}
}

// TestRecoverFileDamaged: a salvaging Load of a truncated file keeps a
// prefix and reports the damage with its offset.
func TestRecoverFileDamaged(t *testing.T) {
	m := NewMap()
	// Enough data for several 32KB blocks, so a truncated tail still
	// leaves intact checksummed blocks to salvage.
	for i := 0; i < 4000; i++ {
		m.Set([]byte(fmt.Sprintf("key-%024d", i)), uint64(i))
	}
	path := filepath.Join(t.TempDir(), "map.hot")
	if err := SaveFile(path, m); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob[:len(blob)*2/3], 0o644); err != nil {
		t.Fatal(err)
	}
	got := NewMap()
	rep, err := loadFile(path, got, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Complete || rep.Damage == nil {
		t.Fatalf("damage not reported: %+v", rep)
	}
	if rep.Damage.Offset <= 0 || rep.Damage.Offset > int64(len(blob)) {
		t.Fatalf("implausible damage offset %d", rep.Damage.Offset)
	}
	if got.Len() == 0 || got.Len() >= m.Len() {
		t.Fatalf("salvaged %d of %d entries", got.Len(), m.Len())
	}
	// Everything salvaged must be true data.
	got.Range(nil, -1, func(k []byte, v uint64) bool {
		want, ok := m.Get(k)
		if !ok || want != v {
			t.Fatalf("salvaged entry %q=%d not in the original", k, v)
		}
		return true
	})
}
