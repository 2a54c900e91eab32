package hot

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"

	"github.com/hotindex/hot/internal/chaos"
	"github.com/hotindex/hot/internal/dataset"
	"github.com/hotindex/hot/internal/persist"
	"github.com/hotindex/hot/internal/tidstore"
)

// loadShardedFile is LoadShardedTree over the file at path.
func loadShardedFile(path string, loader Loader, salvage bool) (*ShardedTree, RecoveryReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, RecoveryReport{}, err
	}
	defer f.Close()
	return LoadShardedTree(f, loader, salvage)
}

// TestShardedSnapshotRoundTrip: snapshot → load must preserve the boundary
// table, every shard's contents, and the global iteration order for all
// data-set shapes and shard counts.
func TestShardedSnapshotRoundTrip(t *testing.T) {
	for _, kind := range dataset.Kinds() {
		for _, shards := range []int{1, 4, 8} {
			t.Run(fmt.Sprintf("%s/s%d", kind, shards), func(t *testing.T) {
				keys := dataset.Generate(kind, 3000, 43)
				s := &tidstore.Store{}
				for _, k := range keys {
					s.Add(k)
				}
				orig, _ := buildPair(keys, s, shards)

				var buf bytes.Buffer
				if err := Save(&buf, orig); err != nil {
					t.Fatal(err)
				}
				got, _, err := LoadShardedTree(bytes.NewReader(buf.Bytes()), s.Key, false)
				if err != nil {
					t.Fatal(err)
				}
				if got.Len() != orig.Len() {
					t.Fatalf("Len %d != %d", got.Len(), orig.Len())
				}
				if err := got.Verify(); err != nil {
					t.Fatal(err)
				}
				wb, gb := orig.Boundaries(), got.Boundaries()
				if len(wb) != len(gb) {
					t.Fatalf("boundary count %d != %d", len(gb), len(wb))
				}
				for i := range wb {
					if !bytes.Equal(wb[i], gb[i]) {
						t.Fatalf("boundary %d differs: %x vs %x", i, gb[i], wb[i])
					}
				}
				// Per-shard placement must be identical, not just the union.
				for i := 0; i < orig.Shards(); i++ {
					if orig.ShardLen(i) != got.ShardLen(i) {
						t.Fatalf("shard %d len %d != %d", i, got.ShardLen(i), orig.ShardLen(i))
					}
				}
				want := scanSeq(orig, s)
				gotSeq := scanSeq(got, s)
				for i := range want {
					if !bytes.Equal(want[i], gotSeq[i]) {
						t.Fatalf("iteration diverges at %d", i)
					}
				}
			})
		}
	}
}

// TestShardedSnapshotFileRoundTrip covers the crash-safe file path plus
// the salvage loader on an undamaged file (must be Complete).
func TestShardedSnapshotFileRoundTrip(t *testing.T) {
	keys := dataset.Generate(dataset.URL, 2000, 47)
	s := &tidstore.Store{}
	for _, k := range keys {
		s.Add(k)
	}
	orig, _ := buildPair(keys, s, 4)
	path := filepath.Join(t.TempDir(), "sharded.hot")
	if err := SaveFile(path, orig); err != nil {
		t.Fatal(err)
	}
	got, _, err := loadShardedFile(path, s.Key, false)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != orig.Len() {
		t.Fatalf("Len %d != %d", got.Len(), orig.Len())
	}
	rec, rep, err := loadShardedFile(path, s.Key, true)
	if err != nil || !rep.Complete || rep.Damage != nil {
		t.Fatalf("recover of clean file: err=%v rep=%+v", err, rep)
	}
	if rec.Len() != orig.Len() || rep.Entries != uint64(orig.Len()) {
		t.Fatalf("recover salvaged %d/%d entries", rep.Entries, orig.Len())
	}
}

// TestShardedSnapshotDamageSweep truncates and bit-flips a sharded
// snapshot at offsets throughout the file. Strict load must never succeed
// on a damaged image with silently missing data unless the damage is
// outside validated bytes; a salvaging load must either fail loudly (manifest
// damage) or salvage a verifiable tree whose scan is exactly a prefix of
// the global sorted key order — the shard sections are laid out in key
// order, so the salvage guarantee is a *global* prefix.
func TestShardedSnapshotDamageSweep(t *testing.T) {
	keys := dataset.Generate(dataset.Integer, 2500, 53)
	s := &tidstore.Store{}
	for _, k := range keys {
		s.Add(k)
	}
	orig, _ := buildPair(keys, s, 4)
	var buf bytes.Buffer
	if err := Save(&buf, orig); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	sorted := make([][]byte, len(keys))
	copy(sorted, keys)
	sort.Slice(sorted, func(i, j int) bool { return bytes.Compare(sorted[i], sorted[j]) < 0 })

	dir := t.TempDir()
	checkSalvage := func(t *testing.T, name string, damaged []byte) {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		rec, rep, err := loadShardedFile(path, s.Key, true)
		if err != nil {
			// Unsalvageable: must be manifest-level damage, and the strict
			// loader must agree it is unloadable.
			if _, _, lerr := loadShardedFile(path, s.Key, false); lerr == nil {
				t.Fatalf("recover failed (%v) but strict load succeeded", err)
			}
			return
		}
		if err := rec.Verify(); err != nil {
			t.Fatalf("salvaged tree fails Verify: %v", err)
		}
		if uint64(rec.Len()) != rep.Entries {
			t.Fatalf("salvaged Len %d != reported entries %d", rec.Len(), rep.Entries)
		}
		i := 0
		rec.Scan(nil, rec.Len()+1, func(tid TID) bool {
			if i >= len(sorted) || !bytes.Equal(s.Key(tid, nil), sorted[i]) {
				t.Fatalf("salvage is not a global sorted prefix at %d", i)
			}
			i++
			return true
		})
		if !rep.Complete && rep.Damage == nil {
			t.Fatal("incomplete salvage without damage report")
		}
	}

	rng := rand.New(rand.NewSource(59))
	// Truncations: header of each section, mid-file, tail.
	cuts := []int{0, 3, 15, 16, 40, len(img) / 4, len(img) / 2, len(img) - 17, len(img) - 1}
	for _, cut := range cuts {
		if cut < 0 || cut > len(img) {
			continue
		}
		checkSalvage(t, fmt.Sprintf("trunc-%d.hot", cut), append([]byte(nil), img[:cut]...))
	}
	// Bit flips at random offsets.
	for trial := 0; trial < 32; trial++ {
		damaged := append([]byte(nil), img...)
		off := rng.Intn(len(damaged))
		damaged[off] ^= 1 << uint(rng.Intn(8))
		checkSalvage(t, fmt.Sprintf("flip-%d.hot", trial), damaged)
	}
}

// TestShardedSnapshotKindMismatch: a plain tree snapshot is not a sharded
// snapshot and vice versa, and a sharded image of integer-set sections is
// not a ShardedTree's; each must fail with ErrWrongKind rather than
// misparse.
func TestShardedSnapshotKindMismatch(t *testing.T) {
	s := &tidstore.Store{}
	k := []byte("key\x00")
	plain := New(s.Key)
	plain.Insert(k, s.Add(k))
	var pb bytes.Buffer
	if err := Save(&pb, plain); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadShardedTree(bytes.NewReader(pb.Bytes()), s.Key, false); err == nil {
		t.Fatal("plain snapshot loaded as sharded")
	} else if se, ok := err.(*SnapshotError); !ok || se.Kind != SnapErrWrongKind {
		t.Fatalf("want ErrWrongKind, got %v", err)
	}

	sharded, _ := buildPair([][]byte{k}, s, 2)
	var sb bytes.Buffer
	if err := Save(&sb, sharded); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bytes.NewReader(sb.Bytes()), New(s.Key), false); err == nil {
		t.Fatal("sharded snapshot loaded as plain")
	}
	// Nor does a sharded image whose sections hold another kind: the
	// integer-set layout (u64SetVals) parses up to its first section
	// and is then refused, also by the salvaging reader, which must not cut
	// a foreign file down to an empty prefix.
	var setb bytes.Buffer
	for s := -1; s < len(u64SetVals); s++ {
		kind, write := u64SetUnit(s)
		sw, err := persist.NewWriter(&setb, kind)
		if err != nil {
			t.Fatal(err)
		}
		if err := write(sw); err != nil {
			t.Fatal(err)
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for _, salvage := range []bool{false, true} {
		_, _, err := LoadShardedTree(bytes.NewReader(setb.Bytes()), tidstore.Uint64Key, salvage)
		if se, ok := err.(*SnapshotError); !ok || se.Kind != SnapErrWrongKind {
			t.Fatalf("sharded image of integer-set sections (salvage %v): want ErrWrongKind, got %v", salvage, err)
		}
	}
}

// u64SetVals is a two-shard integer set, split at u64SetBound, in the
// layout an integer-set sharded type of an earlier build wrote: a shard
// manifest like a ShardedTree's, but sections of kind KindUint64Set, each
// value under its own 8-byte key.
var (
	u64SetBound = u64Key(1 << 40)
	u64SetVals  = [2][]uint64{{7, 42}, {1 << 41, 1 << 50}}
)

// u64SetUnit returns the kind and the entries of one unit of that layout,
// for internal/persist to write: the manifest for s = -1, else shard s's
// section.
func u64SetUnit(s int) (uint16, func(*persist.Writer) error) {
	if s < 0 {
		return persist.KindShardManifest, func(w *persist.Writer) error { return w.WriteEntry(u64SetBound, 0) }
	}
	return persist.KindUint64Set, func(w *persist.Writer) error {
		for _, v := range u64SetVals[s] {
			if err := w.WriteEntry(u64Key(v), v); err != nil {
				return err
			}
		}
		return nil
	}
}

// TestShardedEmbeddedKeySnapshotRoundTrip: a ShardedTree over the
// embedded-key loader snapshots and loads back through the same loader,
// strictly and salvaged, with nothing but the file.
func TestShardedEmbeddedKeySnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	vals := make([]uint64, 2000)
	for i := range vals {
		vals[i] = rng.Uint64() >> 1
	}
	set := NewShardedTree(tidstore.Uint64Key, 4, u64Keys(vals))
	for _, v := range vals {
		set.Insert(u64Key(v), v)
	}
	path := filepath.Join(t.TempDir(), "set.hot")
	if err := SaveFile(path, set); err != nil {
		t.Fatal(err)
	}
	got, _, err := loadShardedFile(path, tidstore.Uint64Key, false)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != set.Len() {
		t.Fatalf("Len %d != %d", got.Len(), set.Len())
	}
	if err := got.Verify(); err != nil {
		t.Fatal(err)
	}
	for _, v := range vals[:200] {
		if tid, ok := got.Lookup(u64Key(v)); !ok || tid != v {
			t.Fatalf("value %d after round trip: (%d, %v)", v, tid, ok)
		}
	}
	rec, rep, err := loadShardedFile(path, tidstore.Uint64Key, true)
	if err != nil || !rep.Complete {
		t.Fatalf("recover clean file: err=%v rep=%+v", err, rep)
	}
	if rec.Len() != set.Len() {
		t.Fatalf("recovered %d of %d", rec.Len(), set.Len())
	}
}

// Sharded crash matrix: a subprocess writer overwriting a previous sharded
// snapshot is killed at every snapshot I/O injection point; the parent
// must always recover either the previous or the new image, never a mix,
// with per-shard Verify clean. This is the multiplexed-file analogue of
// internal/persist's TestCrashMatrix.

const (
	shardedCrashEnvPoint = "HOT_SHARDED_CRASH_POINT"
	shardedCrashEnvDir   = "HOT_SHARDED_CRASH_DIR"
	shardedCrashSeed     = 67
	shardedCrashPrev     = 1500
	shardedCrashNext     = 4000
	shardedCrashShards   = 4
	shardedCrashExit     = 3
)

func shardedCrashKeys() (*tidstore.Store, [][]byte) {
	keys := dataset.Generate(dataset.Integer, shardedCrashNext, shardedCrashSeed)
	s := &tidstore.Store{}
	for _, k := range keys {
		s.Add(k)
	}
	return s, keys
}

func buildShardedCrashTree(s *tidstore.Store, keys [][]byte, n int) *ShardedTree {
	// Boundaries from the FULL key set so prev and next images share the
	// same shard table.
	tr := NewShardedTree(s.Key, shardedCrashShards, keys)
	for i := 0; i < n; i++ {
		tr.Insert(keys[i], TID(i))
	}
	return tr
}

func shardedCrashChild(pointName, dir string) {
	var point chaos.Point
	found := false
	for _, p := range chaos.Points() {
		if p.String() == pointName {
			point, found = p, true
			break
		}
	}
	if !found {
		fmt.Fprintf(os.Stderr, "unknown injection point %q\n", pointName)
		os.Exit(4)
	}
	store, keys := shardedCrashKeys()
	tr := buildShardedCrashTree(store, keys, shardedCrashNext)
	reg := chaos.New(shardedCrashSeed)
	reg.On(point, 1, chaos.Exit(shardedCrashExit))
	reg.Arm()
	err := SaveFile(filepath.Join(dir, "sharded.hot"), tr)
	chaos.Disarm()
	fmt.Fprintf(os.Stderr, "point %s never fired (save err: %v)\n", pointName, err)
	os.Exit(5)
}

func TestShardedCrashMatrix(t *testing.T) {
	if p := os.Getenv(shardedCrashEnvPoint); p != "" {
		shardedCrashChild(p, os.Getenv(shardedCrashEnvDir))
	}
	store, keys := shardedCrashKeys()
	points := []chaos.Point{
		chaos.SnapWriteHeader,
		chaos.SnapWriteBlock,
		chaos.SnapTornWrite,
		chaos.SnapSync,
		chaos.SnapRename,
		chaos.SnapDirSync,
	}
	for _, point := range points {
		point := point
		t.Run(point.String(), func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "sharded.hot")
			if err := SaveFile(path, buildShardedCrashTree(store, keys, shardedCrashPrev)); err != nil {
				t.Fatal(err)
			}

			cmd := exec.Command(os.Args[0], "-test.run=^TestShardedCrashMatrix$")
			cmd.Env = append(os.Environ(),
				shardedCrashEnvPoint+"="+point.String(), shardedCrashEnvDir+"="+dir)
			out, err := cmd.CombinedOutput()
			ee, ok := err.(*exec.ExitError)
			if !ok || ee.ExitCode() != shardedCrashExit {
				t.Fatalf("writer did not crash at the point (err=%v):\n%s", err, out)
			}

			tr, rep, err := loadShardedFile(path, store.Key, false)
			if err != nil {
				tr, rep, err = loadShardedFile(path, store.Key, true)
				if err != nil {
					t.Fatalf("sharded snapshot unrecoverable after crash: %v", err)
				}
				t.Logf("strict load failed, salvaged %d entries (damage: %v)", rep.Entries, rep.Damage)
			}
			if err := tr.Verify(); err != nil {
				t.Fatalf("recovered sharded tree fails Verify: %v", err)
			}

			// Atomic protocol: the main path holds the previous image or
			// the complete new one.
			var wantN int
			switch tr.Len() {
			case shardedCrashPrev:
				wantN = shardedCrashPrev
			case shardedCrashNext:
				wantN = shardedCrashNext
			default:
				t.Fatalf("recovered %d entries, want %d or %d", tr.Len(), shardedCrashPrev, shardedCrashNext)
			}
			oracle := make([][]byte, wantN)
			copy(oracle, keys[:wantN])
			sort.Slice(oracle, func(i, j int) bool { return bytes.Compare(oracle[i], oracle[j]) < 0 })
			i := 0
			tr.Scan(nil, wantN, func(tid TID) bool {
				if i >= len(oracle) || !bytes.Equal(store.Key(tid, nil), oracle[i]) {
					t.Fatalf("entry %d diverges from the sorted oracle", i)
				}
				i++
				return true
			})
			if i != wantN {
				t.Fatalf("scan enumerated %d of %d oracle keys", i, wantN)
			}

			// Torn temp file: the manifest is written first, so salvage
			// either rejects the file outright (damage inside the
			// manifest) or hands back a verifiable prefix of the new
			// image.
			tmp := path + ".tmp"
			if _, statErr := os.Stat(tmp); statErr == nil {
				blob, rerr := os.ReadFile(tmp)
				if rerr != nil {
					t.Fatal(rerr)
				}
				ttmp := filepath.Join(dir, "torn-copy.hot")
				if err := os.WriteFile(ttmp, blob, 0o644); err != nil {
					t.Fatal(err)
				}
				rec, rep, rerr2 := loadShardedFile(ttmp, store.Key, true)
				if rerr2 == nil {
					if err := rec.Verify(); err != nil {
						t.Fatalf("torn temp salvage fails Verify: %v", err)
					}
					t.Logf("torn temp file: salvaged %d/%d entries, complete=%v",
						rep.Entries, shardedCrashNext, rep.Complete)
				} else {
					t.Logf("torn temp file unsalvageable (manifest damage): %v", rerr2)
				}
			}
		})
	}
}

// TestShardedSnapshotSectionKindGuard hand-assembles a file whose manifest
// is valid but whose shard sections carry the wrong kind, which must be
// rejected with ErrWrongKind.
func TestShardedSnapshotSectionKindGuard(t *testing.T) {
	var buf bytes.Buffer
	mw, err := persist.NewWriter(&buf, persist.KindShardManifest)
	if err != nil {
		t.Fatal(err)
	}
	if err := mw.WriteEntry([]byte{0x80}, 0); err != nil {
		t.Fatal(err)
	}
	if err := mw.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		sw, err := persist.NewWriter(&buf, persist.KindMap) // wrong kind
		if err != nil {
			t.Fatal(err)
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
	}
	s := &tidstore.Store{}
	if _, _, err := LoadShardedTree(bytes.NewReader(buf.Bytes()), s.Key, false); err == nil {
		t.Fatal("wrong section kind accepted")
	} else if se, ok := err.(*SnapshotError); !ok || se.Kind != SnapErrWrongKind {
		t.Fatalf("want ErrWrongKind, got %v", err)
	}
}
