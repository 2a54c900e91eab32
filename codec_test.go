package hot

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"

	"github.com/hotindex/hot/internal/dataset"
	"github.com/hotindex/hot/internal/persist"
	"github.com/hotindex/hot/internal/tidstore"
)

// TestCodecColdTierOracle runs the cold tier entirely over packed section
// files: every shard demoted under SnapshotCodecPacked, then point reads,
// batch reads, a full merged scan and Verify against a resident oracle.
// The same data demoted raw pins the payoff — packed cold files must be
// smaller on disk.
func TestCodecColdTierOracle(t *testing.T) {
	for _, kind := range []dataset.Kind{dataset.Integer, dataset.URL} {
		t.Run(kind.String(), func(t *testing.T) {
			keys := dataset.Generate(kind, 6000, 42)
			store := &tidstore.Store{}
			for _, k := range keys {
				store.Add(k)
			}
			coldBytes := make(map[SnapshotCodec]int64)
			for _, codec := range []SnapshotCodec{SnapshotCodecRaw, SnapshotCodecPacked} {
				st, oracle := buildPair(keys, store, 8)
				st.SetSnapshotCodec(codec)
				if err := st.EnableColdTier(ColdTierConfig{Dir: t.TempDir()}); err != nil {
					t.Fatal(err)
				}
				for s := 0; s < st.Shards(); s++ {
					if err := st.Demote(s); err != nil {
						t.Fatalf("Demote(%d): %v", s, err)
					}
				}
				if err := st.Verify(); err != nil {
					t.Fatalf("%v cold Verify: %v", codec, err)
				}
				for i, k := range keys {
					tid, ok := st.Lookup(k)
					if !ok || tid != TID(i) {
						t.Fatalf("%v cold lookup %q = (%d, %v), want (%d, true)", codec, k, tid, ok, i)
					}
				}
				if _, ok := st.Lookup([]byte("\xff\xff\xff-absent")); ok {
					t.Fatalf("%v: absent key found cold", codec)
				}
				want := scanSeq(oracle, store)
				got := scanSeq(st, store)
				if len(got) != len(want) {
					t.Fatalf("%v cold scan yields %d keys, want %d", codec, len(got), len(want))
				}
				for i := range want {
					if !bytes.Equal(got[i], want[i]) {
						t.Fatalf("%v cold scan diverges at %d", codec, i)
					}
				}
				coldBytes[codec] = st.ColdStats().ColdBytes
			}
			if coldBytes[SnapshotCodecPacked] >= coldBytes[SnapshotCodecRaw] {
				t.Fatalf("packed cold tier (%d B) not smaller than raw (%d B)",
					coldBytes[SnapshotCodecPacked], coldBytes[SnapshotCodecRaw])
			}
			t.Logf("%s cold bytes: raw %d, packed %d (%.1f%%)", kind,
				coldBytes[SnapshotCodecRaw], coldBytes[SnapshotCodecPacked],
				100*float64(coldBytes[SnapshotCodecPacked])/float64(coldBytes[SnapshotCodecRaw]))
		})
	}
}

// TestCodecDurableShardedReopen checkpoints a durable sharded tree with
// the packed codec, confirms the files on disk really hold packed blocks,
// and reopens the store — under the packed codec and then under raw
// (codec choice must never gate reopening).
func TestCodecDurableShardedReopen(t *testing.T) {
	dir := t.TempDir()
	keys := dataset.Generate(dataset.Integer, 4000, 9)
	store := &tidstore.Store{}
	for _, k := range keys {
		store.Add(k)
	}
	st, _, err := OpenDurableShardedTree(dir, store.Key, 4, keys, DurableOptions{
		Codec: SnapshotCodecPacked,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if !st.Insert(k, TID(i)) {
			t.Fatalf("insert %d failed", i)
		}
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// The checkpoint wrote one snap-NNN.hot per shard; census them all.
	files, err := filepath.Glob(filepath.Join(dir, "snap-*.hot"))
	if err != nil || len(files) != 4 {
		t.Fatalf("per-shard checkpoint files = %v (err %v), want 4", files, err)
	}
	packed := 0
	var stored, unpacked int64
	for _, f := range files {
		secs, err := persist.ScanSections(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range secs {
			packed += s.PackedBlocks
			stored += s.Bytes
			unpacked += s.UnpackedBytes
		}
	}
	if packed == 0 {
		t.Fatal("packed-codec checkpoint wrote no packed blocks")
	}
	if stored >= unpacked {
		t.Fatalf("checkpoint stored %d B, unpacked equivalent %d B", stored, unpacked)
	}

	// Reopen under each codec; both must restore every entry.
	for _, codec := range []SnapshotCodec{SnapshotCodecPacked, SnapshotCodecRaw} {
		st, info, err := OpenDurableShardedTree(dir, store.Key, 4, keys, DurableOptions{Codec: codec})
		if err != nil {
			t.Fatalf("reopen with %v: %v", codec, err)
		}
		if info.SnapshotEntries != uint64(len(keys)) {
			t.Fatalf("reopen with %v restored %d entries, want %d", codec, info.SnapshotEntries, len(keys))
		}
		for i, k := range keys {
			if tid, ok := st.Lookup(k); !ok || tid != TID(i) {
				t.Fatalf("reopen with %v: lookup %q = (%d, %v)", codec, k, tid, ok)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCodecSnapshotSkew pins the user-facing skew behavior: a snapshot
// block stamped with a codec this build does not know fails a load with
// the typed SnapErrUnsupportedCodec — never a checksum mismatch that
// would read as disk corruption.
func TestCodecSnapshotSkew(t *testing.T) {
	store := &tidstore.Store{}
	tr := New(store.Key)
	for _, k := range dataset.Generate(dataset.URL, 2000, 3) {
		tr.Insert(k, store.Add(k))
	}
	tr.SetSnapshotCodec(SnapshotCodecPacked)
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTree(bytes.NewReader(buf.Bytes()), store.Key); err != nil {
		t.Fatalf("packed snapshot failed to load: %v", err)
	}
	blob := buf.Bytes()
	blob[16+3] = 0x7F // stamp an unknown codec on the first block
	_, err := LoadTree(bytes.NewReader(blob), store.Key)
	var se *SnapshotError
	if !errors.As(err, &se) || se.Kind != SnapErrUnsupportedCodec {
		t.Fatalf("unknown-codec load returned %v, want SnapErrUnsupportedCodec", err)
	}
	if se.Kind == SnapErrChecksum {
		t.Fatal("codec skew misreported as checksum damage")
	}
}
