package hot

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"github.com/hotindex/hot/internal/persist"
	"github.com/hotindex/hot/internal/tidstore"
)

// Fuzz targets for the public API: `go test -fuzz FuzzMap` explores them;
// plain `go test` replays the seed corpus below as regression tests.

// FuzzMap drives a Map with an operation tape decoded from raw bytes and
// checks it against a Go map plus sorted-slice oracle.
func FuzzMap(f *testing.F) {
	f.Add([]byte("\x00a\x01b\x02c"))
	f.Add([]byte{0, 0, 0, 1, 2, 3, 0xFF, 0x00, 0x80})
	f.Add([]byte("insert\x00delete\x01get\x02range"))
	f.Fuzz(func(t *testing.T, tape []byte) {
		m := NewMap()
		oracle := map[string]uint64{}
		i := 0
		next := func() ([]byte, bool) {
			if i >= len(tape) {
				return nil, false
			}
			n := int(tape[i]) % 9 // key length 0..8
			i++
			end := i + n
			if end > len(tape) {
				end = len(tape)
			}
			k := tape[i:end]
			i = end
			return k, true
		}
		step := 0
		for {
			k, ok := next()
			if !ok {
				break
			}
			step++
			switch step % 4 {
			case 0:
				if got := m.Delete(k); got != mapHas(oracle, k) {
					t.Fatalf("delete %x: %v", k, got)
				}
				delete(oracle, string(k))
			case 1, 2:
				isNew := m.Set(k, uint64(step))
				if _, present := oracle[string(k)]; present == isNew {
					t.Fatalf("set %x: new=%v present=%v", k, isNew, present)
				}
				oracle[string(k)] = uint64(step)
			default:
				v, got := m.Get(k)
				want, present := oracle[string(k)]
				if got != present || (got && v != want) {
					t.Fatalf("get %x = (%d,%v), want (%d,%v)", k, v, got, want, present)
				}
			}
		}
		if m.Len() != len(oracle) {
			t.Fatalf("len %d != %d", m.Len(), len(oracle))
		}
		// Full range must enumerate the oracle in sorted order.
		var want []string
		for k := range oracle {
			want = append(want, k)
		}
		sort.Strings(want)
		idx := 0
		m.Range(nil, -1, func(k []byte, v uint64) bool {
			if idx >= len(want) || !bytes.Equal(k, []byte(want[idx])) {
				t.Fatalf("range[%d] = %x, want %x", idx, k, want[idx])
			}
			if v != oracle[want[idx]] {
				t.Fatalf("range[%d] value %d", idx, v)
			}
			idx++
			return true
		})
		if idx != len(want) {
			t.Fatalf("range enumerated %d of %d", idx, len(want))
		}
	})
}

func mapHas(m map[string]uint64, k []byte) bool {
	_, ok := m[string(k)]
	return ok
}

// FuzzTreeVerify interleaves inserts, deletes and lookups on a Tree from an
// operation tape and runs the full structural-invariant walk (Verify) after
// every batch of operations, so the fuzzer searches directly for histories
// that corrupt the trie rather than only for wrong answers. The same tape,
// read as a stream of 63-bit values, then drives a second Tree over the
// embedded-key loader as an integer set (see checkIntegerSet).
func FuzzTreeVerify(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add([]byte("\x01\x00\x00\x00\x00\x00\x00\x00a\x02\x00\x00\x00\x00\x00\x00\x00a"))
	f.Add(bytes.Repeat([]byte{3, 7, 1, 0, 0, 255, 128, 64, 32}, 8))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, tape []byte) {
		s := &tidstore.Store{}
		tr := New(s.Key)
		oracle := map[string]uint64{}
		for i := 0; i+9 <= len(tape); i += 9 {
			op := tape[i] % 3
			k := tape[i+1 : i+9] // fixed 8-byte keys are prefix-free
			switch op {
			case 0:
				_, present := oracle[string(k)]
				tid := s.Add(k)
				if tr.Insert(k, tid) == present {
					t.Fatalf("insert %x: present=%v", k, present)
				}
				if !present {
					oracle[string(k)] = tid
				}
			case 1:
				_, present := oracle[string(k)]
				if tr.Delete(k) != present {
					t.Fatalf("delete %x: present=%v", k, present)
				}
				delete(oracle, string(k))
			default:
				tid, ok := tr.Lookup(k)
				want, present := oracle[string(k)]
				if ok != present || (ok && tid != want) {
					t.Fatalf("lookup %x = (%d,%v), want (%d,%v)", k, tid, ok, want, present)
				}
			}
			if (i/9)%8 == 7 {
				if err := tr.Verify(); err != nil {
					t.Fatalf("after op %d: %v", i/9, err)
				}
			}
		}
		if err := tr.Verify(); err != nil {
			t.Fatal(err)
		}
		if tr.Len() != len(oracle) {
			t.Fatalf("len %d != %d", tr.Len(), len(oracle))
		}
		checkIntegerSet(t, tape)
	})
}

// checkIntegerSet reads tape as 8-byte big-endian values, each shifted to
// 63 bits, and drives a Tree over the embedded-key loader with them: a
// value not in the set is inserted, a value in it is inserted again (which
// must be refused) and deleted. The tree must then hold exactly the
// oracle's values, and a full Scan must return them in ascending order.
func checkIntegerSet(t *testing.T, tape []byte) {
	set := New(tidstore.Uint64Key)
	oracle := map[uint64]bool{}
	for i := 0; i+8 <= len(tape); i += 8 {
		v := binary.BigEndian.Uint64(tape[i:]) >> 1
		if !oracle[v] {
			if !set.Insert(u64Key(v), v) {
				t.Fatalf("insert %d failed", v)
			}
			oracle[v] = true
			continue
		}
		if set.Insert(u64Key(v), v) {
			t.Fatalf("duplicate insert %d succeeded", v)
		}
		if !set.Delete(u64Key(v)) {
			t.Fatalf("delete %d failed", v)
		}
		delete(oracle, v)
	}
	if err := set.Verify(); err != nil {
		t.Fatal(err)
	}
	if set.Len() != len(oracle) {
		t.Fatalf("set len %d != %d", set.Len(), len(oracle))
	}
	prev := int64(-1)
	if n := set.Scan(nil, set.Len(), func(v TID) bool {
		if int64(v) <= prev || !oracle[v] {
			t.Fatalf("set scan order/content broken at %d", v)
		}
		prev = int64(v)
		return true
	}); n != len(oracle) {
		t.Fatalf("set scan visited %d of %d", n, len(oracle))
	}
}

// FuzzLookupBatch cross-checks batched lookups against scalar Lookup: a
// tree and a three-shard sharded tree are built from the tape's first half
// and probed with batches decoded from the whole tape, so probes mix
// present keys, absent keys and prefix-colliding near-misses. The sharded
// tree runs under a cold tier with its middle shard demoted, and every
// third key is then deleted from both, so its batches cross hot shards, a
// section and a delta holding tombstones. Each index's batch answers must
// agree exactly with its scalar ones, and the two indexes with each other,
// at any batch size.
func FuzzLookupBatch(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17})
	f.Add(bytes.Repeat([]byte{0xAB, 0x00, 0xFF, 0x7F}, 24))
	f.Add([]byte("batch\x00lookup\x01oracle\x02probe"))
	f.Add([]byte("\x10aaaaaaa\x60bbbbbbb\xb0ccccccc\x61bbbbbbb\x62bbbbbbb\x11aaaaaaa\xb1ccccccc"))
	f.Fuzz(func(t *testing.T, tape []byte) {
		s := &tidstore.Store{}
		tr := New(s.Key)
		sh := newShardedFromBounds(s.Key, [][]byte{{0x55}, {0xAA}})
		var stored [][]byte
		for i := 0; i+8 <= len(tape)/2; i += 8 {
			k := tape[i : i+8] // fixed 8-byte keys are prefix-free
			if _, ok := tr.Lookup(k); !ok {
				tid := s.Add(k)
				tr.Insert(k, tid)
				sh.Insert(k, tid)
				stored = append(stored, k)
			}
		}
		if err := sh.EnableColdTier(ColdTierConfig{Dir: t.TempDir()}); err != nil {
			t.Fatal(err)
		}
		if err := sh.Demote(1); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(stored); i += 3 {
			tr.Delete(stored[i])
			sh.Delete(stored[i])
		}
		var probes [][]byte
		for i := 0; i+8 <= len(tape); i += 4 { // overlapping windows: near-miss probes
			probes = append(probes, tape[i:i+8])
		}
		if len(probes) == 0 {
			return
		}
		batch := 1 + int(tape[0])%(len(probes)+1)
		out := make([]uint64, batch)
		for base := 0; base < len(probes); base += batch {
			chunk := probes[base:min(base+batch, len(probes))]
			for _, idx := range []Index{tr, sh} {
				found := idx.LookupBatch(chunk, out)
				for i, k := range chunk {
					wantTID, wantOK := idx.Lookup(k)
					if treeTID, treeOK := tr.Lookup(k); treeTID != wantTID || treeOK != wantOK {
						t.Fatalf("probe %x: %T (%d,%v), tree (%d,%v)", k, idx, wantTID, wantOK, treeTID, treeOK)
					}
					if found[i] != wantOK || out[i] != wantTID {
						t.Fatalf("probe %x: %T batch (%d,%v), scalar (%d,%v)", k, idx, out[i], found[i], wantTID, wantOK)
					}
				}
			}
		}
	})
}

// FuzzSnapshotLoad feeds arbitrary bytes to every snapshot loader: none may
// panic, and whatever loads without error must pass the structural Verify
// walk. The seeds are valid snapshots of each kind so the fuzzer starts
// from parseable files and mutates inward past the checksums.
func FuzzSnapshotLoad(f *testing.F) {
	seed := func(build func() ([]byte, error)) {
		blob, err := build()
		if err == nil {
			f.Add(blob)
		}
	}
	seed(func() ([]byte, error) {
		s := &tidstore.Store{}
		tr := New(s.Key)
		for _, k := range []string{"aaaaaaaa", "bbbbbbbb", "cccccccc"} {
			tr.Insert([]byte(k), s.Add([]byte(k)))
		}
		var buf bytes.Buffer
		err := Save(&buf, tr)
		return buf.Bytes(), err
	})
	seed(func() ([]byte, error) {
		m := NewMap()
		m.Set([]byte("k\x00ey"), 7)
		m.Set([]byte("k\xffey"), 9)
		var buf bytes.Buffer
		err := Save(&buf, m)
		return buf.Bytes(), err
	})
	seed(func() ([]byte, error) {
		set := New(tidstore.Uint64Key)
		for v := uint64(1); v < 100; v += 7 {
			set.Insert(u64Key(v), v)
		}
		var buf bytes.Buffer
		err := Save(&buf, set)
		return buf.Bytes(), err
	})
	f.Add([]byte{})
	f.Add([]byte("HOTSNAP\x01"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m := NewMap()
		if _, err := Load(bytes.NewReader(data), m, false); err == nil {
			if verr := m.Verify(); verr != nil {
				t.Fatalf("loaded map fails Verify: %v", verr)
			}
		}
		// Tree loads need a loader resolving every TID in the snapshot; feed
		// one from the entries themselves, recorded before each insert. A
		// TID claimed twice for different keys breaks the loader contract
		// Load documents, so the harness rejects it like corruption.
		store := map[uint64][]byte{}
		tr := New(func(tid TID, _ []byte) []byte { return store[tid] })
		insert := loadInto(tr.t.Insert)
		_, err := persist.Read(bytes.NewReader(data), persist.KindTree, func(key []byte, tid uint64) error {
			if prev, dup := store[tid]; dup && !bytes.Equal(prev, key) {
				return &SnapshotError{Kind: SnapErrCorrupt, Detail: "TID reused for a different key"}
			}
			store[tid] = append([]byte(nil), key...)
			return insert(key, tid)
		})
		if err == nil {
			if verr := tr.Verify(); verr != nil {
				t.Fatalf("loaded tree fails Verify: %v", verr)
			}
		}
		// The salvage path must hold the same bar: never panic, and report
		// exactly as many entries as it delivered.
		delivered := uint64(0)
		rep, err := persist.Recover(bytes.NewReader(data), persist.KindMap, func([]byte, uint64) error {
			delivered++
			return nil
		})
		if err == nil && rep.Entries != delivered {
			t.Fatalf("recovery report says %d entries, delivered %d", rep.Entries, delivered)
		}
	})
}

// FuzzShardedSnapshotLoad feeds arbitrary bytes to the sharded snapshot
// loaders (manifest section + per-shard sections): they may never panic,
// and anything that loads cleanly must pass the aggregated Verify walk,
// including the shard-range containment checks. Seeds are valid sharded
// snapshots — over a tuple store and over the embedded-key loader — so
// mutation starts past the framing.
func FuzzShardedSnapshotLoad(f *testing.F) {
	seed := func(build func() ([]byte, error)) {
		blob, err := build()
		if err == nil {
			f.Add(blob)
		}
	}
	seed(func() ([]byte, error) {
		s := &tidstore.Store{}
		keys := [][]byte{
			[]byte("aaaaaaaa"), []byte("hhhhhhhh"), []byte("pppppppp"), []byte("zzzzzzzz"),
		}
		tr := NewShardedTree(s.Key, 3, keys)
		for _, k := range keys {
			tr.Insert(k, s.Add(k))
		}
		var buf bytes.Buffer
		err := Save(&buf, tr)
		return buf.Bytes(), err
	})
	seed(func() ([]byte, error) {
		set := NewShardedTree(tidstore.Uint64Key, 4, u64Keys([]uint64{1 << 20, 1 << 40, 1 << 60}))
		for v := uint64(3); v < 1<<62; v = v*5 + 1 {
			set.Insert(u64Key(v), v)
		}
		var buf bytes.Buffer
		err := Save(&buf, set)
		return buf.Bytes(), err
	})
	f.Add([]byte{})
	f.Add([]byte("HOTSNAP\x01"))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Tree loads need a loader resolving every TID in the image; harvest
		// one from the raw sections first, the same way FuzzSnapshotLoad does
		// for the flat tree. A TID reused for two different keys breaks the
		// loader contract, so such tapes are skipped rather than loaded.
		r := bytes.NewReader(data)
		if _, err := persist.Read(r, persist.KindShardManifest, func([]byte, uint64) error { return nil }); err != nil {
			return
		}
		store := map[uint64][]byte{}
		contractOK := true
		for contractOK {
			_, err := persist.Read(r, persist.KindTree, func(key []byte, tid uint64) error {
				if prev, dup := store[tid]; dup && !bytes.Equal(prev, key) {
					contractOK = false
					return &SnapshotError{Kind: SnapErrCorrupt, Detail: "TID reused for a different key"}
				}
				store[tid] = append([]byte(nil), key...)
				return nil
			})
			if err != nil {
				break
			}
		}
		if !contractOK {
			return
		}
		loader := func(tid TID, _ []byte) []byte { return store[uint64(tid)] }
		if tr, _, err := LoadShardedTree(bytes.NewReader(data), loader, false); err == nil {
			if verr := tr.Verify(); verr != nil {
				t.Fatalf("loaded sharded tree fails Verify: %v", verr)
			}
		}
	})
}

// FuzzSnapshotRoundTrip is the save/load oracle: a tree and a map built
// from the tape must survive a snapshot round trip byte-exactly — same
// length, same iteration order, same lookups — and the loaded structures
// must pass Verify.
func FuzzSnapshotRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add(bytes.Repeat([]byte{0x00, 0xFF, 0x80, 0x01}, 16))
	f.Add([]byte("round\x00trip\x01oracle"))
	f.Fuzz(func(t *testing.T, tape []byte) {
		// Tree with fixed 8-byte keys (prefix-free by construction).
		s := &tidstore.Store{}
		tr := New(s.Key)
		for i := 0; i+8 <= len(tape); i += 8 {
			k := tape[i : i+8]
			if _, ok := tr.Lookup(k); !ok {
				tr.Insert(k, s.Add(k))
			}
		}
		var buf bytes.Buffer
		if err := Save(&buf, tr); err != nil {
			t.Fatalf("save: %v", err)
		}
		got := New(s.Key)
		if _, err := Load(bytes.NewReader(buf.Bytes()), got, false); err != nil {
			t.Fatalf("load: %v", err)
		}
		if got.Len() != tr.Len() {
			t.Fatalf("len %d != %d", got.Len(), tr.Len())
		}
		if err := got.Verify(); err != nil {
			t.Fatalf("loaded tree fails Verify: %v", err)
		}
		var wantSeq, gotSeq []uint64
		tr.Scan(nil, tr.Len(), func(tid TID) bool { wantSeq = append(wantSeq, tid); return true })
		got.Scan(nil, got.Len(), func(tid TID) bool { gotSeq = append(gotSeq, tid); return true })
		if len(wantSeq) != len(gotSeq) {
			t.Fatalf("scan lengths differ: %d vs %d", len(gotSeq), len(wantSeq))
		}
		for i := range wantSeq {
			if wantSeq[i] != gotSeq[i] {
				t.Fatalf("iteration order diverges at %d", i)
			}
		}
		for i := 0; i+8 <= len(tape); i += 8 {
			k := tape[i : i+8]
			wantTID, _ := tr.Lookup(k)
			gotTID, ok := got.Lookup(k)
			if !ok || gotTID != wantTID {
				t.Fatalf("lookup %x: (%d,%v), want (%d,true)", k, gotTID, ok, wantTID)
			}
		}

		// Map with variable-length keys straight off the tape.
		m := NewMap()
		for i := 0; i < len(tape); {
			n := int(tape[i]) % 17
			i++
			end := i + n
			if end > len(tape) {
				end = len(tape)
			}
			m.Set(tape[i:end], uint64(i))
			i = end
		}
		buf.Reset()
		if err := Save(&buf, m); err != nil {
			t.Fatalf("map save: %v", err)
		}
		gm := NewMap()
		if _, err := Load(bytes.NewReader(buf.Bytes()), gm, false); err != nil {
			t.Fatalf("map load: %v", err)
		}
		if gm.Len() != m.Len() {
			t.Fatalf("map len %d != %d", gm.Len(), m.Len())
		}
		var wantKeys, gotKeys [][]byte
		m.Range(nil, -1, func(k []byte, _ uint64) bool {
			wantKeys = append(wantKeys, append([]byte(nil), k...))
			return true
		})
		gm.Range(nil, -1, func(k []byte, v uint64) bool {
			gotKeys = append(gotKeys, append([]byte(nil), k...))
			if want, ok := m.Get(k); !ok || want != v {
				t.Fatalf("map value mismatch at %x", k)
			}
			return true
		})
		if len(wantKeys) != len(gotKeys) {
			t.Fatalf("map range lengths differ: %d vs %d", len(gotKeys), len(wantKeys))
		}
		for i := range wantKeys {
			if !bytes.Equal(wantKeys[i], gotKeys[i]) {
				t.Fatalf("map iteration order diverges at %d", i)
			}
		}
	})
}

// FuzzWALReplay feeds arbitrary bytes to the write-ahead-log replayer: it
// may never panic, the salvage report must be internally consistent (LSNs
// account for every delivered record, ValidSize never exceeds the input, a
// complete log has nothing but zeros past ValidSize), and re-replaying the
// salvaged prefix must be clean and idempotent — the property the
// post-crash tail truncation relies on.
func FuzzWALReplay(f *testing.F) {
	var committed []byte // the 25-write log, zero tail and all
	seed := func(base uint64, writes int) {
		path := filepath.Join(f.TempDir(), "seed.wal")
		w, err := persist.CreateWAL(path, base, 0)
		if err != nil {
			return
		}
		for i := 0; i < writes; i++ {
			key := []byte(fmt.Sprintf("key-%03d", i))
			op := persist.WalInsert + persist.WalOp(i%3)
			tid := uint64(i)
			if op == persist.WalDelete {
				tid = 0
			}
			if lsn, err := w.Append(op, key, tid); err == nil {
				w.Commit(lsn)
			}
		}
		w.Close()
		if blob, err := os.ReadFile(path); err == nil {
			f.Add(blob)
			committed = blob
		}
	}
	seed(0, 0)
	seed(7, 25)
	// The same log with one non-zero byte in its zero tail: damage, with
	// every record salvaged.
	if n := len(committed); n > 0 && committed[n-1] == 0 {
		stray := append([]byte(nil), committed...)
		stray[n-1] = 0x40
		rep, err := persist.ReplayWAL(bytes.NewReader(stray), func(persist.WalOp, []byte, uint64) error { return nil })
		if err != nil || rep.Complete || rep.Damage == nil || rep.Records != 25 {
			f.Fatalf("stray byte in the zero tail: rep=%+v err=%v, want damage after 25 records", rep, err)
		}
		f.Add(stray)
	}
	// A log whose first record is a data record (LSN 1, no checkpoint
	// record): the 12-byte checkpoint record is cut out from behind the
	// 16-byte header. One rule for it in ReplayWAL and WALTailer alike.
	headless := func(blob []byte) []byte { return append(blob[:16:16], blob[28:]...) }
	path := filepath.Join(f.TempDir(), "headless.wal")
	if w, err := persist.CreateWAL(path, 0, 0); err == nil {
		w.Append(persist.WalInsert, []byte("key"), 1)
		w.Close()
		if blob, err := os.ReadFile(path); err == nil && len(blob) > 28 {
			f.Add(headless(blob))
		}
	}
	f.Add([]byte{})
	f.Add([]byte("HOTSNAP\x01"))
	f.Fuzz(func(t *testing.T, data []byte) {
		delivered := uint64(0)
		rep, err := persist.ReplayWAL(bytes.NewReader(data), func(op persist.WalOp, key []byte, tid uint64) error {
			delivered++
			return nil
		})
		if rep.Records != delivered {
			t.Fatalf("report says %d records, delivered %d", rep.Records, delivered)
		}
		if rep.ValidSize < 0 || rep.ValidSize > int64(len(data)) {
			t.Fatalf("ValidSize %d outside [0,%d]", rep.ValidSize, len(data))
		}
		if err != nil {
			return
		}
		if rep.LastLSN != rep.Base+rep.Records {
			t.Fatalf("LSN accounting broken: base %d + %d records != last %d", rep.Base, rep.Records, rep.LastLSN)
		}
		if rep.Complete && (rep.Damage != nil || bytes.ContainsFunc(data[rep.ValidSize:], func(r rune) bool { return r != 0 })) {
			t.Fatalf("Complete log reports damage %v or non-zero bytes past ValidSize %d of %d", rep.Damage, rep.ValidSize, len(data))
		}
		if !rep.Complete && rep.Damage == nil {
			t.Fatal("incomplete log with no damage report")
		}
		if rep.ValidSize < 16 {
			return // not even a header salvaged: recovery recreates, not truncates
		}
		// Replaying the salvaged prefix must deliver the same records and
		// report a clean end — that prefix is what recovery keeps on disk.
		again := uint64(0)
		rep2, err2 := persist.ReplayWAL(bytes.NewReader(data[:rep.ValidSize]), func(persist.WalOp, []byte, uint64) error {
			again++
			return nil
		})
		if err2 != nil || !rep2.Complete || again != delivered || rep2.LastLSN != rep.LastLSN {
			t.Fatalf("salvaged prefix does not replay clean: rep2=%+v err=%v again=%d", rep2, err2, again)
		}
	})
}
