package hot

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"github.com/hotindex/hot/internal/core"
	"github.com/hotindex/hot/internal/dataset"
	"github.com/hotindex/hot/internal/tidstore"
	"github.com/hotindex/hot/internal/wire"
)

// scanSeq collects an index's full key sequence in scan order.
func scanSeq(idx Index, s *tidstore.Store) [][]byte {
	var out [][]byte
	idx.Scan(nil, idx.Len(), func(tid TID) bool {
		out = append(out, append([]byte(nil), s.Key(tid, nil)...))
		return true
	})
	return out
}

// u64Key is v's 8-byte big-endian key, the key the embedded-key loader
// (tidstore.Uint64Key) resolves TID v to.
func u64Key(v uint64) []byte { return tidstore.Uint64Key(v, nil) }

// u64Keys is u64Key of every value.
func u64Keys(vs []uint64) [][]byte {
	keys := make([][]byte, len(vs))
	for i, v := range vs {
		keys[i] = u64Key(v)
	}
	return keys
}

// buildPair loads the same keys into a ShardedTree and a single-tree
// oracle.
func buildPair(keys [][]byte, s *tidstore.Store, shards int) (*ShardedTree, *Tree) {
	st := NewShardedTree(s.Key, shards, keys)
	oracle := New(s.Key)
	for i, k := range keys {
		if !st.Insert(k, TID(i)) {
			panic("sharded insert failed")
		}
		if !oracle.Insert(k, TID(i)) {
			panic("oracle insert failed")
		}
	}
	return st, oracle
}

// TestShardedTreeOracle: for each data-set shape and shard count, the
// sharded tree must agree with a single tree byte-for-byte — Len, full
// merged scan order, point lookups, and deletes.
func TestShardedTreeOracle(t *testing.T) {
	for _, kind := range dataset.Kinds() {
		for _, shards := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("%s/s%d", kind, shards), func(t *testing.T) {
				keys := dataset.Generate(kind, 4000, 11)
				s := &tidstore.Store{}
				for _, k := range keys {
					s.Add(k)
				}
				st, oracle := buildPair(keys, s, shards)
				if st.Len() != oracle.Len() {
					t.Fatalf("Len %d != %d", st.Len(), oracle.Len())
				}
				if err := st.Verify(); err != nil {
					t.Fatal(err)
				}
				want := scanSeq(oracle, s)
				got := scanSeq(st, s)
				if len(got) != len(want) {
					t.Fatalf("scan yields %d keys, want %d", len(got), len(want))
				}
				for i := range want {
					if !bytes.Equal(got[i], want[i]) {
						t.Fatalf("merged scan diverges at %d: %q vs %q", i, got[i], want[i])
					}
				}
				for i, k := range keys {
					tid, ok := st.Lookup(k)
					if !ok || tid != TID(i) {
						t.Fatalf("lookup %q = (%d, %v)", k, tid, ok)
					}
				}
				// Delete every other key; the remainder must still agree.
				for i, k := range keys {
					if i%2 == 0 {
						if !st.Delete(k) || !oracle.Delete(k) {
							t.Fatalf("delete %q failed", k)
						}
					}
				}
				if err := st.Verify(); err != nil {
					t.Fatal(err)
				}
				want = scanSeq(oracle, s)
				got = scanSeq(st, s)
				if len(got) != len(want) {
					t.Fatalf("post-delete scan yields %d keys, want %d", len(got), len(want))
				}
				for i := range want {
					if !bytes.Equal(got[i], want[i]) {
						t.Fatalf("post-delete scan diverges at %d", i)
					}
				}
			})
		}
	}
}

// TestShardedBoundarySeeks: seeks landing exactly on a shard boundary key,
// just below it, and just above it must all produce output byte-identical
// to the single-tree oracle — the acceptance criterion for cross-shard
// seek semantics.
func TestShardedBoundarySeeks(t *testing.T) {
	keys := dataset.Generate(dataset.Integer, 5000, 13)
	s := &tidstore.Store{}
	for _, k := range keys {
		s.Add(k)
	}
	st, oracle := buildPair(keys, s, 8)

	seekAndCompare := func(start []byte, label string) {
		t.Helper()
		var want, got [][]byte
		oracle.Scan(start, 64, func(tid TID) bool {
			want = append(want, append([]byte(nil), s.Key(tid, nil)...))
			return true
		})
		st.Scan(start, 64, func(tid TID) bool {
			got = append(got, append([]byte(nil), s.Key(tid, nil)...))
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("%s: scan from %x yields %d keys, want %d", label, start, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("%s: scan from %x diverges at %d: %x vs %x", label, start, i, got[i], want[i])
			}
		}
		// Cursor seek must agree with Scan.
		c := st.Iter(start)
		for i := range got {
			if !c.Valid() {
				t.Fatalf("%s: cursor exhausted at %d", label, i)
			}
			if !bytes.Equal(s.Key(c.TID(), nil), got[i]) {
				t.Fatalf("%s: cursor diverges from scan at %d", label, i)
			}
			if !bytes.Equal(c.Key(), got[i]) {
				t.Fatalf("%s: cursor Key() disagrees with loader at %d", label, i)
			}
			c.Next()
		}
	}

	bounds := st.Boundaries()
	if len(bounds) != 7 {
		t.Fatalf("expected 7 boundaries, got %d", len(bounds))
	}
	for bi, b := range bounds {
		// Exactly on the boundary: first key of the upper shard's range.
		seekAndCompare(b, fmt.Sprintf("bound[%d] exact", bi))
		// Just below: the boundary key's immediate predecessor prefix.
		below := append([]byte(nil), b...)
		for i := len(below) - 1; i >= 0; i-- {
			if below[i] > 0 {
				below[i]--
				break
			}
			below[i] = 0xFF
		}
		seekAndCompare(below, fmt.Sprintf("bound[%d] below", bi))
		// Just above: boundary plus a zero byte, the smallest strictly
		// greater key.
		seekAndCompare(append(append([]byte(nil), b...), 0), fmt.Sprintf("bound[%d] above", bi))
	}
	// Degenerate seeks: nil (global min), past the maximum key.
	seekAndCompare(nil, "nil start")
	seekAndCompare(bytes.Repeat([]byte{0xFF}, 9), "past max")
}

// TestShardedCursorReuse: one cursor repositioned with SeekCursor across
// many starts must behave exactly like a fresh cursor each time.
func TestShardedCursorReuse(t *testing.T) {
	keys := dataset.Generate(dataset.URL, 3000, 17)
	s := &tidstore.Store{}
	for _, k := range keys {
		s.Add(k)
	}
	st, _ := buildPair(keys, s, 4)
	sorted := make([][]byte, len(keys))
	copy(sorted, keys)
	sort.Slice(sorted, func(i, j int) bool { return bytes.Compare(sorted[i], sorted[j]) < 0 })

	var reused ShardedCursor
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 100; trial++ {
		start := sorted[rng.Intn(len(sorted))]
		st.SeekCursor(&reused, start)
		fresh := st.Iter(start)
		for n := 0; n < 10; n++ {
			if reused.Valid() != fresh.Valid() {
				t.Fatalf("trial %d step %d: validity diverges", trial, n)
			}
			if !reused.Valid() {
				break
			}
			if reused.TID() != fresh.TID() || !bytes.Equal(reused.Key(), fresh.Key()) {
				t.Fatalf("trial %d step %d: reused cursor diverges", trial, n)
			}
			reused.Next()
			fresh.Next()
		}
	}
	// A zero-valued cursor seeked past the end must be calmly invalid.
	var empty ShardedCursor
	st.SeekCursor(&empty, bytes.Repeat([]byte{0xFF}, 9))
	if empty.Valid() {
		t.Fatal("cursor past the maximum key claims validity")
	}
}

// TestShardedScanOpensOneShard: a scan pays for the shard it is in, not for
// the shards it will never reach. A TID-only 50-entry scan that stays
// inside shard 1 resolves at most one key (the seek's candidate compare)
// and allocates nothing on 8 shards and on 64, nor does a reused cursor's
// reposition. Both kinds of loader run: a
// tuple store's, which ignores its buffer, and the embedded 8-byte one,
// which writes the key into it.
func TestShardedScanOpensOneShard(t *testing.T) {
	s := &tidstore.Store{}
	urls := dataset.Generate(dataset.URL, 8000, 29)
	for _, k := range urls {
		s.Add(k)
	}
	vals := make([]uint64, 8000)
	rng := rand.New(rand.NewSource(29))
	for i := range vals {
		vals[i] = uint64(rng.Int63())
	}
	for _, src := range []struct {
		name string
		keys [][]byte
		tid  func(i int) TID
		load Loader
	}{
		{"url", urls, func(i int) TID { return TID(i) }, s.Key},
		{"embedded", u64Keys(vals), func(i int) TID { return vals[i] }, tidstore.Uint64Key},
	} {
		sorted := dataset.SortedCopy(src.keys)
		var loads atomic.Int64
		loader := func(tid TID, buf []byte) []byte {
			loads.Add(1)
			return src.load(tid, buf)
		}
		for _, shards := range []int{8, 64} {
			name := fmt.Sprintf("%s/%d shards", src.name, shards)
			st := NewShardedTree(loader, shards, src.keys)
			for i, k := range src.keys {
				st.Insert(k, src.tid(i))
			}
			if st.Shards() != shards || st.ShardLen(1) < 50 {
				t.Fatalf("%s: got %d shards, shard 1 holds %d keys", name, st.Shards(), st.ShardLen(1))
			}
			start := st.Boundaries()[0] // shard 1's lower bound
			at := sort.Search(len(sorted), func(i int) bool { return bytes.Compare(sorted[i], start) >= 0 })
			var got []TID
			scan := func() {
				got = got[:0]
				st.Scan(start, 50, func(tid TID) bool {
					got = append(got, tid)
					return true
				})
			}
			loads.Store(0)
			scan()
			if n := loads.Load(); n > 1 {
				t.Fatalf("%s: a TID-only scan inside one shard called the loader %d times", name, n)
			}
			for i, tid := range got {
				if k := src.load(tid, nil); !bytes.Equal(k, sorted[at+i]) {
					t.Fatalf("%s: entry %d is %q, want %q", name, i, k, sorted[at+i])
				}
			}
			if len(got) != 50 {
				t.Fatalf("%s: scan yields %d entries, want 50", name, len(got))
			}
			// A scan borrows its cursor from a pool, which -race drops at
			// random.
			if allocs := testing.AllocsPerRun(100, scan); allocs > 0 && !raceEnabled {
				t.Fatalf("%s: a 50-entry scan allocates %.0f times", name, allocs)
			}
			var c ShardedCursor
			st.SeekCursor(&c, start)
			if allocs := testing.AllocsPerRun(100, func() { st.SeekCursor(&c, start) }); allocs != 0 {
				t.Fatalf("%s: repositioning a reused cursor allocates %.0f times", name, allocs)
			}
			if !c.Valid() || !bytes.Equal(c.Key(), sorted[at]) {
				t.Fatalf("%s: reused cursor is not on shard 1's first key", name)
			}
		}
	}
}

// TestShardedCursorNextAtRest: Next on a zero-valued cursor and on an
// exhausted one does nothing — no panic, still invalid, and the cursor can
// be seeked again afterwards.
func TestShardedCursorNextAtRest(t *testing.T) {
	keys := dataset.Generate(dataset.Integer, 500, 31)
	s := &tidstore.Store{}
	for _, k := range keys {
		s.Add(k)
	}
	st, _ := buildPair(keys, s, 4)
	var c ShardedCursor
	c.Next()
	if c.Valid() {
		t.Fatal("zero-valued cursor valid after Next")
	}
	n := 0
	for st.SeekCursor(&c, nil); c.Valid(); c.Next() {
		n++
	}
	if n != len(keys) {
		t.Fatalf("full walk visits %d of %d keys", n, len(keys))
	}
	c.Next()
	c.Next()
	if c.Valid() {
		t.Fatal("exhausted cursor valid after Next")
	}
	if st.SeekCursor(&c, nil); !c.Valid() || !bytes.Equal(c.Key(), dataset.SortedCopy(keys)[0]) {
		t.Fatal("exhausted cursor does not seek back to the smallest key")
	}
}

// shardedBatchInputs builds a sharded tree and its probes for the batch
// tests, with either loader: a tuple store over email keys, or the 8-byte
// embedded-key loader over even values, which writes each key into the
// buffer it is handed. The probes mix present keys, near-misses one byte
// or bit off a stored key and absent keys.
var shardedBatchInputs = []struct {
	name  string
	build func(shards int) (*ShardedTree, [][]byte)
}{
	{"tidstore", func(shards int) (*ShardedTree, [][]byte) {
		keys := dataset.Generate(dataset.Email, 2500, 23)
		s := &tidstore.Store{}
		for _, k := range keys {
			s.Add(k)
		}
		st, _ := buildPair(keys, s, shards)
		return st, batchProbes(keys, func(k []byte) []byte {
			nm := append([]byte(nil), k...)
			nm[len(nm)-2] ^= 1 // the byte before the terminator
			return nm
		}, func(i int) []byte { return []byte(fmt.Sprintf("zz-absent-%05d\x00", i)) })
	}},
	{"embedded", func(shards int) (*ShardedTree, [][]byte) {
		rng := rand.New(rand.NewSource(37))
		vals := make([]uint64, 2500)
		for i := range vals {
			vals[i] = uint64(rng.Intn(1<<16))<<20 | uint64(i)<<1
		}
		keys := u64Keys(vals)
		st := NewShardedTree(tidstore.Uint64Key, shards, keys)
		for i, v := range vals {
			st.Insert(keys[i], v)
		}
		return st, batchProbes(keys, func(k []byte) []byte {
			return u64Key(binary.BigEndian.Uint64(k) + 1)
		}, func(i int) []byte { return u64Key(1<<40 | uint64(i)) })
	}},
}

// batchProbes draws 300 probes over keys: a third absent (absent(i) for
// the i-th probe), a sixth near-misses (nearMiss of a stored key), the
// rest stored keys.
func batchProbes(keys [][]byte, nearMiss func([]byte) []byte, absent func(i int) []byte) [][]byte {
	rng := rand.New(rand.NewSource(29))
	probe := make([][]byte, 0, 300)
	for i := 0; i < 300; i++ {
		switch k := keys[rng.Intn(len(keys))]; rng.Intn(6) {
		case 0, 1:
			probe = append(probe, absent(i))
		case 2:
			probe = append(probe, nearMiss(k))
		default:
			probe = append(probe, k)
		}
	}
	return probe
}

// TestShardedLookupBatch: the cross-shard batch kernel must agree with scalar
// lookups for present, near-miss and absent keys alike, with both loaders,
// at batch sizes around the lane count, and the out slice contract (0 for
// misses) must hold.
func TestShardedLookupBatch(t *testing.T) {
	for _, shards := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("s%d", shards), func(t *testing.T) {
			for _, in := range shardedBatchInputs {
				t.Run(in.name, func(t *testing.T) {
					st, probes := in.build(shards)
					for _, size := range []int{31, 32, 33, len(probes)} {
						probe := probes[:size]
						out := make([]TID, len(probe))
						found := st.LookupBatch(probe, out)
						for i, k := range probe {
							wantTID, wantOK := st.Lookup(k)
							if found[i] != wantOK {
								t.Fatalf("size %d probe %d (%q): batch found=%v, scalar=%v", size, i, k, found[i], wantOK)
							}
							if wantOK && out[i] != wantTID {
								t.Fatalf("size %d probe %d: batch TID %d, scalar %d", size, i, out[i], wantTID)
							}
							if !wantOK && out[i] != 0 {
								t.Fatalf("size %d probe %d: miss slot not zeroed (%d)", size, i, out[i])
							}
						}
					}
					// Empty batch must be a no-op.
					if got := st.LookupBatch(nil, nil); len(got) != 0 {
						t.Fatalf("empty batch returned mask of %d", len(got))
					}
				})
			}
		})
	}
}

// TestShardedLookupBatchAllocs pins the sharded batch path to one
// allocation per call, the mask handed to the caller, with both loaders:
// routing, the cross-shard descent and the cold shard's point reads draw
// their scratch from pools.
func TestShardedLookupBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race drops pooled scratch at random")
	}
	for _, in := range shardedBatchInputs {
		t.Run(in.name, func(t *testing.T) {
			st, probe := in.build(8)
			if err := st.EnableColdTier(ColdTierConfig{Dir: t.TempDir()}); err != nil {
				t.Fatal(err)
			}
			if err := st.Demote(3); err != nil {
				t.Fatal(err)
			}
			probe = probe[:32]
			out := make([]TID, len(probe))
			st.LookupBatch(probe, out) // warm the pools and the page cache
			if allocs := testing.AllocsPerRun(100, func() { st.LookupBatch(probe, out) }); allocs != 1 {
				t.Fatalf("ShardedTree.LookupBatch allocates %v per call, want 1", allocs)
			}
		})
	}
}

// TestShardedConcurrentChurn hammers every shard from concurrent writers
// while readers scan across shard boundaries and run cross-shard batches;
// run under -race this is the sharded analogue of the ConcurrentTree churn
// suite. Scans assert the wait-free reader guarantee: observed keys
// strictly ascending through boundary crossings. A batch mixes churned keys
// with stable ones no writer touches: each answer must be a value its key
// held during the call — a churned key's own TID or absent, a stable key's
// own TID. The stable keys sort after every churned key, so a scan crosses
// as many churned keys as it would without them, and batches ride on top of
// the scalar mix: each worker still runs 1 600 upserts and 800 each of
// deletes, lookups and scans, expected.
func TestShardedConcurrentChurn(t *testing.T) {
	const nKeys = 1 << 12
	s := &tidstore.Store{}
	keys := make([][]byte, 2*nKeys) // keys[nKeys:] are the stable ones
	for i := range keys {
		k := make([]byte, 8)
		v := uint64(i) * 0x9E3779B97F4A7C15 >> 1
		if i >= nKeys {
			v |= 1 << 63
		}
		binary.BigEndian.PutUint64(k, v)
		keys[i] = k
		s.Add(k)
	}
	st := NewShardedTree(s.Key, 4, keys[:nKeys])
	for i := nKeys; i < len(keys); i++ {
		st.Insert(keys[i], TID(i))
	}

	const workers = 8
	const opsPer = 4400
	var violations atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) * 131))
			var prev []byte
			batch, bi, out := make([][]byte, 32), make([]int, 32), make([]TID, 32)
			for i := 0; i < opsPer; i++ {
				ki := rng.Intn(nKeys)
				k := keys[ki]
				switch c := rng.Intn(110); {
				case c < 40:
					st.Upsert(k, TID(ki))
				case c < 60:
					st.Delete(k)
				case c < 80:
					if tid, ok := st.Lookup(k); ok && tid != TID(ki) {
						violations.Add(1)
					}
				case c < 100:
					prev = prev[:0]
					n := 0
					st.Scan(k, 50, func(tid TID) bool {
						got := s.Key(tid, nil)
						if n > 0 && bytes.Compare(prev, got) >= 0 {
							violations.Add(1)
							return false
						}
						prev = append(prev[:0], got...)
						n++
						return true
					})
				default:
					for j := range batch {
						bi[j] = rng.Intn(len(keys))
						batch[j] = keys[bi[j]]
					}
					found := st.LookupBatch(batch, out)
					for j, bk := range bi {
						if found[j] && out[j] != TID(bk) || !found[j] && (bk >= nKeys || out[j] != 0) {
							violations.Add(1)
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d reader violations under churn", v)
	}
	if err := st.Verify(); err != nil {
		t.Fatalf("post-churn Verify: %v", err)
	}
	// Quiescent: merged scan count must equal aggregate Len.
	count := 0
	st.Scan(nil, len(keys)+1, func(TID) bool { count++; return true })
	if count != st.Len() {
		t.Fatalf("scan count %d != Len %d", count, st.Len())
	}
}

// TestShardedMidScanDelete: a cursor must stay well-formed (ascending,
// terminating) while a concurrent writer deletes the keys ahead of it —
// including keys in shards the scan has not reached yet.
func TestShardedMidScanDelete(t *testing.T) {
	const nKeys = 4096
	s := &tidstore.Store{}
	keys := make([][]byte, nKeys)
	for i := range keys {
		k := make([]byte, 8)
		binary.BigEndian.PutUint64(k, uint64(i)<<20)
		keys[i] = k
		s.Add(k)
	}
	for round := 0; round < 4; round++ {
		st := NewShardedTree(s.Key, 4, keys)
		for i, k := range keys {
			st.Insert(k, TID(i))
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Delete from the back half downward while the scan runs.
			for i := nKeys - 1; i >= nKeys/4; i-- {
				st.Delete(keys[i])
			}
		}()
		var prev []byte
		n := 0
		ok := true
		st.Scan(nil, nKeys+1, func(tid TID) bool {
			got := s.Key(tid, nil)
			if n > 0 && bytes.Compare(prev, got) >= 0 {
				ok = false
				return false
			}
			prev = append(prev[:0], got...)
			n++
			return true
		})
		wg.Wait()
		if !ok {
			t.Fatalf("round %d: scan order violated during mid-scan deletes", round)
		}
		if n < nKeys/4 {
			t.Fatalf("round %d: scan lost the stable front quarter (%d keys)", round, n)
		}
		if err := st.Verify(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

// TestShardedVerifyDetectsMisroute plants a key directly into the wrong
// shard (bypassing routing) and requires Verify to catch the shard-range
// violation.
func TestShardedVerifyDetectsMisroute(t *testing.T) {
	keys := dataset.Generate(dataset.Integer, 1000, 31)
	s := &tidstore.Store{}
	for _, k := range keys {
		s.Add(k)
	}
	st, _ := buildPair(keys, s, 4)
	if err := st.Verify(); err != nil {
		t.Fatalf("clean tree fails Verify: %v", err)
	}
	// The smallest key belongs to shard 0; plant a fresh copy of the
	// largest key's neighborhood into shard 0 directly.
	big := append(bytes.Repeat([]byte{0xFE}, 8), 0x01)
	s.Add(big)
	if !st.shards[0].Load().delta.Load().Insert(big, TID(len(keys))) {
		t.Fatal("direct shard insert failed")
	}
	err := st.Verify()
	if err == nil {
		t.Fatal("Verify missed a misrouted key")
	}
	t.Logf("misroute detected: %v", err)
}

// TestShardedStatsAggregate: Len/Height/Depths/Memory/OpStats must
// aggregate rather than sample a single shard.
func TestShardedStatsAggregate(t *testing.T) {
	keys := dataset.Generate(dataset.Integer, 6000, 37)
	s := &tidstore.Store{}
	for _, k := range keys {
		s.Add(k)
	}
	st, oracle := buildPair(keys, s, 4)
	if st.Len() != oracle.Len() {
		t.Fatalf("Len %d != %d", st.Len(), oracle.Len())
	}
	d := st.Depths()
	if d.Leaves != len(keys) {
		t.Fatalf("Depths.Leaves %d != %d", d.Leaves, len(keys))
	}
	m := st.Memory()
	if m.Nodes <= 0 || m.GoBytes <= 0 {
		t.Fatalf("Memory not aggregated: %+v", m)
	}
	o := st.OpStats()
	if o.Normal == 0 {
		t.Fatalf("OpStats not aggregated: %+v", o)
	}
	sum := 0
	for i := 0; i < st.Shards(); i++ {
		sum += st.ShardLen(i)
	}
	if sum != st.Len() {
		t.Fatalf("shard lens sum %d != Len %d", sum, st.Len())
	}
	if st.Height() <= 0 {
		t.Fatal("Height not aggregated")
	}
}

// TestShardedNoLockTable: every ShardedTree write, async or not, and
// every load of a snapshot runs a shard trie's exclusive Writer under the
// shard's own lock, so no shard trie allocates the ROWEX lock table.
func TestShardedNoLockTable(t *testing.T) {
	keys := dataset.Generate(dataset.URL, 8000, 53)
	s := &tidstore.Store{}
	for _, k := range keys {
		s.Add(k)
	}
	st, _ := buildPair(keys, s, 4)
	for i, k := range keys[:1000] {
		switch i % 4 {
		case 0:
			st.Delete(k)
		case 1:
			st.Upsert(k, TID(i))
		case 2:
			st.DeleteAsync(k)
		default:
			st.UpsertAsync(k, TID(i))
		}
	}
	var buf bytes.Buffer
	if err := Save(&buf, st); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := LoadShardedTree(&buf, s.Key, false)
	if err != nil {
		t.Fatal(err)
	}
	for name, tr := range map[string]*ShardedTree{"written": st, "loaded": loaded} {
		tries := 0
		tr.eachDelta(func(d *core.ConcurrentTrie) {
			tries++
			if d.HasLockTable() {
				t.Errorf("%s: a shard trie allocated a lock table", name)
			}
		})
		if tries != tr.Shards() {
			t.Fatalf("%s: %d shard tries, want %d", name, tries, tr.Shards())
		}
	}
}

// TestShardedTreeEmbeddedKeys runs a ShardedTree as an integer set, the
// paper's embedded-key optimization: the loader writes the TID's 8
// big-endian bytes, so there is no tuple store. Inserts, point and batched
// lookups, an ordered scan across shard boundaries and deletes.
func TestShardedTreeEmbeddedKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	vals := make([]uint64, 3000)
	for i := range vals {
		vals[i] = rng.Uint64() >> 1
	}
	set := NewShardedTree(tidstore.Uint64Key, 8, u64Keys(vals))
	for _, v := range vals {
		set.Insert(u64Key(v), v)
	}
	inserted := make(map[uint64]bool, len(vals))
	for _, v := range vals {
		inserted[v] = true
	}
	if set.Len() != len(inserted) {
		t.Fatalf("Len %d, want %d", set.Len(), len(inserted))
	}
	if err := set.Verify(); err != nil {
		t.Fatal(err)
	}
	contains := func(v uint64) bool {
		tid, ok := set.Lookup(u64Key(v))
		if ok && tid != v {
			t.Fatalf("value %d stored under TID %d", v, tid)
		}
		return ok
	}
	for _, v := range vals[:200] {
		if !contains(v) {
			t.Fatalf("missing %d", v)
		}
	}
	if contains(1) != inserted[1] {
		t.Fatal("absent-value membership wrong")
	}
	// Batched membership vs scalar.
	probe := u64Keys(append(append([]uint64(nil), vals[:100]...), 1, 2, 3))
	mask := set.LookupBatch(probe, make([]TID, len(probe)))
	for i, k := range probe {
		if mask[i] != contains(binary.BigEndian.Uint64(k)) {
			t.Fatalf("batch membership of %x diverges", k)
		}
	}
	// The scan must be globally sorted across shards.
	var prev uint64
	n := 0
	set.Scan(nil, math.MaxInt, func(v uint64) bool {
		if n > 0 && v <= prev {
			t.Fatalf("scan not sorted at %d: %d after %d", n, v, prev)
		}
		prev = v
		n++
		return true
	})
	if n != set.Len() {
		t.Fatalf("scan visited %d of %d", n, set.Len())
	}
	for _, v := range vals[:500] {
		set.Delete(u64Key(v))
	}
	for _, v := range vals[:500] {
		if contains(v) {
			t.Fatalf("deleted %d still present", v)
		}
	}
	if err := set.Verify(); err != nil {
		t.Fatal(err)
	}
	if set.Shards() < 2 || set.Height() < 0 || set.Memory().Nodes <= 0 {
		t.Fatal("introspection broken")
	}
}

// TestShardedTreeDegenerate covers the shards=1 and empty-tree edges,
// where the whole layer must collapse gracefully to ConcurrentTree
// behavior.
func TestShardedTreeDegenerate(t *testing.T) {
	s := &tidstore.Store{}
	st := NewShardedTree(s.Key, 1, nil)
	if st.Shards() != 1 || len(st.Boundaries()) != 0 {
		t.Fatalf("1-shard tree has %d shards, %d boundaries", st.Shards(), len(st.Boundaries()))
	}
	if st.Len() != 0 || st.Height() != 0 {
		t.Fatal("empty tree not empty")
	}
	if err := st.Verify(); err != nil {
		t.Fatal(err)
	}
	if st.Scan(nil, 10, func(TID) bool { return true }) != 0 {
		t.Fatal("empty scan visited entries")
	}
	c := st.Iter(nil)
	if c.Valid() {
		t.Fatal("empty cursor valid")
	}
	k := []byte("solo\x00")
	st.Insert(k, s.Add(k))
	if st.Len() != 1 {
		t.Fatal("insert into 1-shard tree failed")
	}
	if _, ok := st.Lookup(k); !ok {
		t.Fatal("lookup in 1-shard tree failed")
	}
}

// TestStoreRowsCoverEveryField is the drift guard of storeRows: setting
// any one field of a STATS snapshot, ColdTierStats' included, moves
// exactly one row, so a field added without its row fails here instead of
// staying out of STATS. Row names must be distinct lower-case identifiers,
// which the STATS encoder writes without escaping.
func TestStoreRowsCoverEveryField(t *testing.T) {
	rows := func(s *storeStats) wire.Stats { return wire.AppendRows(nil, storeRows[:], s) }
	zero := rows(&storeStats{})
	seen := map[string]bool{}
	for _, r := range zero {
		if seen[r.Name] || strings.Trim(r.Name, "abcdefghijklmnopqrstuvwxyz_") != "" {
			t.Errorf("row name %q is repeated or not a lower-case identifier", r.Name)
		}
		seen[r.Name] = true
	}
	var walk func(index []int, typ reflect.Type, path string)
	walk = func(index []int, typ reflect.Type, path string) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			at := append(append([]int(nil), index...), i)
			if f.Type.Kind() == reflect.Struct {
				walk(at, f.Type, path+f.Name+".")
				continue
			}
			var s storeStats
			v := reflect.ValueOf(&s).Elem().FieldByIndex(at)
			v = reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
			switch v.Kind() {
			case reflect.Bool:
				v.SetBool(true)
			case reflect.Int, reflect.Int64:
				v.SetInt(1)
			case reflect.Uint64:
				v.SetUint(1)
			default:
				t.Fatalf("storeStats.%s%s is a %s, not a counter, gauge or flag", path, f.Name, v.Kind())
			}
			moved := 0
			for j, r := range rows(&s) {
				if r.Value != zero[j].Value {
					moved++
				}
			}
			if moved != 1 {
				t.Errorf("storeStats.%s%s moves %d STATS rows, want 1", path, f.Name, moved)
			}
		}
	}
	walk(nil, reflect.TypeOf(storeStats{}), "")
}
