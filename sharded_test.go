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
// and allocates the same small amount on 8 shards and on 64.
func TestShardedScanOpensOneShard(t *testing.T) {
	keys := dataset.Generate(dataset.URL, 8000, 29)
	s := &tidstore.Store{}
	for _, k := range keys {
		s.Add(k)
	}
	sorted := dataset.SortedCopy(keys)
	var loads atomic.Int64
	loader := func(tid TID, buf []byte) []byte {
		loads.Add(1)
		return s.Key(tid, buf)
	}
	for _, shards := range []int{8, 64} {
		st := NewShardedTree(loader, shards, keys)
		for i, k := range keys {
			st.Insert(k, TID(i))
		}
		if st.Shards() != shards || st.ShardLen(1) < 50 {
			t.Fatalf("%d shards requested: got %d, shard 1 holds %d keys", shards, st.Shards(), st.ShardLen(1))
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
			t.Fatalf("%d shards: a TID-only scan inside one shard called the loader %d times", shards, n)
		}
		for i, tid := range got {
			if !bytes.Equal(s.Key(tid, nil), sorted[at+i]) {
				t.Fatalf("%d shards: entry %d is %q, want %q", shards, i, s.Key(tid, nil), sorted[at+i])
			}
		}
		if len(got) != 50 {
			t.Fatalf("%d shards: scan yields %d entries, want 50", shards, len(got))
		}
		if allocs := testing.AllocsPerRun(100, scan); allocs > 4 {
			t.Fatalf("%d shards: a 50-entry scan allocates %.0f times", shards, allocs)
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

// TestShardedLookupBatch: the cross-shard batch kernel must agree with scalar
// lookups for present and absent keys alike, and the out slice contract
// (0 for misses) must hold.
func TestShardedLookupBatch(t *testing.T) {
	for _, shards := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("s%d", shards), func(t *testing.T) {
			keys := dataset.Generate(dataset.Email, 2500, 23)
			s := &tidstore.Store{}
			for _, k := range keys {
				s.Add(k)
			}
			st, _ := buildPair(keys, s, shards)

			rng := rand.New(rand.NewSource(29))
			probe := make([][]byte, 0, 300)
			for i := 0; i < 300; i++ {
				if rng.Intn(3) == 0 {
					probe = append(probe, []byte(fmt.Sprintf("zz-absent-%05d\x00", i)))
				} else {
					probe = append(probe, keys[rng.Intn(len(keys))])
				}
			}
			out := make([]TID, len(probe))
			found := st.LookupBatch(probe, out)
			for i, k := range probe {
				wantTID, wantOK := st.Lookup(k)
				if found[i] != wantOK {
					t.Fatalf("probe %d (%q): batch found=%v, scalar=%v", i, k, found[i], wantOK)
				}
				if wantOK && out[i] != wantTID {
					t.Fatalf("probe %d: batch TID %d, scalar %d", i, out[i], wantTID)
				}
				if !wantOK && out[i] != 0 {
					t.Fatalf("probe %d: miss slot not zeroed (%d)", i, out[i])
				}
			}
			// Empty batch must be a no-op.
			if got := st.LookupBatch(nil, out); len(got) != 0 {
				t.Fatalf("empty batch returned mask of %d", len(got))
			}
		})
	}
}

// TestShardedLookupBatchAllocs pins the sharded batch paths to one
// allocation per call, the mask handed to the caller: routing, the
// cross-shard descent and the cold shard's point reads draw their scratch
// from pools.
func TestShardedLookupBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race drops pooled scratch at random")
	}
	keys := dataset.Generate(dataset.URL, 4000, 41)
	s := &tidstore.Store{}
	for _, k := range keys {
		s.Add(k)
	}
	st, _ := buildPair(keys, s, 8)
	if err := st.EnableColdTier(ColdTierConfig{Dir: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	if err := st.Demote(3); err != nil {
		t.Fatal(err)
	}
	probe := append(keys[:31:31], []byte("zz-absent\x00"))
	out := make([]TID, len(probe))
	st.LookupBatch(probe, out) // warm the pools and the page cache
	if allocs := testing.AllocsPerRun(100, func() { st.LookupBatch(probe, out) }); allocs != 1 {
		t.Fatalf("ShardedTree.LookupBatch allocates %v per call, want 1", allocs)
	}

	vs := make([]uint64, 4000)
	for i := range vs {
		vs[i] = uint64(i) * 0x9E3779B97F4A7C15 >> 1
	}
	set := NewShardedUint64Set(8, vs)
	for _, v := range vs {
		set.Insert(v)
	}
	batch := vs[100:132]
	set.LookupBatch(batch)
	if allocs := testing.AllocsPerRun(100, func() { set.LookupBatch(batch) }); allocs != 1 {
		t.Fatalf("ShardedUint64Set.LookupBatch allocates %v per call, want 1", allocs)
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
	freed, pending := st.ReclaimStats()
	_ = freed
	if pending < 0 {
		t.Fatalf("negative pending reclaim %d", pending)
	}
}

// TestShardedUint64Set exercises the integer-set wrapper end to end:
// inserts, membership, batched membership, ordered ascent across shard
// boundaries, deletes.
func TestShardedUint64Set(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	vals := make([]uint64, 3000)
	for i := range vals {
		vals[i] = rng.Uint64() >> 1
	}
	sample := append([]uint64(nil), vals...)
	set := NewShardedUint64Set(8, sample)
	for _, v := range vals {
		set.Insert(v)
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
	for _, v := range vals[:200] {
		if !set.Contains(v) {
			t.Fatalf("missing %d", v)
		}
	}
	if set.Contains(1) != inserted[1] {
		t.Fatal("absent-value membership wrong")
	}
	// Batched membership vs scalar.
	probe := append(append([]uint64(nil), vals[:100]...), 1, 2, 3)
	mask := set.LookupBatch(probe)
	for i, v := range probe {
		if mask[i] != set.Contains(v) {
			t.Fatalf("batch membership of %d diverges", v)
		}
	}
	// Ascend must be globally sorted across shards.
	var prev uint64
	n := 0
	set.Ascend(0, -1, func(v uint64) bool {
		if n > 0 && v <= prev {
			t.Fatalf("Ascend not sorted at %d: %d after %d", n, v, prev)
		}
		prev = v
		n++
		return true
	})
	if n != set.Len() {
		t.Fatalf("Ascend visited %d of %d", n, set.Len())
	}
	// Deletes.
	for _, v := range vals[:500] {
		set.Delete(v)
	}
	for _, v := range vals[:500] {
		if set.Contains(v) {
			t.Fatalf("deleted %d still present", v)
		}
	}
	if err := set.Verify(); err != nil {
		t.Fatal(err)
	}
	if set.Shards() < 2 || set.Height() < 0 || set.Memory().Nodes <= 0 {
		t.Fatal("set introspection broken")
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

// TestShardedUint64SetAscendUnbounded: Ascend(from, -1, fn) has no bound —
// not even the cardinality read before the walk. 1 000 values are present
// and another goroutine inserts 1 000 more above the cursor while the walk
// runs; how many of those a wait-free cursor meets is the trie's business,
// so the reference is the tree's own Scan with no bound over the same
// history: Ascend must visit exactly as many, which is more than it began
// with.
func TestShardedUint64SetAscendUnbounded(t *testing.T) {
	const n = 1000
	sample := make([]uint64, n)
	for i := range sample {
		sample[i] = uint64(i)
	}
	walk := func(scan func(set *ShardedUint64Set, fn func(uint64) bool) int) int {
		set := NewShardedUint64Set(4, sample)
		for _, v := range sample {
			set.Insert(v)
		}
		var prev uint64
		return scan(set, func(v uint64) bool {
			if v == 0 {
				done := make(chan struct{})
				go func() {
					defer close(done)
					for w := uint64(n); w < 2*n; w++ {
						set.Insert(w)
					}
				}()
				<-done
			} else if v <= prev {
				t.Errorf("walk not sorted: %d after %d", v, prev)
			}
			prev = v
			return true
		})
	}
	want := walk(func(set *ShardedUint64Set, fn func(uint64) bool) int {
		return set.t.Scan(make([]byte, 8), math.MaxInt, fn)
	})
	got := walk(func(set *ShardedUint64Set, fn func(uint64) bool) int {
		return set.Ascend(0, -1, fn)
	})
	if want <= n {
		t.Fatalf("unbounded Scan met %d values, none of the concurrent inserts; the test is vacuous", want)
	}
	if got != want {
		t.Fatalf("Ascend(0, -1) visited %d values, an unbounded Scan of the same history %d", got, want)
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
