package hot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/hotindex/hot/internal/dataset"
	"github.com/hotindex/hot/internal/tidstore"
)

// TestShardedScanMatchesModel runs ShardedTree.Scan and Follower.Scan over
// eight shards, three of them cold with deltas (two cut raw, whose pages a
// scan steps, and one packed, whose pages it reads in runs), against a
// sorted model of the keys after inserts, upserts and deletes in every
// shard. Scans start at nil, at stored and absent keys and just below each
// shard boundary, so they cross leaf nodes, hot and cold shards and shard
// boundaries; they take a random max (math.MaxInt among them, the
// unbounded scan) and stop early at a random entry. Follower.Scan runs its
// keyed loop over the same tree, handed to it as the follower's with a
// ready prefix of all eight shards and of six.
func TestShardedScanMatchesModel(t *testing.T) {
	all := dataset.Generate(dataset.URL, 9000, 43)
	keys, extra := all[:6000], all[6000:]
	store := &tidstore.Store{}
	for _, k := range keys {
		store.Add(k)
	}
	st, _ := buildPair(keys, store, 8)
	if err := st.EnableColdTier(ColdTierConfig{Dir: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	for _, s := range []int{1, 2, 5} {
		if s == 5 {
			st.SetSnapshotCodec(SnapshotCodecPacked)
		}
		if err := st.Demote(s); err != nil {
			t.Fatal(err)
		}
	}
	model := make(map[string]TID, len(all))
	for i, k := range keys {
		model[string(k)] = TID(i)
	}
	rng := rand.New(rand.NewSource(43))
	for _, k := range extra[:2000] {
		tid := store.Add(k)
		if !st.Insert(k, tid) {
			t.Fatalf("insert of %q rejected", k)
		}
		model[string(k)] = tid
	}
	for _, i := range rng.Perm(len(keys))[:1200] {
		k := keys[i]
		if i%3 == 0 {
			tid := store.Add(k)
			st.Upsert(k, tid)
			model[string(k)] = tid
			continue
		}
		if !st.Delete(k) {
			t.Fatalf("delete of %q missed", k)
		}
		delete(model, string(k))
	}
	if cs := st.ColdStats(); cs.ColdShards != 3 || cs.Promotions != 0 || cs.DeltaKeys == 0 {
		t.Fatalf("ColdStats after the writes = %+v, want 3 cold shards with deltas", cs)
	}
	sorted := make([][]byte, 0, len(model))
	for k := range model {
		sorted = append(sorted, []byte(k))
	}
	sort.Slice(sorted, func(i, j int) bool { return bytes.Compare(sorted[i], sorted[j]) < 0 })

	starts := [][]byte{nil}
	for i := 0; i < len(sorted); i += 97 {
		starts = append(starts, sorted[i])
	}
	for _, k := range extra[2000:2100] {
		starts = append(starts, k) // absent
	}
	for _, b := range st.Boundaries() {
		at := sort.Search(len(sorted), func(i int) bool { return bytes.Compare(sorted[i], b) >= 0 })
		for _, d := range []int{1, 3, 20} {
			starts = append(starts, sorted[max(at-d, 0)])
		}
	}
	fol := NewFollower(store.Key, nil)
	fol.tree.Store(st)
	for _, start := range starts {
		lb := sort.Search(len(sorted), func(i int) bool { return bytes.Compare(sorted[i], start) >= 0 })
		max := []int{1, 2, 17, 50, 333, len(sorted) + 1, math.MaxInt}[rng.Intn(7)]
		stop := rng.Intn(min(max, len(sorted)+1) + 1) // fn refuses entry stop; ≥ len(want): never
		want := sorted[lb:][:min(len(sorted)-lb, max)]
		if stop < len(want) {
			want = want[:stop+1]
		}
		name := fmt.Sprintf("scan from %q, max %d, stop at %d", start, max, stop)

		var got []TID
		n := st.Scan(start, max, func(tid TID) bool {
			got = append(got, tid)
			return len(got)-1 != stop
		})
		if n != len(want) || len(got) != len(want) {
			t.Fatalf("ShardedTree %s: n=%d, %d entries, want %d", name, n, len(got), len(want))
		}
		for i, k := range want {
			if got[i] != model[string(k)] {
				t.Fatalf("ShardedTree %s: entry %d is %d, want %q's %d", name, i, got[i], k, model[string(k)])
			}
		}

		for _, ready := range []int{8, 6} {
			fol.ready.Store(int32(ready))
			fwant := want
			for i, k := range want {
				if st.Shard(k) >= ready {
					fwant = want[:i]
					break
				}
			}
			var gotKeys [][]byte
			got = got[:0]
			n, err := fol.Scan(start, max, func(k []byte, tid TID) bool {
				gotKeys = append(gotKeys, slices.Clone(k))
				got = append(got, tid)
				return len(got)-1 != stop
			})
			if st.Shard(start) >= ready {
				if !errors.Is(err, ErrNotReady) {
					t.Fatalf("Follower (ready %d) %s: err = %v, want ErrNotReady", ready, name, err)
				}
				continue
			}
			if err != nil || n != len(fwant) || len(got) != len(fwant) {
				t.Fatalf("Follower (ready %d) %s: (%d, %v), %d entries, want %d", ready, name, n, err, len(got), len(fwant))
			}
			for i, k := range fwant {
				if !bytes.Equal(gotKeys[i], k) || got[i] != model[string(k)] {
					t.Fatalf("Follower (ready %d) %s: entry %d is (%q, %d), want (%q, %d)", ready, name, i, gotKeys[i], got[i], k, model[string(k)])
				}
			}
		}
	}
}

// TestScanAllocs pins a 50-entry TID-only scan at 0 allocations on Tree,
// ConcurrentTree and ShardedTree, over url keys in a tuple store and
// integer keys embedded in their TIDs, whose loader writes the seek's key
// into its buffer. The sharded tree is also scanned with all eight shards
// demoted to packed sections whose pages are resident, without deltas and
// with delta inserts, upserts and deletes: url pages are read in runs and
// embedded-key pages stepped, and the delta's tombstones resolve their
// section keys. Under -race sync.Pool drops a share of its Puts, so the
// counts are only pinned outside it.
func TestScanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under -race")
	}
	for _, src := range embeddedSources(t, 20000) {
		tr, ct := New(src.load), NewConcurrent(src.load)
		st := NewShardedTree(src.load, 8, src.keys)
		for i, k := range src.keys {
			tr.Insert(k, src.tids[i])
			ct.Insert(k, src.tids[i])
			st.Insert(k, src.tids[i])
		}
		cold, delta := coldScanTree(t, src, false), coldScanTree(t, src, true)
		for _, c := range []struct {
			name string
			scan func([]byte, int, func(TID) bool) int
		}{{"Tree", tr.Scan}, {"ConcurrentTree", ct.Scan}, {"ShardedTree", st.Scan},
			{"ShardedTree/cold", cold.Scan}, {"ShardedTree/cold-delta", delta.Scan}} {
			i, sum := 0, TID(0)
			fn := func(tid TID) bool { sum += tid; return true } // made once: a closure passed through a func value escapes
			allocs := testing.AllocsPerRun(500, func() {
				i += 7919
				if n := c.scan(src.keys[i%len(src.keys)], 50, fn); n == 0 {
					t.Fatalf("%s/%s: scan from a stored key yields nothing", src.name, c.name)
				}
			})
			if allocs != 0 {
				t.Errorf("%s/%s.Scan allocates %v per 50-entry call, want 0", src.name, c.name, allocs)
			}
		}
	}
}

// coldScanTree returns src's keys but its last 100 in an eight-shard tree
// whose shards are all demoted to packed sections, every page faulted into
// a cache that holds them all. With deltas, the last 100 keys go to the
// shards' deltas, and 100 section keys are upserted (a tie) and 100
// deleted (a tombstone).
func coldScanTree(t *testing.T, src keySource, deltas bool) *ShardedTree {
	t.Helper()
	n := len(src.keys) - 100
	st := NewShardedTree(src.load, 8, src.keys)
	st.SetSnapshotCodec(SnapshotCodecPacked)
	for i, k := range src.keys[:n] {
		st.Insert(k, src.tids[i])
	}
	if err := st.EnableColdTier(ColdTierConfig{Dir: t.TempDir(), CacheBytes: 1 << 30}); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < st.Shards(); s++ {
		if err := st.Demote(s); err != nil {
			t.Fatal(err)
		}
	}
	if deltas {
		for j := 0; j < 100; j++ {
			st.Insert(src.keys[n+j], src.tids[n+j])
			st.Upsert(src.keys[j*97], src.tids[j*97])
			st.Delete(src.keys[j*97+50])
		}
	}
	for s := 0; s < st.Shards(); s++ {
		if !st.IsCold(s) {
			t.Fatalf("%s: shard %d is not cold", src.name, s)
		}
	}
	st.Scan(nil, math.MaxInt, func(TID) bool { return true })
	return st
}

// TestEmbeddedLookupAllocs pins point lookups over integer keys embedded
// in their TIDs at 0 allocations on ConcurrentTree and ShardedTree: the
// loader writes the candidate's key into a buffer the lookup owns.
func TestEmbeddedLookupAllocs(t *testing.T) {
	src := embeddedSources(t, 20000)[1]
	ct := NewConcurrent(src.load)
	st := NewShardedTree(src.load, 8, src.keys)
	for i, k := range src.keys[:10000] {
		ct.Insert(k, src.tids[i])
		st.Insert(k, src.tids[i])
	}
	for _, c := range []struct {
		name   string
		lookup func([]byte) (TID, bool)
	}{{"ConcurrentTree", ct.Lookup}, {"ShardedTree", st.Lookup}} {
		i := 0
		allocs := testing.AllocsPerRun(1000, func() {
			i++
			if tid, ok := c.lookup(src.keys[i%10000]); !ok || tid != src.tids[i%10000] {
				t.Fatalf("%s: stored key %d = (%d, %v)", c.name, i%10000, tid, ok)
			}
			if _, ok := c.lookup(src.keys[10000+i%10000]); ok {
				t.Fatalf("%s: absent key %d found", c.name, 10000+i%10000)
			}
		})
		if allocs != 0 {
			t.Errorf("%s.Lookup allocates %v per two calls, want 0", c.name, allocs)
		}
	}
}

// keySource is a key set with its TIDs and the loader that resolves them.
type keySource struct {
	name string
	keys [][]byte
	tids []TID
	load Loader
}

// embeddedSources returns n url keys in a tuple store and n integer keys
// embedded in their TIDs (tidstore.Uint64Key).
func embeddedSources(t *testing.T, n int) []keySource {
	t.Helper()
	s := &tidstore.Store{}
	urls := dataset.Generate(dataset.URL, n, 61)
	url := keySource{name: "url", keys: urls, tids: make([]TID, n), load: s.Key}
	for i, k := range urls {
		url.tids[i] = s.Add(k)
	}
	ints := dataset.Generate(dataset.Integer, n, 61)
	embedded := keySource{name: "embedded", keys: ints, tids: make([]TID, n), load: tidstore.Uint64Key}
	for i, k := range ints {
		embedded.tids[i] = TID(binary.BigEndian.Uint64(k))
	}
	return []keySource{url, embedded}
}
