package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/hotindex/hot/internal/dataset"
	"github.com/hotindex/hot/internal/tidstore"
)

func TestEmptyTrie(t *testing.T) {
	tr, _ := newTestTrie()
	if _, ok := tr.Lookup([]byte("x")); ok {
		t.Error("lookup on empty trie succeeded")
	}
	if tr.Delete([]byte("x")) {
		t.Error("delete on empty trie succeeded")
	}
	if tr.Len() != 0 || tr.Height() != 0 {
		t.Error("empty trie has size or height")
	}
	if n := tr.Scan(nil, 10, func(TID) bool { return true }); n != 0 {
		t.Error("scan on empty trie returned entries")
	}
}

func TestSingleKey(t *testing.T) {
	tr, s := newTestTrie()
	tid := s.AddString("solo")
	if !tr.Insert([]byte("solo"), tid) {
		t.Fatal("insert failed")
	}
	if got, ok := tr.Lookup([]byte("solo")); !ok || got != tid {
		t.Fatalf("lookup = (%d,%v)", got, ok)
	}
	if _, ok := tr.Lookup([]byte("sol")); ok {
		t.Error("prefix lookup matched")
	}
	if _, ok := tr.Lookup([]byte("soloX")); ok {
		t.Error("extension lookup matched")
	}
	if tr.Insert([]byte("solo"), s.AddString("solo")) {
		t.Error("duplicate insert succeeded")
	}
	if !tr.Delete([]byte("solo")) {
		t.Error("delete failed")
	}
	if tr.Len() != 0 {
		t.Error("size after delete")
	}
}

func TestTwoKeys(t *testing.T) {
	tr, s := newTestTrie()
	insertAll(t, tr, s, []string{"beta", "alpha"})
	if tr.Height() != 1 {
		t.Errorf("height = %d, want 1", tr.Height())
	}
	checkInvariants(t, tr, true)
	var got []string
	tr.Scan(nil, 10, func(tid TID) bool {
		got = append(got, string(s.Key(tid, nil)))
		return true
	})
	if fmt.Sprint(got) != fmt.Sprint([]string{"alpha", "beta"}) {
		t.Errorf("scan = %v", got)
	}
}

func TestNormalInsertFillsNode(t *testing.T) {
	// 32 keys differing in the low bits all fit into a single node.
	tr, s := newTestTrie()
	for i := 0; i < MaxFanout; i++ {
		k := []byte{byte(i)}
		if !tr.Insert(k, s.Add(k)) {
			t.Fatalf("insert %d failed", i)
		}
		checkInvariants(t, tr, true)
	}
	if tr.Height() != 1 {
		t.Errorf("height = %d, want 1 (single full node)", tr.Height())
	}
	st := tr.Memory()
	if st.Nodes != 1 || st.FanoutSum != MaxFanout {
		t.Errorf("memory stats = %+v", st)
	}
}

func TestOverflowCreatesNewRoot(t *testing.T) {
	tr, s := newTestTrie()
	for i := 0; i <= MaxFanout; i++ { // 33 keys force a split
		k := []byte{byte(i)}
		tr.Insert(k, s.Add(k))
	}
	if tr.Height() != 2 {
		t.Errorf("height = %d, want 2 after overflow", tr.Height())
	}
	checkInvariants(t, tr, true)
}

func TestSequentialIntegers(t *testing.T) {
	tr, s := newTestTrie()
	const n = 5000
	buf := make([]byte, 8)
	for i := 0; i < n; i++ {
		binary.BigEndian.PutUint64(buf, uint64(i))
		if !tr.Insert(buf, s.Add(buf)) {
			t.Fatalf("insert %d failed", i)
		}
	}
	if tr.Len() != n {
		t.Fatalf("len = %d", tr.Len())
	}
	checkInvariants(t, tr, true)
	for i := 0; i < n; i++ {
		binary.BigEndian.PutUint64(buf, uint64(i))
		if tid, ok := tr.Lookup(buf); !ok || tid != TID(i) {
			t.Fatalf("lookup %d = (%d,%v)", i, tid, ok)
		}
	}
	// Dense keys: fanout should be near the maximum (paper Section 3).
	if f := tr.Memory().AvgFanout(); f < 20 {
		t.Errorf("avg fanout %.1f too low for dense keys", f)
	}
}

func TestRandomIntegers(t *testing.T) {
	tr, s := newTestTrie()
	rng := rand.New(rand.NewSource(11))
	const n = 20000
	keys := make(map[uint64]TID, n)
	buf := make([]byte, 8)
	for len(keys) < n {
		v := rng.Uint64() >> 1
		if _, dup := keys[v]; dup {
			continue
		}
		binary.BigEndian.PutUint64(buf, v)
		tid := s.Add(buf)
		if !tr.Insert(buf, tid) {
			t.Fatalf("insert %x failed", v)
		}
		keys[v] = tid
	}
	checkInvariants(t, tr, true)
	for v, tid := range keys {
		binary.BigEndian.PutUint64(buf, v)
		if got, ok := tr.Lookup(buf); !ok || got != tid {
			t.Fatalf("lookup %x = (%d,%v), want %d", v, got, ok, tid)
		}
	}
	// Absent keys.
	for i := 0; i < 1000; i++ {
		v := rng.Uint64() >> 1
		if _, present := keys[v]; present {
			continue
		}
		binary.BigEndian.PutUint64(buf, v)
		if _, ok := tr.Lookup(buf); ok {
			t.Fatalf("phantom lookup %x", v)
		}
	}
}

func TestSharedPrefixStrings(t *testing.T) {
	tr, s := newTestTrie()
	var keys []string
	for i := 0; i < 2000; i++ {
		keys = append(keys, fmt.Sprintf("http://www.example.com/articles/%04d/comments\x00", i))
	}
	insertAll(t, tr, s, keys)
	checkInvariants(t, tr, true)
	for i, k := range keys {
		if tid, ok := tr.Lookup([]byte(k)); !ok || tid != TID(i) {
			t.Fatalf("lookup %q failed", k)
		}
	}
}

func TestSparseGenomeKeys(t *testing.T) {
	// The paper's extreme sparse case: 4-letter alphabet strings.
	tr, s := newTestTrie()
	rng := rand.New(rand.NewSource(5))
	alphabet := []byte("ACGT")
	seen := map[string]bool{}
	var keys []string
	for len(keys) < 3000 {
		k := make([]byte, 12)
		for j := range k {
			k[j] = alphabet[rng.Intn(4)]
		}
		if seen[string(k)] {
			continue
		}
		seen[string(k)] = true
		keys = append(keys, string(k))
	}
	insertAll(t, tr, s, keys)
	checkInvariants(t, tr, true)
	// Sparse keys force multi-mask layouts on some nodes.
	st := tr.Memory()
	multi := 0
	for l := LayoutMulti8x8; l < numLayouts; l++ {
		multi += st.Layouts[l]
	}
	if multi == 0 {
		t.Log("note: no multi-mask nodes for genome keys (all within 8-byte windows)")
	}
}

func TestUpsert(t *testing.T) {
	tr, s := newTestTrie()
	tid1 := s.AddString("k")
	if old, replaced := tr.Upsert([]byte("k"), tid1); replaced {
		t.Fatalf("fresh upsert reported replacement of %d", old)
	}
	tid2 := s.AddString("k")
	if old, replaced := tr.Upsert([]byte("k"), tid2); !replaced || old != tid1 {
		t.Fatalf("upsert = (%d,%v), want (%d,true)", old, replaced, tid1)
	}
	if got, _ := tr.Lookup([]byte("k")); got != tid2 {
		t.Fatalf("lookup after upsert = %d", got)
	}
	if tr.Len() != 1 {
		t.Fatalf("len = %d", tr.Len())
	}

	// Upsert inside a multi-entry node.
	insertAll(t, tr, s, []string{"a", "b", "c"})
	tid3 := s.AddString("b")
	if old, replaced := tr.Upsert([]byte("b"), tid3); !replaced || s.Key(old, nil)[0] != 'b' {
		t.Fatalf("upsert b = (%d,%v)", old, replaced)
	}
	if got, _ := tr.Lookup([]byte("b")); got != tid3 {
		t.Fatal("b not updated")
	}
	checkInvariants(t, tr, true)
}

func TestDeleteRandom(t *testing.T) {
	tr, s := newTestTrie()
	rng := rand.New(rand.NewSource(21))
	oracle := map[string]TID{}
	var inserted []string
	for step := 0; step < 30000; step++ {
		if rng.Intn(3) != 0 || len(oracle) == 0 {
			v := rng.Uint64() >> 1
			k := make([]byte, 8)
			binary.BigEndian.PutUint64(k, v)
			if _, dup := oracle[string(k)]; dup {
				continue
			}
			tid := s.Add(k)
			if !tr.Insert(k, tid) {
				t.Fatalf("insert failed at step %d", step)
			}
			oracle[string(k)] = tid
			inserted = append(inserted, string(k))
		} else {
			// Delete a random previously inserted key (may already be gone).
			k := inserted[rng.Intn(len(inserted))]
			_, present := oracle[k]
			if got := tr.Delete([]byte(k)); got != present {
				t.Fatalf("delete %x = %v, oracle %v", k, got, present)
			}
			delete(oracle, k)
		}
		if tr.Len() != len(oracle) {
			t.Fatalf("len %d != oracle %d at step %d", tr.Len(), len(oracle), step)
		}
	}
	checkInvariants(t, tr, false)
	for k, tid := range oracle {
		if got, ok := tr.Lookup([]byte(k)); !ok || got != tid {
			t.Fatalf("lookup %x = (%d,%v), want %d", k, got, ok, tid)
		}
	}
}

func TestDeleteAll(t *testing.T) {
	tr, s := newTestTrie()
	var keys []string
	for i := 0; i < 1000; i++ {
		keys = append(keys, fmt.Sprintf("key-%05d", i))
	}
	insertAll(t, tr, s, keys)
	rng := rand.New(rand.NewSource(3))
	perm := rng.Perm(len(keys))
	for n, i := range perm {
		if !tr.Delete([]byte(keys[i])) {
			t.Fatalf("delete %q failed", keys[i])
		}
		if tr.Len() != len(keys)-n-1 {
			t.Fatalf("len = %d", tr.Len())
		}
	}
	if _, ok := tr.Lookup([]byte(keys[0])); ok {
		t.Error("lookup after delete-all succeeded")
	}
}

func TestScanComprehensive(t *testing.T) {
	tr, s := newTestTrie()
	rng := rand.New(rand.NewSource(31))
	seen := map[string]bool{}
	var keys []string
	for len(keys) < 3000 {
		k := make([]byte, 8)
		binary.BigEndian.PutUint64(k, rng.Uint64()>>1)
		if seen[string(k)] {
			continue
		}
		seen[string(k)] = true
		keys = append(keys, string(k))
	}
	insertAll(t, tr, s, keys)
	sorted := append([]string(nil), keys...)
	sort.Strings(sorted)

	collect := func(start []byte, max int) []string {
		var got []string
		tr.Scan(start, max, func(tid TID) bool {
			got = append(got, string(s.Key(tid, nil)))
			return true
		})
		return got
	}

	// Full scan in order.
	got := collect(nil, len(keys)+10)
	if len(got) != len(sorted) {
		t.Fatalf("full scan returned %d, want %d", len(got), len(sorted))
	}
	for i := range got {
		if got[i] != sorted[i] {
			t.Fatalf("scan[%d] = %x, want %x", i, got[i], sorted[i])
		}
	}

	// Scans from present and absent start keys, various lengths.
	for trial := 0; trial < 300; trial++ {
		var start []byte
		if trial%2 == 0 {
			start = []byte(sorted[rng.Intn(len(sorted))])
		} else {
			start = make([]byte, 8)
			binary.BigEndian.PutUint64(start, rng.Uint64()>>1)
		}
		max := 1 + rng.Intn(200)
		got := collect(start, max)
		lb := sort.SearchStrings(sorted, string(start))
		want := sorted[lb:]
		if len(want) > max {
			want = want[:max]
		}
		if len(got) != len(want) {
			t.Fatalf("scan(%x,%d): %d results, want %d", start, max, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("scan(%x)[%d] = %x, want %x", start, i, got[i], want[i])
			}
		}
	}

	// Early stop.
	n := 0
	tr.Scan(nil, 1000, func(TID) bool { n++; return n < 5 })
	if n != 5 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestInsertionOrderIndependence(t *testing.T) {
	// The paper conjectures HOT structures are insertion-order independent.
	rng := rand.New(rand.NewSource(77))
	var keys []string
	seen := map[string]bool{}
	for len(keys) < 500 {
		k := fmt.Sprintf("%x", rng.Uint64()>>uint(rng.Intn(40)))
		if seen[k] {
			continue
		}
		seen[k] = true
		keys = append(keys, k)
	}
	sig := func(tr *Trie, s *tidstore.Store) string {
		var b []byte
		rb := tr.root.Load()
		var walk func(nd *node)
		walk = func(nd *node) {
			b = append(b, fmt.Sprintf("[h%d d%v p%v ", nd.height, nd.dbits(nil), nd.pks(nil))...)
			for i := range int(nd.n) {
				if c, tid := nd.entry(i); c != nil {
					walk(c)
				} else {
					b = append(b, fmt.Sprintf("k%q ", s.Key(tid, nil))...)
				}
			}
			b = append(b, ']')
		}
		if rb.n != nil {
			walk(rb.n)
		}
		return string(b)
	}
	var ref string
	for trial := 0; trial < 4; trial++ {
		perm := rand.New(rand.NewSource(int64(trial * 13))).Perm(len(keys))
		tr, s := newTestTrie()
		for _, i := range perm {
			tr.Insert([]byte(keys[i]), s.AddString(keys[i]))
		}
		checkInvariants(t, tr, true)
		got := sig(tr, s)
		if trial == 0 {
			ref = got
			continue
		}
		if got != ref {
			t.Fatalf("structure differs for insertion order %d", trial)
		}
	}
}

func TestHeightVsBTreeBound(t *testing.T) {
	// With fanout ≤ 32 and ≥ 2 entries/node, height must be ≤ log2(n)+1 and
	// should be near log32 for well-distributed keys.
	tr, s := newTestTrie()
	buf := make([]byte, 8)
	rng := rand.New(rand.NewSource(123))
	const n = 50000
	for i := 0; i < n; i++ {
		binary.BigEndian.PutUint64(buf, rng.Uint64()>>1)
		tid := s.Add(buf)
		tr.Insert(buf, tid)
	}
	h := tr.Height()
	if h > 8 {
		t.Errorf("height %d too large for %d random keys", h, tr.Len())
	}
	st := tr.Depths()
	if st.Mean > 5 {
		t.Errorf("mean depth %.2f too large", st.Mean)
	}
}

func TestMemoryPerKey(t *testing.T) {
	// Paper Section 6.3: HOT stays between 11.4 and 14.4 bytes/key across
	// data sets. Allow slack, but it must be well under the B-tree's ~25.
	tr, s := newTestTrie()
	buf := make([]byte, 8)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 30000; i++ {
		binary.BigEndian.PutUint64(buf, rng.Uint64()>>1)
		tr.Insert(buf, s.Add(buf))
	}
	bpk := tr.Memory().BytesPerKey(tr.Len())
	if bpk < 8 || bpk > 18 {
		t.Errorf("bytes/key = %.2f, expected ~11-15", bpk)
	}
}

func TestKeyTooLongPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for oversized key")
		}
	}()
	tr, _ := newTestTrie()
	tr.Insert(make([]byte, MaxKeyLen+1), 0)
}

func TestTIDTooLargePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for oversized TID")
		}
	}()
	tr, _ := newTestTrie()
	tr.Insert([]byte("k"), MaxTID+1)
}

func TestEmbeddedIntegerKeys(t *testing.T) {
	// The paper embeds fixed-size keys ≤ 8 bytes directly in the TID.
	tr := New(tidstore.Uint64Key)
	buf := make([]byte, 8)
	for i := 0; i < 1000; i++ {
		v := uint64(i) * 0x9E3779B97F4A7C15 >> 1
		binary.BigEndian.PutUint64(buf, v)
		if !tr.Insert(buf, v) {
			t.Fatalf("insert %x failed", v)
		}
	}
	for i := 0; i < 1000; i++ {
		v := uint64(i) * 0x9E3779B97F4A7C15 >> 1
		binary.BigEndian.PutUint64(buf, v)
		if tid, ok := tr.Lookup(buf); !ok || tid != v {
			t.Fatalf("lookup %x = (%x,%v)", v, tid, ok)
		}
	}
}

// TestLookupAllocs pins point lookups at 0 allocations on both trie types,
// for present and absent keys, over url and integer keys in a tuple store,
// whose loader ignores its buffer, and over integer keys embedded in their
// TIDs, whose loader writes the key into it: nothing on the read path —
// the descent, its child prefetch, the key load and the final compare —
// may move anything to the heap.
func TestLookupAllocs(t *testing.T) {
	for _, src := range []struct {
		name     string
		kind     dataset.Kind
		embedded bool
	}{
		{"url", dataset.URL, false},
		{"integer", dataset.Integer, false},
		{"integer/embedded", dataset.Integer, true},
	} {
		t.Run(src.name, func(t *testing.T) {
			keys := dataset.Generate(src.kind, 20000, 5)
			stored, absent := keys[:len(keys)/2], keys[len(keys)/2:]
			s := &tidstore.Store{}
			loader := s.Key
			if src.embedded {
				loader = tidstore.Uint64Key
			}
			tr, ct := New(loader), NewConcurrent(loader)
			for _, k := range stored {
				tid := binary.BigEndian.Uint64(k)
				if !src.embedded {
					tid = s.Add(k)
				}
				tr.Insert(k, tid)
				ct.Insert(k, tid)
			}
			for _, c := range []struct {
				name   string
				lookup func([]byte) (TID, bool)
			}{
				{"Trie", tr.Lookup},
				{"ConcurrentTrie", ct.Lookup},
			} {
				i := 0
				allocs := testing.AllocsPerRun(1000, func() {
					if _, ok := c.lookup(stored[i%len(stored)]); !ok {
						t.Fatalf("%s: stored key %d not found", c.name, i)
					}
					if _, ok := c.lookup(absent[i%len(absent)]); ok {
						t.Fatalf("%s: absent key %d found", c.name, i)
					}
					i++
				})
				if allocs != 0 {
					t.Errorf("%s.Lookup allocates %v per two calls, want 0", c.name, allocs)
				}
			}
		})
	}
}
