package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/hotindex/hot/internal/tidstore"
)

// checkBatchAgainstScalar asserts that one LookupBatch call over probes
// agrees with per-key Lookup on the same trie.
func checkBatchAgainstScalar(t *testing.T, tr *Trie, probes [][]byte) {
	t.Helper()
	out := make([]TID, len(probes))
	found := tr.LookupBatch(probes, out)
	if len(found) != len(probes) {
		t.Fatalf("found mask length %d, want %d", len(found), len(probes))
	}
	for i, k := range probes {
		wantTID, wantOK := tr.Lookup(k)
		if found[i] != wantOK {
			t.Fatalf("probe %d (%x): batch found=%v scalar found=%v", i, k, found[i], wantOK)
		}
		if wantOK && out[i] != wantTID {
			t.Fatalf("probe %d (%x): batch tid=%d scalar tid=%d", i, k, out[i], wantTID)
		}
		if !wantOK && out[i] != 0 {
			t.Fatalf("probe %d (%x): absent key got out=%d, want 0", i, k, out[i])
		}
	}
}

// batchInputs are the two loaders every batch test runs with: a tuple
// store, whose keys sit in its arena and ignore the buffer, and the 8-byte
// embedded-key loader, which writes each key into the buffer it is handed,
// so every lane's candidate must be loaded into a buffer of its own. Each
// builds a trie and returns it with shuffled probes that mix present keys,
// near-misses and absent keys.
var batchInputs = []struct {
	name  string
	build func(rng *rand.Rand) (*Trie, [][]byte)
}{
	{"tidstore", batchStrings},
	{"embedded", batchIntegers},
}

// batchStrings loads 300 short keys into a tidstore-backed trie. Its
// probes are every stored key; prefix-colliding keys, the same bytes with
// a divergence only in the terminator position, which share every
// discriminative bit of the stored key's path prefix and must be rejected
// by the final key comparison; extensions past a stored key (the check
// must compare full lengths); and 100 random keys, present or absent.
func batchStrings(rng *rand.Rand) (*Trie, [][]byte) {
	s := &tidstore.Store{}
	tr := New(s.Key)
	// randomKey draws from a ~364-key universe; stay well below it.
	var stored [][]byte
	seen := map[string]bool{}
	for len(stored) < 300 {
		k := randomKey(rng)
		if seen[string(k)] {
			continue
		}
		seen[string(k)] = true
		tr.Insert(k, s.Add(k))
		stored = append(stored, k)
	}
	var probes [][]byte
	for _, k := range stored {
		probes = append(probes, k)
		col := append([]byte(nil), k...)
		col[len(col)-1] = 0xFE
		if !seen[string(col)] {
			probes = append(probes, col)
		}
		ext := append(append([]byte(nil), k...), 0xFF)
		if !seen[string(ext)] {
			probes = append(probes, ext)
		}
	}
	for i := 0; i < 100; i++ {
		probes = append(probes, randomKey(rng))
	}
	rng.Shuffle(len(probes), func(i, j int) { probes[i], probes[j] = probes[j], probes[i] })
	return tr, probes
}

// batchIntegers loads 300 even values into a trie over the embedded-key
// loader. Its probes are every stored value, each one's odd successor (a
// near-miss that differs in the last bit only) and 100 random values,
// almost all absent.
func batchIntegers(rng *rand.Rand) (*Trie, [][]byte) {
	tr := New(tidstore.Uint64Key)
	value := func(i int) uint64 { return uint64(rng.Intn(1<<16))<<20 | uint64(i)<<1 }
	var probes [][]byte
	for i := 0; i < 300; i++ {
		v := value(i)
		tr.Insert(tidstore.Uint64Key(v, nil), v)
		probes = append(probes, tidstore.Uint64Key(v, nil), tidstore.Uint64Key(v+1, nil))
	}
	for i := 0; i < 100; i++ {
		probes = append(probes, tidstore.Uint64Key(value(rng.Intn(300)), nil))
	}
	rng.Shuffle(len(probes), func(i, j int) { probes[i], probes[j] = probes[j], probes[i] })
	return tr, probes
}

// TestLookupBatchOracle cross-checks batched lookups against scalar Lookup
// with both loaders, at batch sizes below, at and above the lane count.
func TestLookupBatchOracle(t *testing.T) {
	for _, in := range batchInputs {
		t.Run(in.name, func(t *testing.T) {
			tr, probes := in.build(rand.New(rand.NewSource(7)))
			for _, size := range []int{0, 1, 7, batchLanes - 1, batchLanes, batchLanes + 1, 3 * batchLanes, len(probes)} {
				checkBatchAgainstScalar(t, tr, probes[:size])
			}
		})
	}
}

// TestLookupBatchSmallTrees covers the rootless and single-leaf roots,
// whose lanes resolve at the root without a descent.
func TestLookupBatchSmallTrees(t *testing.T) {
	s := &tidstore.Store{}
	tr := New(s.Key)
	k1 := []byte("alpha\xFF")
	probes := [][]byte{k1, []byte("beta\xFF"), nil}
	checkBatchAgainstScalar(t, tr, probes) // empty

	tr.Insert(k1, s.Add(k1))
	checkBatchAgainstScalar(t, tr, probes) // single leaf
}

// TestLookupBatchAcrossTries holds LookupBatchAcross to scalar Lookup when
// every lane carries its own trie: lanes drawn from 20 tries — an empty
// one, a single leaf and multi-level ones, more tries than a fixed guard
// array would hold — interleaved at random, probing present keys, absent
// keys, near-misses one step off a stored key and keys another trie
// holds, at batch sizes around the lane count, with both loaders (see
// batchInputs). A lane without a trie must keep its out and found slots.
// After every call each trie's epoch must advance: the call released
// every guard it took.
func TestLookupBatchAcrossTries(t *testing.T) {
	s := &tidstore.Store{}
	for _, in := range []struct {
		name   string
		loader Loader
		key    func(j, i int) []byte // trie j's i-th key; odd i are never stored
		tid    func(k []byte) TID
	}{
		{"tidstore", s.Key, func(j, i int) []byte { return []byte(fmt.Sprintf("t%02d/%06d\x00", j, i)) }, s.Add},
		{"embedded", tidstore.Uint64Key, func(j, i int) []byte { return tidstore.Uint64Key(uint64(j)<<32|uint64(i), nil) }, binary.BigEndian.Uint64},
	} {
		t.Run(in.name, func(t *testing.T) { checkAcrossTries(t, in.loader, in.key, in.tid) })
	}
}

// checkAcrossTries runs TestLookupBatchAcrossTries over tries with loader,
// where trie j holds key(j, i) under tid(key(j, i)) for every even i.
func checkAcrossTries(t *testing.T, loader Loader, key func(j, i int) []byte, tid func(k []byte) TID) {
	const nTries = 20
	tries := make([]*ConcurrentTrie, nTries)
	stored := make([][][]byte, nTries)
	for j := range tries {
		tries[j] = NewConcurrent(loader)
		n := 30 * j * j // 0, 30 (single node), then up to three levels
		if j == 1 {
			n = 1 // single leaf
		}
		for i := 0; i < n; i++ {
			k := key(j, 2*i)
			tries[j].Insert(k, tid(k))
			stored[j] = append(stored[j], k)
		}
	}
	rng := rand.New(rand.NewSource(31))
	probe := func(j int) []byte {
		switch c := rng.Intn(8); {
		case c < 4 && len(stored[j]) > 0: // present
			return stored[j][rng.Intn(len(stored[j]))]
		case c < 6: // near-miss: an odd index, next to a stored even one
			return key(j, 2*rng.Intn(30*j*j+1)+1)
		case c < 7: // another trie's key
			o := rng.Intn(nTries)
			if len(stored[o]) == 0 {
				return nil
			}
			return stored[o][rng.Intn(len(stored[o]))]
		}
		return key(nTries+rng.Intn(nTries), rng.Intn(1<<20)) // absent everywhere
	}
	const sentinel = TID(1<<62 + 7)
	for round := 0; round < 4; round++ {
		for _, size := range []int{1, batchLanes - 1, batchLanes, batchLanes + 1, 200} {
			which := make([]int, size)
			keys := make([][]byte, size)
			out := make([]TID, size)
			found := make([]bool, size)
			for i := range keys {
				j := rng.Intn(nTries)
				keys[i] = probe(j)
				which[i] = j
				if rng.Intn(16) == 0 {
					which[i] = -1
				}
				out[i], found[i] = sentinel, true
			}
			LookupBatchAcross(tries, which, keys, out, found)
			for i, k := range keys {
				if which[i] < 0 {
					if out[i] != sentinel || !found[i] {
						t.Fatalf("size %d lane %d without a trie: got (%d, %v), want it untouched", size, i, out[i], found[i])
					}
					continue
				}
				wantTID, wantOK := tries[which[i]].Lookup(k)
				if found[i] != wantOK || out[i] != wantTID {
					t.Fatalf("size %d lane %d (%q): batch (%d, %v), scalar (%d, %v)", size, i, k, out[i], found[i], wantTID, wantOK)
				}
			}
			for j, tr := range tries {
				if !tr.gc.TryAdvance() {
					t.Fatalf("size %d: trie %d's epoch cannot advance: a guard leaked", size, j)
				}
			}
		}
	}
}

// TestLookupBatchOutTooShort pins the documented contract violation.
func TestLookupBatchOutTooShort(t *testing.T) {
	s := &tidstore.Store{}
	tr := New(s.Key)
	k := []byte("a\xFF")
	tr.Insert(k, s.Add(k))
	defer func() {
		if recover() == nil {
			t.Fatal("LookupBatch with short out slice did not panic")
		}
	}()
	tr.LookupBatch([][]byte{k, k}, make([]TID, 1))
}

// TestLookupBatchAllocs pins the steady-state allocations of a batch with
// both loaders: Trie.LookupBatch and LookupBatchAcross allocate nothing,
// ConcurrentTrie.LookupBatch only the mask it hands the caller.
func TestLookupBatchAllocs(t *testing.T) {
	for _, in := range batchInputs {
		t.Run(in.name, func(t *testing.T) {
			tr, probes := in.build(rand.New(rand.NewSource(11)))
			probes = probes[:2*batchLanes+1]
			out := make([]TID, len(probes))
			tr.LookupBatch(probes, out) // warm the scratch
			if allocs := testing.AllocsPerRun(100, func() {
				tr.LookupBatch(probes, out)
			}); allocs != 0 {
				t.Fatalf("Trie.LookupBatch allocates %v per call, want 0", allocs)
			}
			if raceEnabled {
				return // -race drops pooled scratch at random
			}
			ct := concurrentCopy(tr, probes)
			which, found := make([]int, len(probes)), make([]bool, len(probes))
			for _, c := range []struct {
				name string
				want float64
				call func()
			}{
				{"ConcurrentTrie.LookupBatch", 1, func() { ct.LookupBatch(probes, out) }},
				{"LookupBatchAcross", 0, func() { LookupBatchAcross([]*ConcurrentTrie{ct}, which, probes, out, found) }},
			} {
				c.call()
				if allocs := testing.AllocsPerRun(100, c.call); allocs != c.want {
					t.Fatalf("%s allocates %v per call, want %v", c.name, allocs, c.want)
				}
			}
		})
	}
}

// concurrentCopy returns a ConcurrentTrie over tr's loader holding those
// of probes that tr holds, under the same TIDs.
func concurrentCopy(tr *Trie, probes [][]byte) *ConcurrentTrie {
	ct := NewConcurrent(tr.loader)
	for _, k := range probes {
		if tid, ok := tr.Lookup(k); ok {
			ct.Insert(k, tid)
		}
	}
	return ct
}

// TestLookupBatchPoolHoldsNoKeys: a state back in the pool after
// LookupBatchAcross holds no trie and none of the keys its loader
// returned, which may alias a store's tuple arena.
func TestLookupBatchPoolHoldsNoKeys(t *testing.T) {
	for _, in := range batchInputs {
		t.Run(in.name, func(t *testing.T) {
			tr, probes := in.build(rand.New(rand.NewSource(13)))
			ct := concurrentCopy(tr, probes)
			which := make([]int, len(probes))
			out, found := make([]TID, len(probes)), make([]bool, len(probes))
			for try := 0; ; try++ {
				LookupBatchAcross([]*ConcurrentTrie{ct}, which, probes, out, found)
				st := batchStatePool.Get().(*batchState)
				if st.keyBuf == nil { // a fresh state: the pool dropped the call's
					if try == 100 {
						t.Fatal("the pool never handed back a used state")
					}
					continue
				}
				for j, k := range st.loaded {
					if k != nil {
						t.Fatalf("pooled state keeps lane %d's loaded key %x", j, k)
					}
				}
				for i, tr := range st.trees {
					if tr != nil {
						t.Fatalf("pooled state keeps key %d's trie", i)
					}
				}
				batchStatePool.Put(st)
				return
			}
		})
	}
}

// TestConcurrentLookupBatchChurn interleaves batched lookups with
// concurrent inserts and deletes under -race: even values stay resident
// for the whole test (their lookups must always succeed with the right
// TID), odd values churn (their lookups may go either way but must return
// the right TID when found).
func TestConcurrentLookupBatchChurn(t *testing.T) {
	tr := NewConcurrent(tidstore.Uint64Key)
	const stable = 512
	key := func(v uint64, buf []byte) []byte { return tidstore.Uint64Key(v, buf) }
	for v := uint64(0); v < stable; v += 2 {
		tr.Insert(key(v, nil), v)
	}

	var stop atomic.Bool
	var writers, readers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(seed int64) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(seed))
			var buf [8]byte
			for !stop.Load() {
				v := uint64(rng.Intn(stable))*2 + 1
				if rng.Intn(2) == 0 {
					tr.Insert(key(v, buf[:0]), v)
				} else {
					tr.Delete(key(v, buf[:0]))
				}
			}
		}(int64(w))
	}

	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(100 + seed))
			probes := make([][]byte, batchLanes+3)
			vals := make([]uint64, len(probes))
			out := make([]TID, len(probes))
			for i := range probes {
				probes[i] = make([]byte, 8)
			}
			for round := 0; round < 300; round++ {
				for i := range probes {
					v := uint64(rng.Intn(2 * stable))
					if i%2 == 0 {
						v = uint64(rng.Intn(stable/2)) * 2 // stable resident
					}
					vals[i] = v
					tidstore.Uint64Key(v, probes[i])
				}
				found := tr.LookupBatch(probes, out)
				for i, v := range vals {
					if i%2 == 0 && !found[i] {
						t.Errorf("stable value %d not found", v)
						return
					}
					if found[i] && out[i] != v {
						t.Errorf("value %d resolved to tid %d", v, out[i])
						return
					}
				}
			}
		}(int64(r))
	}
	readers.Wait()
	stop.Store(true)
	writers.Wait()
}
