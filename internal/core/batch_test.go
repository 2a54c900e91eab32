package core

import (
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

// TestLookupBatchOracle cross-checks batched lookups against scalar Lookup
// over present keys, absent keys and prefix-colliding probes (keys sharing
// a long prefix with stored keys, which descend to a candidate and must be
// rejected by the final key comparison), at batch sizes below, at and above
// the lane count.
func TestLookupBatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
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
		// Prefix-colliding probe: same bytes, divergence only in the
		// terminator position — shares every discriminative bit of the
		// stored key's path prefix.
		col := append([]byte(nil), k...)
		col[len(col)-1] = 0xFE
		if !seen[string(col)] {
			probes = append(probes, col)
		}
		// Extension past the stored key (candidate check must compare
		// full lengths).
		ext := append(append([]byte(nil), k...), 0xFF)
		if !seen[string(ext)] {
			probes = append(probes, ext)
		}
	}
	for i := 0; i < 100; i++ {
		k := randomKey(rng)
		probes = append(probes, k) // mix of present and absent
	}
	rng.Shuffle(len(probes), func(i, j int) { probes[i], probes[j] = probes[j], probes[i] })

	for _, size := range []int{0, 1, 7, batchLanes - 1, batchLanes, batchLanes + 1, 3 * batchLanes, len(probes)} {
		if size > len(probes) {
			size = len(probes)
		}
		checkBatchAgainstScalar(t, tr, probes[:size])
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
// keys, near-misses one digit off a stored key and keys another trie
// holds, at batch sizes around the lane count. A lane without a trie must
// keep its out and found slots. After every call each trie's epoch must
// advance: the call released every guard it took.
func TestLookupBatchAcrossTries(t *testing.T) {
	const nTries = 20
	s := &tidstore.Store{}
	tries := make([]*ConcurrentTrie, nTries)
	stored := make([][][]byte, nTries)
	for j := range tries {
		tries[j] = NewConcurrent(s.Key)
		n := 30 * j * j // 0, 30 (single node), then up to three levels
		if j == 1 {
			n = 1 // single leaf
		}
		for i := 0; i < n; i++ {
			k := []byte(fmt.Sprintf("t%02d/%06d\x00", j, 2*i))
			tries[j].Insert(k, s.Add(k))
			stored[j] = append(stored[j], k)
		}
	}
	rng := rand.New(rand.NewSource(31))
	probe := func(j int) []byte {
		switch c := rng.Intn(8); {
		case c < 4 && len(stored[j]) > 0: // present
			return stored[j][rng.Intn(len(stored[j]))]
		case c < 6: // near-miss: an odd number, next to a stored even one
			return []byte(fmt.Sprintf("t%02d/%06d\x00", j, 2*rng.Intn(30*j*j+1)+1))
		case c < 7: // another trie's key
			o := rng.Intn(nTries)
			if len(stored[o]) == 0 {
				return nil
			}
			return stored[o][rng.Intn(len(stored[o]))]
		}
		return []byte(fmt.Sprintf("zz%d\x00", rng.Int())) // absent everywhere
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

// TestLookupBatchAllocs asserts the single-threaded batched lookup is
// allocation-free in steady state, one of the PR's acceptance criteria.
func TestLookupBatchAllocs(t *testing.T) {
	s := &tidstore.Store{}
	tr := New(s.Key)
	rng := rand.New(rand.NewSource(11))
	var keys [][]byte
	seen := map[string]bool{}
	for len(keys) < 200 {
		k := randomKey(rng)
		if seen[string(k)] {
			continue
		}
		seen[string(k)] = true
		tr.Insert(k, s.Add(k))
		keys = append(keys, k)
	}
	probes := keys[:2*batchLanes]
	out := make([]TID, len(probes))
	tr.LookupBatch(probes, out) // warm the scratch
	if allocs := testing.AllocsPerRun(100, func() {
		tr.LookupBatch(probes, out)
	}); allocs != 0 {
		t.Fatalf("LookupBatch allocates %v per call, want 0", allocs)
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
