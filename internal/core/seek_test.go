package core

import (
	"math/rand"
	"sort"
	"testing"

	"github.com/hotindex/hot/internal/key"
	"github.com/hotindex/hot/internal/tidstore"
)

// seekOracle holds a trie plus its keys sorted by the trie's zero-padded
// comparison, for lower-bound cross-checks.
type seekOracle struct {
	tr     *Trie
	s      *tidstore.Store
	sorted [][]byte
}

func buildSeekOracle(t *testing.T, keys [][]byte) *seekOracle {
	t.Helper()
	o := &seekOracle{s: &tidstore.Store{}}
	o.tr = New(o.s.Key)
	seen := map[string]bool{}
	for _, k := range keys {
		if seen[string(k)] {
			continue
		}
		seen[string(k)] = true
		if !o.tr.Insert(k, o.s.Add(k)) {
			t.Fatalf("insert %x failed", k)
		}
		o.sorted = append(o.sorted, k)
	}
	sort.Slice(o.sorted, func(i, j int) bool { return key.Compare(o.sorted[i], o.sorted[j]) < 0 })
	return o
}

// check seeks start and compares the full iterated sequence against the
// sorted oracle's lower-bound suffix.
func (o *seekOracle) check(t *testing.T, start []byte) {
	t.Helper()
	lb := sort.Search(len(o.sorted), func(i int) bool { return key.Compare(o.sorted[i], start) >= 0 })
	it := o.tr.Iter(start)
	for i := lb; i < len(o.sorted); i++ {
		if !it.Valid() {
			t.Fatalf("seek %x: iterator ended at oracle index %d (key %x)", start, i, o.sorted[i])
		}
		got := o.s.Key(it.TID(), nil)
		if !key.Equal(got, o.sorted[i]) {
			t.Fatalf("seek %x: got %x, want %x at oracle index %d", start, got, o.sorted[i], i)
		}
		it.Next()
	}
	if it.Valid() {
		t.Fatalf("seek %x: iterator yields %x past the oracle's end", start, o.s.Key(it.TID(), nil))
	}
}

// TestSeekBoundaries pins the seek successor step (the bit==1 path that
// skips the affected subtree via Next) on its boundary cases: start
// greater than every stored key, start falling exactly between adjacent
// subtrees, and start sharing a full stored key as prefix.
func TestSeekBoundaries(t *testing.T) {
	// A key set with deep shared prefixes so the affected subtree spans
	// multiple node levels, plus sparse outliers.
	var keys [][]byte
	for _, p := range []string{"", "a", "ab", "abc", "abcd"} {
		for c := byte('a'); c <= 'e'; c++ {
			keys = append(keys, append([]byte(p+string(c)), 0xFF))
		}
	}
	keys = append(keys,
		[]byte{0x00, 0xFF}, []byte{0x01, 0xFF},
		[]byte{0xFE, 0xFF}, []byte{0xFF, 0xFF},
	)
	o := buildSeekOracle(t, keys)

	// start greater than every stored key: the bit==1 path must climb the
	// whole retained stack and invalidate.
	o.check(t, []byte{0xFF, 0xFF, 0xFF})
	if it := o.tr.Iter([]byte{0xFF, 0xFF, 0xFF}); it.Valid() {
		t.Fatal("seek past the maximum key yielded an entry")
	}

	// start exactly between adjacent subtrees: probes derived from every
	// adjacent pair of stored keys (their divergence point is a subtree
	// boundary in some node).
	for i := 0; i+1 < len(o.sorted); i++ {
		a := o.sorted[i]
		// Just above a: a with the terminator bumped, and a extended —
		// both sort after a and before (or at) its successor.
		up := append([]byte(nil), a...)
		up[len(up)-1]++
		o.check(t, up)
		o.check(t, append(append([]byte(nil), a...), 0x01))
	}

	// start sharing a full stored key as prefix: the stored key's whole
	// path agrees with start, so the mismatch falls past its terminator.
	for _, a := range o.sorted {
		o.check(t, append(append([]byte(nil), a...), 0xFF))
		o.check(t, append(append([]byte(nil), a...), 0x00)) // zero-pad: equal under padded compare
	}

	// Exact hits and just-below probes for completeness.
	for _, a := range o.sorted {
		o.check(t, a)
		down := append([]byte(nil), a...)
		if down[len(down)-1] > 0 {
			down[len(down)-1]--
			o.check(t, down)
		}
	}
}

// TestSeekRandomizedOracle fuzzes seek against the sorted oracle over
// random key sets and random probes.
func TestSeekRandomizedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		var keys [][]byte
		n := 2 + rng.Intn(200)
		for i := 0; i < n; i++ {
			keys = append(keys, randomKey(rng))
		}
		o := buildSeekOracle(t, keys)
		for p := 0; p < 50; p++ {
			probe := randomKey(rng)
			switch rng.Intn(4) {
			case 0:
				probe = probe[:rng.Intn(len(probe))+1] // truncations
			case 1:
				probe = append(probe, byte(rng.Intn(256))) // extensions
			}
			o.check(t, probe)
		}
		o.check(t, nil)
	}
}

// TestSeekIterAllocs asserts that repositioning an iterator is
// allocation-free: the loader writes into the caller's scratch buffer and
// the iterator's stack storage is reused. (A fresh Iter still allocates
// its stack once; repositioning must not.)
func TestSeekIterAllocs(t *testing.T) {
	// Uint64Key materializes keys through its buf argument, so a seek
	// that passes the loader a nil buffer allocates on every call.
	tr := New(tidstore.Uint64Key)
	for v := uint64(0); v < 4096; v++ {
		k := tidstore.Uint64Key(v*64, nil)
		tr.Insert(k, v*64)
	}
	starts := make([][]byte, 16)
	for i := range starts {
		starts[i] = tidstore.Uint64Key(uint64(i*997+13), nil)
	}
	var it Iterator
	buf := make([]byte, 0, 8)
	tr.SeekIter(&it, starts[0], buf) // warm the stack storage
	i := 0
	if allocs := testing.AllocsPerRun(200, func() {
		tr.SeekIter(&it, starts[i%len(starts)], buf)
		if !it.Valid() {
			t.Fatal("seek landed invalid")
		}
		it.Next()
		i++
	}); allocs != 0 {
		t.Fatalf("SeekIter allocates %v per reposition, want 0", allocs)
	}
}

// TestIterAllocs pins the open-a-fresh-iterator cost at exactly the one
// unavoidable stack allocation: the loader call inside seek must use the
// trie's scratch buffer rather than allocating a key copy per open.
func TestIterAllocs(t *testing.T) {
	tr := New(tidstore.Uint64Key)
	for v := uint64(0); v < 4096; v++ {
		tr.Insert(tidstore.Uint64Key(v*64, nil), v*64)
	}
	start := tidstore.Uint64Key(12345, nil)
	if allocs := testing.AllocsPerRun(200, func() {
		it := tr.Iter(start)
		if !it.Valid() {
			t.Fatal("seek landed invalid")
		}
	}); allocs > 1 {
		t.Fatalf("Iter allocates %v per open, want ≤ 1 (the path stack)", allocs)
	}
}
