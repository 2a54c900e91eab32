package core

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"github.com/hotindex/hot/internal/tidstore"
)

// The paper fixes k = 32 but discusses the fanout trade-off (Sections 3.1
// and 7): smaller k gives cheaper node operations and taller trees. These
// tests validate the structure for the whole supported k range.

func buildWithFanout(t *testing.T, k, n int, seed int64) (*Trie, *tidstore.Store, [][]byte) {
	t.Helper()
	s := &tidstore.Store{}
	tr := NewWithFanout(s.Key, k)
	rng := rand.New(rand.NewSource(seed))
	seen := map[uint64]bool{}
	var keys [][]byte
	for len(keys) < n {
		v := rng.Uint64() >> 1
		if seen[v] {
			continue
		}
		seen[v] = true
		kb := make([]byte, 8)
		binary.BigEndian.PutUint64(kb, v)
		keys = append(keys, kb)
		if !tr.Insert(kb, s.Add(kb)) {
			t.Fatalf("k=%d: insert %d failed", k, len(keys))
		}
	}
	return tr, s, keys
}

func TestFanoutRange(t *testing.T) {
	for _, k := range []int{2, 3, 4, 8, 16, 32} {
		tr, _, keys := buildWithFanout(t, k, 3000, int64(k))
		// Fanout constraint: no node exceeds k entries.
		maxSeen := 0
		var walk func(nd *node)
		walk = func(nd *node) {
			if int(nd.n) > maxSeen {
				maxSeen = int(nd.n)
			}
			for i := range int(nd.n) {
				if c := nd.child(i); c != nil {
					walk(c)
				}
			}
		}
		walk(tr.root.Load().n)
		if maxSeen > k {
			t.Fatalf("k=%d: node with %d entries", k, maxSeen)
		}
		for i, kb := range keys {
			if tid, ok := tr.Lookup(kb); !ok || tid != TID(i) {
				t.Fatalf("k=%d: lookup %d failed", k, i)
			}
		}
		checkInvariants(t, tr, true)
		// Deletes must hold too.
		for i := 0; i < 1000; i++ {
			if !tr.Delete(keys[i]) {
				t.Fatalf("k=%d: delete %d failed", k, i)
			}
		}
		checkInvariants(t, tr, false)
	}
}

func TestFanoutHeightTradeoff(t *testing.T) {
	// Smaller k must never produce a shallower tree; k=2 approaches the
	// binary Patricia trie, k=32 the paper's design point.
	var prev float64 = 1 << 20
	for _, k := range []int{4, 8, 16, 32} {
		tr, _, _ := buildWithFanout(t, k, 20000, 99)
		mean := tr.Depths().Mean
		if mean > prev+0.01 {
			t.Fatalf("k=%d mean depth %.2f above k/2's %.2f", k, mean, prev)
		}
		prev = mean
	}
	tr32, _, _ := buildWithFanout(t, 32, 20000, 99)
	tr4, _, _ := buildWithFanout(t, 4, 20000, 99)
	if tr4.Depths().Mean <= tr32.Depths().Mean {
		t.Fatalf("k=4 (%.2f) not deeper than k=32 (%.2f)", tr4.Depths().Mean, tr32.Depths().Mean)
	}
}

func TestFanoutOutOfRangePanics(t *testing.T) {
	s := &tidstore.Store{}
	for _, k := range []int{0, 1, 33, 1000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("k=%d: no panic", k)
				}
			}()
			NewWithFanout(s.Key, k)
		}()
	}
}
