// Quickstart: the hot package in two minutes — Map for arbitrary byte
// keys, an integer set built from a Tree whose keys live in their TIDs,
// and the index-style Tree with an external tuple store.
package main

import (
	"encoding/binary"
	"fmt"

	hot "github.com/hotindex/hot"
)

// intSet is a sorted set of 63-bit integers: a Tree over the paper's
// embedded-key loader, which writes a TID's 8 big-endian bytes as its
// key, so every value is its own key and TID and no tuple store is needed.
type intSet struct {
	t   *hot.Tree
	buf [8]byte
}

func newIntSet() *intSet {
	return &intSet{t: hot.New(func(tid hot.TID, buf []byte) []byte {
		return binary.BigEndian.AppendUint64(buf[:0], tid)
	})}
}

func (s *intSet) key(v uint64) []byte {
	binary.BigEndian.PutUint64(s.buf[:], v)
	return s.buf[:]
}

// Insert adds v (< 2^63), reporting false if it is already present.
func (s *intSet) Insert(v uint64) bool { return s.t.Insert(s.key(v), v) }

// Contains reports whether v is in the set.
func (s *intSet) Contains(v uint64) bool {
	_, ok := s.t.Lookup(s.key(v))
	return ok
}

// Ascend calls fn for every value ≥ from in ascending order.
func (s *intSet) Ascend(from uint64, fn func(uint64) bool) {
	s.t.Scan(s.key(from), s.t.Len(), fn)
}

func main() {
	// Map: ordered map from arbitrary []byte keys to uint64 values.
	m := hot.NewMap()
	m.Set([]byte("banana"), 3)
	m.Set([]byte("apple"), 1)
	m.Set([]byte("cherry"), 7)
	m.Set([]byte("apricot"), 2)

	if v, ok := m.Get([]byte("cherry")); ok {
		fmt.Println("cherry =", v)
	}

	fmt.Println("fruit in order:")
	m.Range(nil, -1, func(k []byte, v uint64) bool {
		fmt.Printf("  %-8s %d\n", k, v)
		return true
	})

	fmt.Println("starting at 'apr', first 2:")
	m.Range([]byte("apr"), 2, func(k []byte, v uint64) bool {
		fmt.Printf("  %-8s %d\n", k, v)
		return true
	})

	// An integer set: a Tree with the keys embedded in the TIDs.
	s := newIntSet()
	for _, v := range []uint64{42, 7, 99, 7, 1000000} {
		s.Insert(v) // duplicate 7 is rejected
	}
	fmt.Println("\nset size:", s.t.Len(), "contains 99:", s.Contains(99))
	s.Ascend(10, func(v uint64) bool {
		fmt.Println("  >= 10:", v)
		return true
	})

	// Tree: the paper's index abstraction — the index stores tuple
	// identifiers and resolves keys through the base table.
	type user struct {
		name string
		age  int
	}
	table := []user{{"ada", 36}, {"alan", 41}, {"grace", 85}, {"edsger", 72}}
	idx := hot.New(func(tid hot.TID, _ []byte) []byte {
		return append([]byte(table[tid].name), 0) // terminated key from the tuple
	})
	for tid := range table {
		idx.Insert(append([]byte(table[tid].name), 0), hot.TID(tid))
	}
	if tid, ok := idx.Lookup(append([]byte("grace"), 0)); ok {
		fmt.Printf("\ngrace -> tuple %d: %+v\n", tid, table[tid])
	}
	fmt.Printf("tree height %d, %.1f bytes/key\n",
		idx.Height(), idx.Memory().BytesPerKey(idx.Len()))
}
