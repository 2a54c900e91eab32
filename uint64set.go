package hot

import (
	"encoding/binary"

	"github.com/hotindex/hot/internal/core"
	"github.com/hotindex/hot/internal/tidstore"
)

// Uint64Set is an ordered set of 63-bit integers backed by a Height
// Optimized Trie, using the paper's embedded-key optimization: fixed-size
// keys up to 8 bytes are stored directly inside their tuple identifiers,
// so the set needs no tuple store at all. Not safe for concurrent use; see
// ShardedUint64Set.
type Uint64Set struct {
	statsBase // shared Len/Height/Memory/Verify surface
	codecOpt
	t   *core.Trie
	buf [8]byte

	// LookupBatch scratch: big-endian encodings back to back in bflat,
	// resliced into bkeys; btids receives the trie's TIDs.
	bflat []byte
	bkeys [][]byte
	btids []uint64
}

// NewUint64Set returns an empty integer set.
func NewUint64Set() *Uint64Set {
	t := core.New(tidstore.Uint64Key)
	return &Uint64Set{statsBase: statsBase{t}, t: t}
}

func (s *Uint64Set) key(v uint64) []byte {
	binary.BigEndian.PutUint64(s.buf[:], v)
	return s.buf[:]
}

// Insert adds v (< 2^63), reporting false if already present.
func (s *Uint64Set) Insert(v uint64) bool { return s.t.Insert(s.key(v), v) }

// Contains reports whether v is in the set.
func (s *Uint64Set) Contains(v uint64) bool {
	_, ok := s.t.Lookup(s.key(v))
	return ok
}

// LookupBatch reports membership of all values as one batch: the returned
// mask's i'th element tells whether vs[i] is in the set. The underlying
// batched descent overlaps the trie's memory stalls across values (see
// Tree.LookupBatch); steady-state calls allocate nothing. The returned mask
// is scratch owned by the set, valid until the next LookupBatch call.
func (s *Uint64Set) LookupBatch(vs []uint64) []bool {
	n := len(vs)
	if cap(s.bflat) < 8*n {
		s.bflat = make([]byte, 8*n)
	}
	s.bflat = s.bflat[:8*n]
	s.bkeys = s.bkeys[:0]
	for i, v := range vs {
		binary.BigEndian.PutUint64(s.bflat[8*i:], v)
		s.bkeys = append(s.bkeys, s.bflat[8*i:8*i+8])
	}
	if cap(s.btids) < n {
		s.btids = make([]uint64, n)
	}
	s.btids = s.btids[:n]
	return s.t.LookupBatch(s.bkeys, s.btids)
}

// Delete removes v, reporting whether it was present.
func (s *Uint64Set) Delete(v uint64) bool { return s.t.Delete(s.key(v)) }

// Ascend invokes fn for up to max values ≥ from in ascending order,
// returning the number visited (max < 0 means unbounded).
func (s *Uint64Set) Ascend(from uint64, max int, fn func(uint64) bool) int {
	if max < 0 {
		max = s.t.Len()
	}
	return s.t.Scan(s.key(from), max, fn)
}

// Min returns the smallest element.
func (s *Uint64Set) Min() (uint64, bool) {
	var v uint64
	found := false
	s.t.Scan(nil, 1, func(tid core.TID) bool {
		v, found = tid, true
		return false
	})
	return v, found
}

func u64key(v uint64, buf *[8]byte) []byte {
	binary.BigEndian.PutUint64(buf[:], v)
	return buf[:]
}
