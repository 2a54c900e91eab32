package hot

import (
	"encoding/binary"
	"slices"

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
	t     *core.Trie
	buf   [8]byte
	batch u64Batch
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
	return s.t.LookupBatch(s.batch.encode(vs))
}

// u64Batch is an integer set's LookupBatch scratch: the values' 8-byte
// big-endian keys, carved from flat, and the TIDs the lookup stores.
type u64Batch struct {
	flat []byte
	keys [][]byte
	out  []TID
}

// encode returns the keys of vs and len(vs) TID slots, reusing the
// scratch's storage.
func (b *u64Batch) encode(vs []uint64) ([][]byte, []TID) {
	n := len(vs)
	b.flat = slices.Grow(b.flat[:0], 8*n)[:8*n]
	b.keys = slices.Grow(b.keys[:0], n)[:n]
	b.out = slices.Grow(b.out[:0], n)[:n]
	putU64Keys(b.keys, b.flat, vs)
	return b.keys, b.out
}

// putU64Keys writes the 8-byte big-endian key of every vs[i] into flat and
// points keys[i] at it; len(flat) must be at least 8*len(vs).
func putU64Keys(keys [][]byte, flat []byte, vs []uint64) {
	for i, v := range vs {
		k := flat[8*i : 8*i+8]
		binary.BigEndian.PutUint64(k, v)
		keys[i] = k
	}
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
