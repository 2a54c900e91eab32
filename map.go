package hot

import (
	"fmt"

	"github.com/hotindex/hot/internal/core"
	"github.com/hotindex/hot/internal/tidstore"
)

// Map is an ordered map from arbitrary []byte keys to uint64 values backed
// by a Height Optimized Trie. Unlike Tree it needs no external tuple
// store: keys are kept in an internal append-only tuple store, and an
// order-preserving escape (0x00 → 0x00 0xFF, terminated by 0x00 0x01)
// makes arbitrary keys prefix-free, so keys may contain any bytes
// including 0x00.
//
// Deleted keys' space is not reclaimed (append-only storage); Map is
// intended for index-style workloads where inserts dominate. Map is not
// safe for concurrent use. Because the escape can double a key's length,
// Map keys are limited to MaxMapKeyLen bytes.
type Map struct {
	statsBase // shared Len/Height/Memory/Verify surface (key store not included in Memory)
	codecOpt
	t    *core.Trie
	keys tidstore.Store // escaped keys; a key's TID indexes vals
	vals []uint64
	buf  []byte

	// LookupBatch scratch: escaped keys back to back in bflat, delimited
	// by boffs, resliced into bkeys; btids receives the trie's TIDs.
	bflat []byte
	boffs []int
	bkeys [][]byte
	btids []uint64
}

// MaxMapKeyLen is the maximum Map key length in bytes: the worst-case
// escape (every byte a zero) doubles the key and adds a two-byte
// terminator, which must still fit in MaxKeyLen.
const MaxMapKeyLen = (MaxKeyLen - 2) / 2

// NewMap returns an empty Map.
func NewMap() *Map {
	m := &Map{vals: make([]uint64, 0, 16), buf: make([]byte, 0, 64)}
	m.t = core.New(m.keys.Key)
	m.statsBase = statsBase{m.t}
	return m
}

// escapeKey appends the order-preserving, prefix-free encoding of k to dst.
// It panics when len(k) > MaxMapKeyLen.
func escapeKey(dst, k []byte) []byte {
	if len(k) > MaxMapKeyLen {
		panic(fmt.Sprintf("hot: Map key length %d exceeds MaxMapKeyLen %d", len(k), MaxMapKeyLen))
	}
	for _, b := range k {
		if b == 0x00 {
			dst = append(dst, 0x00, 0xFF)
			continue
		}
		dst = append(dst, b)
	}
	return append(dst, 0x00, 0x01)
}

// Set stores val under key, replacing any existing value. It reports
// whether the key was newly inserted.
func (m *Map) Set(key []byte, val uint64) bool {
	ek := escapeKey(m.buf[:0], key)
	m.buf = ek[:0]
	if tid, ok := m.t.Lookup(ek); ok {
		m.vals[tid] = val
		return false
	}
	tid := m.keys.Add(ek)
	m.vals = append(m.vals, val)
	m.t.Insert(ek, tid)
	return true
}

// Get returns the value stored under key.
func (m *Map) Get(key []byte) (uint64, bool) {
	ek := escapeKey(m.buf[:0], key)
	m.buf = ek[:0]
	tid, ok := m.t.Lookup(ek)
	if !ok {
		return 0, false
	}
	return m.vals[tid], true
}

// LookupBatch looks up all keys as one batch, storing each key's value in
// the corresponding out slot (0 when absent) and returning a mask of which
// keys were found; len(out) must be at least len(keys). The underlying
// batched descent overlaps the trie's memory stalls across keys (see
// Tree.LookupBatch); steady-state calls allocate nothing. The returned mask
// is scratch owned by the map, valid until the next LookupBatch call.
func (m *Map) LookupBatch(keys [][]byte, out []uint64) []bool {
	n := len(keys)
	if len(out) < n {
		panic("hot: LookupBatch out slice shorter than keys")
	}
	// Escape every key into the flat scratch arena first; subslices are
	// built only afterwards, since appends may move the backing array.
	m.bflat = m.bflat[:0]
	m.boffs = append(m.boffs[:0], 0)
	for _, k := range keys {
		m.bflat = escapeKey(m.bflat, k)
		m.boffs = append(m.boffs, len(m.bflat))
	}
	m.bkeys = m.bkeys[:0]
	for i := 0; i < n; i++ {
		m.bkeys = append(m.bkeys, m.bflat[m.boffs[i]:m.boffs[i+1]])
	}
	if cap(m.btids) < n {
		m.btids = make([]uint64, n)
	}
	m.btids = m.btids[:n]
	found := m.t.LookupBatch(m.bkeys, m.btids)
	for i := 0; i < n; i++ {
		if found[i] {
			out[i] = m.vals[m.btids[i]]
		} else {
			out[i] = 0
		}
	}
	return found
}

// Delete removes key, reporting whether it was present.
func (m *Map) Delete(key []byte) bool {
	ek := escapeKey(m.buf[:0], key)
	m.buf = ek[:0]
	return m.t.Delete(ek)
}

// Range invokes fn for up to max entries with key ≥ start in ascending key
// order (nil start ranges from the smallest key; max < 0 means unbounded).
// The key slice passed to fn is only valid during the call; fn must not
// modify the map.
func (m *Map) Range(start []byte, max int, fn func(key []byte, val uint64) bool) int {
	var es []byte
	if start != nil {
		es = escapeKey(nil, start)
	}
	if max < 0 {
		max = m.t.Len()
	}
	var dec []byte
	return m.t.Scan(es, max, func(tid core.TID) bool {
		dec = unescapeKey(dec[:0], m.keys.Key(tid, nil))
		return fn(dec, m.vals[tid])
	})
}

// unescapeKey reverses escapeKey.
func unescapeKey(dst, ek []byte) []byte {
	for i := 0; i < len(ek); i++ {
		b := ek[i]
		if b != 0x00 {
			dst = append(dst, b)
			continue
		}
		i++
		if i >= len(ek) || ek[i] == 0x01 {
			break // terminator
		}
		dst = append(dst, 0x00) // escaped zero (0x00 0xFF)
	}
	return dst
}
