// Package tidstore provides the tuple store the index structures resolve
// keys from: the paper stores 8-byte tuple identifiers in its indexes and
// loads the referenced tuple (whose first attribute is the key) whenever a
// full key comparison is needed. Store is the minimal equivalent: an
// append-only arena mapping dense TIDs to immutable keys.
//
// That load is the last dependent access of every lookup and insert, so
// the store keeps it to one wherever it can: while all keys share one
// width w — integer keys, fixed-width columns, hashes — key tid is the w
// bytes at tid*w and no per-key offset is kept. The first key of another
// width builds the offset table once, and from then on a key is an offset
// load followed by the data load.
package tidstore

import (
	"encoding/binary"
	"fmt"
)

const maxKeyLen = 1<<13 - 1 // matches core.MaxKeyLen

// Store is an append-only TID → key arena. The zero value is ready to use.
// It is safe for concurrent readers once populated; Add must not race with
// other calls.
//
// Keys lie back to back in data. While every key added has the same width
// w, offs is nil and Key addresses data by stride; the first Add of a key
// of another width fills offs for the keys already stored, and every later
// Key goes through it.
type Store struct {
	data []byte
	offs []uint64 // offset<<13 | length; nil while all keys are w bytes
	n    uint64   // number of keys
	w    uint64   // the common key width while offs is nil
}

// Add appends k and returns its TID. Keys are copied.
func (s *Store) Add(k []byte) uint64 {
	if len(k) > maxKeyLen {
		panic(fmt.Sprintf("tidstore: key length %d exceeds %d", len(k), maxKeyLen))
	}
	if s.n == 0 {
		s.w = uint64(len(k))
	}
	if s.offs == nil && uint64(len(k)) != s.w {
		s.offs = make([]uint64, s.n, max(2*s.n, 16))
		for i := range s.offs {
			s.offs[i] = uint64(i)*s.w<<13 | s.w
		}
	}
	if s.offs != nil {
		s.offs = append(s.offs, uint64(len(s.data))<<13|uint64(len(k)))
	}
	s.data = append(s.data, k...)
	s.n++
	return s.n - 1
}

// AddString is Add for string keys.
func (s *Store) AddString(k string) uint64 { return s.Add([]byte(k)) }

// Key returns the key stored under tid, which must have been returned by
// Add. The result aliases the arena and must not be modified. The buf
// parameter exists to satisfy the Loader signatures of the index packages;
// it is unused.
func (s *Store) Key(tid uint64, _ []byte) []byte {
	if s.offs == nil {
		// data's capacity runs past the last key, so the count, not the
		// slice expression, is what rejects a TID that was never added.
		if tid >= s.n {
			panicTID(tid, s.n)
		}
		off := tid * s.w
		return s.data[off : off+s.w]
	}
	e := s.offs[tid]
	off, n := e>>13, e&maxKeyLen
	return s.data[off : off+n]
}

//go:noinline
func panicTID(tid, n uint64) {
	panic(fmt.Sprintf("tidstore: TID %d out of range [0, %d)", tid, n))
}

// Len returns the number of stored keys.
func (s *Store) Len() int { return int(s.n) }

// Bytes returns the total size of the stored raw keys, the paper's
// "raw key size" baseline in Figure 9.
func (s *Store) Bytes() int { return len(s.data) }

// Uint64Key encodes a 63-bit integer as its order-preserving 8-byte
// big-endian key into buf, the paper's embedded-key convention for fixed
// size keys up to 8 bytes.
func Uint64Key(tid uint64, buf []byte) []byte {
	buf = append(buf[:0], 0, 0, 0, 0, 0, 0, 0, 0)
	binary.BigEndian.PutUint64(buf, tid)
	return buf
}
