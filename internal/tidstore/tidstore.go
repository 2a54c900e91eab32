// Package tidstore provides the tuple store the index structures resolve
// keys from: the paper stores 8-byte tuple identifiers in its indexes and
// loads the referenced tuple (whose first attribute is the key) whenever a
// full key comparison is needed. Store is the minimal equivalent: an
// append-only arena mapping dense TIDs to immutable keys.
//
// That load is the last dependent access of every lookup and insert, so
// the store keeps it to one: while all keys share one width w — integer
// keys, fixed-width columns, hashes — key tid is the w bytes at tid*w.
// Keys of several widths sit in fixed-width slots instead, key tid in the
// slot at tid*sw after its length byte; only a key too long for its slot
// is a second load, through the slot into an arena of its own. Either way
// TIDs stay dense.
package tidstore

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

const (
	maxKeyLen = 1<<13 - 1 // matches core.MaxKeyLen
	maxSlot   = 64        // the widest slot: one cache line
	longMark  = 0xff      // a slot's first byte when its key lies in long
)

// Store is an append-only TID → key arena. The zero value is ready to use.
// It is safe for concurrent readers once populated; Add must not race with
// other calls.
//
// While every key added has the same width w, sw is 0 and the keys lie
// back to back in data, addressed by stride. The first Add of a key of
// another width lays the keys out again as slots of sw bytes, the
// narrowest of 16, 32 and 64 that holds w and a length byte. A slot is
// the key's length and the key, or, for a key too long for it, longMark
// and the key's offset<<13 | length in long. Such keys take two loads, so
// once long holds a sixteenth of the slots' bytes (and 16 slots' worth),
// the next one lays the store out at the width that holds it; at 64 bytes
// the rest go to long. A lay-out writes new arenas and leaves the old ones
// as they were, so a key slice handed out earlier stays valid.
//
// Every Key reads the header, so it is kept within 64 bytes, one cache
// line in its size class (hence long behind a pointer). An arena past
// 32 KB is a large object, which Go's allocator places on a page
// boundary, so no slot straddles a line.
type Store struct {
	data []byte
	long *[]byte // the keys too long for their slot, back to back
	n    uint64  // number of keys
	w    uint64  // the common key width while sw is 0
	sw   uint64  // the slot width; 0 while all keys are w bytes
}

// Add appends k and returns its TID. Keys are copied.
func (s *Store) Add(k []byte) uint64 {
	if len(k) > maxKeyLen {
		panic(fmt.Sprintf("tidstore: key length %d exceeds %d", len(k), maxKeyLen))
	}
	if s.n == 0 {
		s.w = uint64(len(k))
	}
	if s.sw == 0 && uint64(len(k)) == s.w {
		s.data = append(s.data, k...)
	} else {
		if s.sw == 0 {
			s.layOut(slotWidth(s.w))
		}
		if uint64(len(k)) >= s.sw && s.sw < maxSlot && uint64(len(*s.long)) >= max(16, s.n/16)*s.sw {
			s.layOut(slotWidth(uint64(len(k))))
		}
		s.appendSlot(k)
	}
	s.n++
	return s.n - 1
}

// slotWidth returns the narrowest slot that holds a key of n bytes and its
// length byte, or the widest slot.
func slotWidth(n uint64) uint64 { return min(maxSlot, max(16, uint64(1)<<bits.Len64(n))) }

// layOut rewrites the stored keys into new arenas of sw-byte slots.
func (s *Store) layOut(sw uint64) {
	old := *s
	s.data = make([]byte, 0, max(2*s.n, 16)*sw)
	s.long, s.sw = new([]byte), sw
	for tid := range old.n {
		s.appendSlot(old.Key(tid, nil))
	}
}

// appendSlot appends k's slot, and k to long if the slot cannot hold it.
func (s *Store) appendSlot(k []byte) {
	off := len(s.data)
	s.data = append(s.data, make([]byte, s.sw)...)
	slot := s.data[off:]
	if uint64(len(k)) < s.sw {
		slot[0] = byte(len(k))
		copy(slot[1:], k)
		return
	}
	slot[0] = longMark
	binary.LittleEndian.PutUint64(slot[1:], uint64(len(*s.long))<<13|uint64(len(k)))
	*s.long = append(*s.long, k...)
}

// AddString is Add for string keys.
func (s *Store) AddString(k string) uint64 { return s.Add([]byte(k)) }

// Key returns the key stored under tid, which must have been returned by
// Add. The result aliases the arena and must not be modified. The buf
// parameter exists to satisfy the Loader signatures of the index packages;
// it is unused.
func (s *Store) Key(tid uint64, _ []byte) []byte {
	if s.sw == 0 {
		// data's capacity runs past the last key, so the count, not the
		// slice expression, is what rejects a TID that was never added.
		if tid >= s.n {
			panicTID(tid, s.n)
		}
		off := tid * s.w
		return s.data[off : off+s.w]
	}
	// As above; the count also keeps tid*sw from wrapping onto a stored
	// slot. The panic comes last so that nothing is live after it: a
	// second panicTID call followed by more code makes the compiler save
	// s and tid on every call, the stride path's included.
	if tid < s.n {
		off := tid * s.sw
		if n := uint64(s.data[off]); n != longMark {
			return s.data[off+1 : off+1+n]
		}
		e := binary.LittleEndian.Uint64(s.data[off+1:])
		off, n := e>>13, e&maxKeyLen
		return (*s.long)[off : off+n]
	}
	panicTID(tid, s.n)
	return nil
}

//go:noinline
func panicTID(tid, n uint64) {
	panic(fmt.Sprintf("tidstore: TID %d out of range [0, %d)", tid, n))
}

// Len returns the number of stored keys.
func (s *Store) Len() int { return int(s.n) }

// Bytes returns the total size of the stored raw keys, the paper's
// "raw key size" baseline in Figure 9. A slotted store counts it key by
// key.
func (s *Store) Bytes() int {
	if s.sw == 0 {
		return len(s.data)
	}
	b := 0
	for tid := range s.n {
		b += len(s.Key(tid, nil))
	}
	return b
}

// Uint64Key encodes a 63-bit integer as its order-preserving 8-byte
// big-endian key into buf, the paper's embedded-key convention for fixed
// size keys up to 8 bytes.
func Uint64Key(tid uint64, buf []byte) []byte {
	buf = append(buf[:0], 0, 0, 0, 0, 0, 0, 0, 0)
	binary.BigEndian.PutUint64(buf, tid)
	return buf
}
