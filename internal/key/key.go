// Package key defines the bit-addressing conventions shared by all trie
// structures in this repository.
//
// Keys are byte strings compared lexicographically. Bit positions are
// absolute: bit 0 is the most significant bit of byte 0, bit 8i+j is bit j
// (MSB-first) of byte i. Bits past the end of a key read as 0, which makes
// every operation total; key sets must still be prefix-free for the tries to
// be able to separate them (fixed-length keys are, and the string wrappers
// in the public API append a 0x00 terminator).
package key

import (
	"bytes"
	"encoding/binary"
	mathbits "math/bits"
)

// Bit returns bit pos of k (0 = MSB of byte 0). Positions past the end of
// the key read as 0.
func Bit(k []byte, pos int) uint {
	byteIdx := pos >> 3
	if byteIdx >= len(k) {
		return 0
	}
	return uint(k[byteIdx]>>(7-uint(pos&7))) & 1
}

// Byte returns byte i of k, or 0 past the end.
func Byte(k []byte, i int) byte {
	if i >= len(k) {
		return 0
	}
	return k[i]
}

// MismatchBit returns the absolute position of the first bit where a and b
// differ, treating both as padded with infinite zero bits, and false if the
// padded keys are identical (i.e. one is the other plus trailing zero
// bytes — for prefix-free key sets this means a == b).
func MismatchBit(a, b []byte) (int, bool) {
	n := min(len(a), len(b))
	i := 0
	// Word-at-a-time over the shared prefix: read big-endian, the first
	// word that differs holds the mismatch at its highest set XOR bit.
	for ; i+8 <= n; i += 8 {
		if x := binary.BigEndian.Uint64(a[i:]) ^ binary.BigEndian.Uint64(b[i:]); x != 0 {
			return i*8 + mathbits.LeadingZeros64(x), true
		}
	}
	for ; i < n; i++ {
		if x := a[i] ^ b[i]; x != 0 {
			return i*8 + mathbits.LeadingZeros8(x), true
		}
	}
	// One key is a byte-prefix of the other: the first 1-bit of the longer
	// tail is the mismatch (zero padding on the shorter side).
	longer := a
	if len(b) > len(a) {
		longer = b
	}
	for ; i < len(longer); i++ {
		if longer[i] != 0 {
			return i*8 + mathbits.LeadingZeros8(longer[i]), true
		}
	}
	return 0, false
}

// Equal reports whether a and b are equal as zero-padded bit strings. The
// common equal-length case is a single vectorized comparison; it is the
// fast path of index lookups' final false-positive check.
func Equal(a, b []byte) bool {
	if len(a) == len(b) {
		return bytes.Equal(a, b)
	}
	n := len(a)
	longer := b
	if len(b) < n {
		n = len(b)
		longer = a
	}
	if !bytes.Equal(a[:n], b[:n]) {
		return false
	}
	for _, c := range longer[n:] {
		if c != 0 {
			return false
		}
	}
	return true
}

// Compare compares a and b as zero-padded bit strings: lexicographic byte
// comparison where a shorter key is extended with zero bytes. Returns
// -1, 0, +1. Note this differs from bytes.Compare only when one key is a
// proper prefix of the other followed by zero bytes.
func Compare(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if c := bytes.Compare(a[:n], b[:n]); c != 0 {
		return c
	}
	longer := a
	sign := 1
	if len(b) > len(a) {
		longer = b
		sign = -1
	}
	for i := n; i < len(longer); i++ {
		if longer[i] != 0 {
			return sign
		}
	}
	return 0
}
