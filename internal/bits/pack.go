package bits

import (
	"encoding/binary"
	mathbits "math/bits"
)

// Fixed-width bit packing, the storage kernel behind the snapshot block
// codec and the packed integer sets: n values of w bits each are laid out
// back to back, LSB-first, in ceil(n*w/8) bytes. Width 0 is legal and
// packs every value as zero in zero bytes — the degenerate case of a run
// of equal values whose common base is stored out of band.

// PackedLen returns the byte length of n packed width-bit values.
func PackedLen(n int, width uint) int {
	return (n*int(width) + 7) / 8
}

// PackWidth returns the smallest width that can represent max (0 for 0).
func PackWidth(max uint64) uint {
	return uint(mathbits.Len64(max))
}

// AppendPacked appends vals to dst as width-bit values, LSB-first. Values
// wider than width bits are truncated to their low width bits. width must
// be at most 64.
func AppendPacked(dst []byte, vals []uint64, width uint) []byte {
	if width == 0 {
		return dst
	}
	var acc uint64
	var nbits uint // bits of acc in use, always < 64 here
	for _, v := range vals {
		if width < 64 {
			v &= 1<<width - 1
		}
		acc |= v << nbits
		if nbits+width >= 64 {
			dst = binary.LittleEndian.AppendUint64(dst, acc)
			spilled := 64 - nbits // bits of v that fit in acc
			acc = 0
			if spilled < width {
				acc = v >> spilled
			}
			nbits = nbits + width - 64
		} else {
			nbits += width
		}
	}
	for nbits > 0 {
		dst = append(dst, byte(acc))
		acc >>= 8
		if nbits >= 8 {
			nbits -= 8
		} else {
			nbits = 0
		}
	}
	return dst
}

// PackedAt extracts value i from a packed stream written by AppendPacked.
// src must hold at least PackedLen(i+1, width) bytes. A value of at most
// 56 bits spans at most 8 bytes from its first, so while 8 remain it is
// one load, a shift and a mask; the stream's tail and wider values take
// the byte loop.
func PackedAt(src []byte, i int, width uint) uint64 {
	bit := uint64(i) * uint64(width)
	pos := bit >> 3
	shift := uint(bit & 7)
	if width <= 56 && pos+8 <= uint64(len(src)) {
		return binary.LittleEndian.Uint64(src[pos:]) >> shift & (1<<width - 1)
	}
	if width == 0 {
		return 0
	}
	var v uint64
	var got uint
	for got < width {
		v |= uint64(src[pos]>>shift) << got
		got += 8 - shift
		shift = 0
		pos++
	}
	if width < 64 {
		v &= 1<<width - 1
	}
	return v
}
