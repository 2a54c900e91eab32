package bits

import "encoding/binary"

// This file contains straightforward scalar reference implementations of
// the search, PEXT and SWAR kernels. They define the expected semantics
// for the property tests and the differential fuzz target, and serve as
// the baseline of the SWAR-vs-scalar ablation benchmark.

// Comply8Scalar is the scalar reference for Comply8.
func Comply8Scalar(pks []byte, n int, probe uint8) uint32 {
	var mask uint32
	for i := 0; i < n; i++ {
		if pk := pks[i]; pk&probe == pk {
			mask |= 1 << i
		}
	}
	return mask
}

// Comply16Scalar is the scalar reference for Comply16.
func Comply16Scalar(pks []byte, n int, probe uint16) uint32 {
	var mask uint32
	for i := 0; i < n; i++ {
		if pk := binary.LittleEndian.Uint16(pks[2*i:]); pk&probe == pk {
			mask |= 1 << i
		}
	}
	return mask
}

// Comply32Scalar is the scalar reference for Comply32.
func Comply32Scalar(pks []byte, n int, probe uint32) uint32 {
	var mask uint32
	for i := 0; i < n; i++ {
		if pk := binary.LittleEndian.Uint32(pks[4*i:]); pk&probe == pk {
			mask |= 1 << i
		}
	}
	return mask
}

// PrefixMatch8Scalar is the scalar reference for PrefixMatch8.
func PrefixMatch8Scalar(pks []byte, n int, prefix, prefixMask uint8) uint32 {
	var mask uint32
	for i := 0; i < n; i++ {
		if pks[i]&prefixMask == prefix {
			mask |= 1 << i
		}
	}
	return mask
}

// PrefixMatch16Scalar is the scalar reference for PrefixMatch16.
func PrefixMatch16Scalar(pks []byte, n int, prefix, prefixMask uint16) uint32 {
	var mask uint32
	for i := 0; i < n; i++ {
		if binary.LittleEndian.Uint16(pks[2*i:])&prefixMask == prefix {
			mask |= 1 << i
		}
	}
	return mask
}

// PrefixMatch32Scalar is the scalar reference for PrefixMatch32.
func PrefixMatch32Scalar(pks []byte, n int, prefix, prefixMask uint32) uint32 {
	var mask uint32
	for i := 0; i < n; i++ {
		if binary.LittleEndian.Uint32(pks[4*i:])&prefixMask == prefix {
			mask |= 1 << i
		}
	}
	return mask
}

// Pext64Reference is a bit-at-a-time reference for Pext64.
func Pext64Reference(v, mask uint64) uint64 {
	var res uint64
	var out uint
	for bit := 0; bit < 64; bit++ {
		if mask&(1<<bit) != 0 {
			if v&(1<<bit) != 0 {
				res |= 1 << out
			}
			out++
		}
	}
	return res
}
