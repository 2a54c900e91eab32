// Package bits provides the low-level data-parallel primitives HOT's node
// implementation is built on: the fused node search of the paper's Section
// 4.3 (PEXT the search key's discriminative bits, compare them against
// every partial key at once, bit-scan the comply mask), PEXT itself, the
// prefix-match kernels of the insert path and fixed-width bit packing.
//
// On amd64 CPUs with BMI2 and LZCNT the search and PEXT run as native
// instructions (bits_amd64.s), chosen once at start-up from CPUID.
// Everywhere else they run as a table-driven software PEXT plus SWAR
// (SIMD-within-a-register) comply kernels; that portable path is also the
// oracle the native one is fuzzed against.
//
// Prefetch is the one memory hint: the trie's descent issues it on a
// child node's block as soon as it has loaded the child pointer, so the
// block's later lines (the value a search picks, a writer's block copy)
// load alongside the header line instead of after it. It is
// PREFETCHT0 on amd64 and a no-op everywhere else.
//
// Partial-key arrays are byte-packed little-endian lanes (8, 16 or 32 bits
// wide) padded to a multiple of 8 bytes, so every kernel runs on whole
// 64-bit words and none reads past the end of the array.
//
// All functions are allocation-free and have scalar reference
// implementations (see reference.go) used by the property tests.
package bits

import (
	"encoding/binary"
	mathbits "math/bits"
)

// PrefetchLines is the number of 64-byte cache lines Prefetch requests:
// 512 bytes, at least the largest Go size class of a leaf node's block
// (core's TestPrefetchCoversLeafBlocks), so one prefetch covers a whole
// leaf (header, partial keys, TIDs and any tail) and the first 512 bytes
// of an inner node. The amd64 kernel unrolls exactly this many
// PREFETCHT0s.
const PrefetchLines = 8

// Native reports whether Search, SearchProbe and Pext64 run as native
// instructions. It is set once at start-up from CPUID; tests and
// benchmarks clear it to drive the portable path on a host that has the
// instructions, and must restore it before anything else searches.
var Native = hasNative()

// Search returns the index of the result candidate among the n partial
// keys packed in keys as width-bit lanes (width 8, 16 or 32): the highest
// entry whose sparse partial key pk satisfies pk&probe == pk, where probe
// is Pext64(w, mask) truncated to width bits — the paper's
// retrieveResultCandidates plus bit scan reverse. It returns -1 when no
// entry complies.
//
// len(keys) must be a positive multiple of 8 holding at most 32 lanes,
// and 1 ≤ n ≤ the lanes it holds. Lanes past n are ignored, and nothing
// past len(keys) is read.
func Search(w, mask uint64, keys []byte, n, width int) int {
	return search(w, mask, keys, n, width)
}

// SearchProbe is Search with an already extracted probe, for keys whose
// discriminative bits span more than one extraction word.
func SearchProbe(probe uint32, keys []byte, n, width int) int {
	// PEXT under an all-ones mask is the identity.
	return search(uint64(probe), ^uint64(0), keys, n, width)
}

// searchGo is the portable Search.
func searchGo(w, mask uint64, keys []byte, n, width int) int {
	probe := pextGo(w, mask)
	var m uint32
	switch width {
	case 8:
		m = Comply8(keys, n, uint8(probe))
	case 16:
		m = Comply16(keys, n, uint16(probe))
	default:
		m = Comply32(keys, n, uint32(probe))
	}
	return 31 - mathbits.LeadingZeros32(m)
}

// Pext64 extracts the bits of v selected by mask and packs them into the
// low bits of the result, lowest mask bit first — the semantics of the x86
// BMI2 PEXT instruction.
func Pext64(v, mask uint64) uint64 {
	return pext(v, mask)
}

// Pext32 is Pext64 restricted to 32-bit operands.
func Pext32(v, mask uint32) uint32 {
	return uint32(Pext64(uint64(v), uint64(mask)))
}

// pextTab[m][v] packs the bits of byte v selected by mask m into the low
// bits (LSB-first), the byte-wise building block of the software PEXT.
var pextTab [256][256]uint8

func init() {
	for m := 0; m < 256; m++ {
		for v := 0; v < 256; v++ {
			var e uint8
			out := 0
			for bit := 0; bit < 8; bit++ {
				if m&(1<<bit) != 0 {
					if v&(1<<bit) != 0 {
						e |= 1 << out
					}
					out++
				}
			}
			pextTab[m][v] = e
		}
	}
}

// pextGo is the portable Pext64: a shift and a mask when the mask bits
// are contiguous (a dense key region's common case), otherwise byte-wise
// lookup tables.
func pextGo(v, mask uint64) uint64 {
	tz := uint(mathbits.TrailingZeros64(mask))
	if run := mask >> tz; run&(run+1) == 0 {
		return v >> tz & run
	}
	var res uint64
	out := 0
	for mask != 0 {
		if mb := uint8(mask); mb != 0 {
			res |= uint64(pextTab[mb][uint8(v)]) << out
			out += mathbits.OnesCount8(mb)
		}
		mask >>= 8
		v >>= 8
	}
	return res
}

const (
	lo8  = 0x0101010101010101
	hi8  = 0x8080808080808080
	lo16 = 0x0001000100010001
	hi16 = 0x8000800080008000
	lo32 = 0x0000000100000001
	hi32 = 0x8000000080000000
)

// zeroBytes8 returns a word with 0x80 set in every byte lane of x that is
// exactly zero. The (x|hi)-lo form keeps every lane's subtraction local
// (each lane is ≥ 0x80 before subtracting 1, so no borrow crosses lanes),
// making the per-lane markers exact — unlike the shorter (x-lo)&^x&hi
// trick, which is only reliable up to the first zero lane.
func zeroBytes8(x uint64) uint64 {
	return hi8 & ^(x | ((x | hi8) - lo8))
}

func zeroLanes16(x uint64) uint64 {
	return hi16 & ^(x | ((x | hi16) - lo16))
}

func zeroLanes32(x uint64) uint64 {
	return hi32 & ^(x | ((x | hi32) - lo32))
}

// movemask8 gathers the per-lane 0x80 markers of z into one bit per lane
// (lane 0 → bit 0), the SWAR analogue of _mm256_movemask_epi8. The magic
// multiplier places lane j's marker at bit 56+j; all cross terms land at
// pairwise-distinct lower positions, so no carries reach the result window.
func movemask8(z uint64) uint32 {
	return uint32(((z >> 7) * 0x0102040810204080) >> 56)
}

// movemask16 gathers the four per-lane 0x8000 markers (lane 0 → bit 0).
func movemask16(z uint64) uint32 {
	return uint32(((z>>15)*0x0001000200040008)>>48) & 0xF
}

// movemask32 gathers the two per-lane 0x80000000 markers (lane 0 → bit 0).
func movemask32(z uint64) uint32 {
	return uint32(z>>31)&1 | uint32(z>>62)&2
}

// Comply8 computes the HOT "comply" mask over n 8-bit sparse partial keys
// packed in pks (padded to a multiple of 8 bytes): bit i of the result is
// set iff pks[i]&probe == pks[i]. It is the portable compare of Search.
func Comply8(pks []byte, n int, probe uint8) uint32 {
	probeW := uint64(probe) * lo8
	var mask uint32
	for i := 0; i < n; i += 8 {
		w := binary.LittleEndian.Uint64(pks[i:])
		mask |= movemask8(zeroBytes8((w&probeW)^w)) << i
	}
	return mask & lowMask(n)
}

// Comply16 is Comply8 for 16-bit partial keys (lane i at pks[2i:2i+2],
// little-endian).
func Comply16(pks []byte, n int, probe uint16) uint32 {
	probeW := uint64(probe) * lo16
	var mask uint32
	for i := 0; i < n; i += 4 {
		w := binary.LittleEndian.Uint64(pks[2*i:])
		mask |= movemask16(zeroLanes16((w&probeW)^w)) << i
	}
	return mask & lowMask(n)
}

// Comply32 is Comply8 for 32-bit partial keys.
func Comply32(pks []byte, n int, probe uint32) uint32 {
	probeW := uint64(probe) * lo32
	var mask uint32
	for i := 0; i < n; i += 2 {
		w := binary.LittleEndian.Uint64(pks[4*i:])
		mask |= movemask32(zeroLanes32((w&probeW)^w)) << i
	}
	return mask & lowMask(n)
}

// PrefixMatch8 returns the mask of entries whose 8-bit partial key,
// restricted to prefixMask, equals prefix — used to find the affected
// entries of an insert (the subtree below the mismatching BiNode).
func PrefixMatch8(pks []byte, n int, prefix, prefixMask uint8) uint32 {
	maskW := uint64(prefixMask) * lo8
	prefW := uint64(prefix) * lo8
	var mask uint32
	for i := 0; i < n; i += 8 {
		w := binary.LittleEndian.Uint64(pks[i:])
		mask |= movemask8(zeroBytes8((w&maskW)^prefW)) << i
	}
	return mask & lowMask(n)
}

// PrefixMatch16 is PrefixMatch8 for 16-bit partial keys.
func PrefixMatch16(pks []byte, n int, prefix, prefixMask uint16) uint32 {
	maskW := uint64(prefixMask) * lo16
	prefW := uint64(prefix) * lo16
	var mask uint32
	for i := 0; i < n; i += 4 {
		w := binary.LittleEndian.Uint64(pks[2*i:])
		mask |= movemask16(zeroLanes16((w&maskW)^prefW)) << i
	}
	return mask & lowMask(n)
}

// PrefixMatch32 is PrefixMatch8 for 32-bit partial keys.
func PrefixMatch32(pks []byte, n int, prefix, prefixMask uint32) uint32 {
	maskW := uint64(prefixMask) * lo32
	prefW := uint64(prefix) * lo32
	var mask uint32
	for i := 0; i < n; i += 2 {
		w := binary.LittleEndian.Uint64(pks[4*i:])
		mask |= movemask32(zeroLanes32((w&maskW)^prefW)) << i
	}
	return mask & lowMask(n)
}

// lowMask returns a mask with the low n bits set (n ≤ 32).
func lowMask(n int) uint32 {
	if n >= 32 {
		return ^uint32(0)
	}
	return 1<<uint(n) - 1
}
