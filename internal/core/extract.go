package core

import (
	"encoding/binary"

	"github.com/hotindex/hot/internal/bits"
	"github.com/hotindex/hot/internal/key"
)

// extractKind selects one of the paper's bit-position representations
// (Figure 6): a single 64-bit mask over 8 consecutive key bytes, or 8/16/32
// (byte offset, 8-bit mask) pairs. Together with the three partial-key
// widths this yields the paper's 9 physical node layouts.
type extractKind uint8

const (
	extractSingle extractKind = iota
	extractMulti8
	extractMulti16
	extractMulti32
)

// setSpec derives the smallest extraction representation for the
// discriminative bit positions d (ascending) into nd's header, replacing
// whatever spec it held. Extraction turns a search key into its dense
// partial key: the node's discriminative bits gathered MSB-first (column 0
// = most significant discriminative bit = most significant partial-key
// bit). It is the per-node hot path of every lookup; the PEXT-based
// layouts mirror the paper's extractSingleMask / extractMultiMask8
// primitives. The spec is the node's only record of d (see node.dbits),
// except that a multi-mask word holds only the first 8 (offset, mask)
// pairs: multi16 and multi32 nodes keep the positions in further key bytes
// in their block's tail, which the caller stores (setTail), and extract
// them one by one.
func (nd *node) setSpec(d []uint16) {
	nd.mask, nd.offs, nd.noff = 0, [8]uint16{}, 0
	first := int(d[0]) >> 3
	if int(d[len(d)-1])-first*8 < 64 {
		nd.kind = extractSingle
		nd.offs[0] = uint16(first)
		for _, p := range d {
			nd.mask |= 1 << (63 - (int(p) - first*8))
		}
		return
	}
	switch pairs := keyBytesSpanned(d); {
	case pairs <= 8:
		nd.kind = extractMulti8
	case pairs <= 16:
		nd.kind = extractMulti16
	default:
		nd.kind = extractMulti32
	}
	// One byte of the word per (offset, mask) pair, first pair highest.
	for _, p := range d {
		if b := p >> 3; nd.noff == 0 || nd.offs[nd.noff-1] != b {
			if int(nd.noff) == len(nd.offs) {
				break
			}
			nd.offs[nd.noff] = b
			nd.noff++
		}
		nd.mask |= 1 << (63 - 8*uint(nd.noff-1) - uint(p&7))
	}
}

// addSpecBit adds bit position p to a single-mask node's mask when p falls
// in the 8-byte window the node extracts from, the one the spec of its
// bits plus p would also use. It reports false, changing nothing, when
// that spec differs (p before the window's first byte or past its end,
// or a multi-mask node): the caller then re-derives it with setSpec.
func (nd *node) addSpecBit(p uint16) bool {
	off := int(p) - 8*int(nd.offs[0])
	if nd.kind != extractSingle || off < 0 || off >= 64 {
		return false
	}
	nd.mask |= 1 << (63 - off)
	return true
}

// keyBytesSpanned returns the number of distinct key bytes the bit
// positions d (ascending) fall in: a multi-mask node's (offset, mask)
// pairs.
func keyBytesSpanned(d []uint16) int {
	n, prev := 0, -1
	for _, p := range d {
		if b := int(p >> 3); b != prev {
			n, prev = n+1, b
		}
	}
	return n
}

// gather loads a multi-mask node's first 8 key bytes into one big-endian
// word, the word its mask extracts from; bytes past the end of k read as
// zero.
func (nd *node) gather(k []byte) uint64 {
	var w uint64
	for i := 0; i < int(nd.noff); i++ {
		w |= uint64(key.Byte(k, int(nd.offs[i]))) << (56 - 8*i)
	}
	return w
}

// extractMulti extracts a multi-mask node's dense partial key: the bits
// in its first 8 key bytes through the word, those of any further bytes
// (multi16, multi32) one by one.
func (nd *node) extractMulti(k []byte) uint32 {
	pk := uint32(bits.Pext64(nd.gather(k), nd.mask))
	for _, p := range nd.tail() {
		pk = pk<<1 | uint32(key.Bit(k, int(p)))
	}
	return pk
}

// beWindow loads key bytes [first, first+8) as a big-endian word, padding
// past the end of the key with zeros.
func beWindow(k []byte, first int) uint64 {
	if first+8 <= len(k) {
		return binary.BigEndian.Uint64(k[first:])
	}
	if len(k) >= 8 {
		// The window runs off the key's end — on fixed 8-byte keys, every
		// node below the root: load the key's last 8 bytes and shift the
		// missing ones in as zeros (a shift of 64 or more yields 0).
		return binary.BigEndian.Uint64(k[len(k)-8:]) << (8 * uint(first+8-len(k)))
	}
	var w uint64
	for i := first; i < len(k); i++ {
		w |= uint64(k[i]) << (56 - 8*(i-first))
	}
	return w
}

// layoutKind identifies one of the 9 physical node layouts of Figure 6,
// used by the memory accounting and the layout-census statistics.
type layoutKind uint8

const (
	LayoutSingle8 layoutKind = iota
	LayoutSingle16
	LayoutSingle32
	LayoutMulti8x8
	LayoutMulti8x16
	LayoutMulti8x32
	LayoutMulti16x16
	LayoutMulti16x32
	LayoutMulti32x32
	numLayouts
)

var layoutNames = [numLayouts]string{
	"single/8", "single/16", "single/32",
	"multi8/8", "multi8/16", "multi8/32",
	"multi16/16", "multi16/32", "multi32/32",
}

// String returns the layout's name as used in the paper's Figure 6.
func (l layoutKind) String() string {
	if int(l) < len(layoutNames) {
		return layoutNames[l]
	}
	return "invalid"
}
