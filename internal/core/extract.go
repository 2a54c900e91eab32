package core

import (
	"encoding/binary"
	mathbits "math/bits"

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

// extractSpec turns a search key into its dense partial key: the node's
// discriminative bits gathered MSB-first (column 0 = most significant
// discriminative bit = most significant partial-key bit). Extraction is the
// per-node hot path of every lookup; the PEXT-based layouts below mirror the
// paper's extractSingleMask / extractMultiMask* primitives.
type extractSpec struct {
	kind      extractKind
	firstByte int    // single-mask: starting byte of the 8-byte window
	mask      uint64 // single-mask: window bits to extract (big-endian window)
	offsets   []uint16
	masks     []uint8
	groups    []extractGroup // multi-mask: precomputed per-word extraction
}

// extractGroup is up to 8 (offset, mask) pairs assembled into one 64-bit
// PEXT, precomputed at node-build time so probing only gathers key bytes.
type extractGroup struct {
	maskWord uint64
	nbits    uint8
	noff     uint8
	offsets  [8]uint16
}

// buildSpec derives the smallest extraction representation for the
// discriminative bit positions d (ascending).
func buildSpec(d []uint16) extractSpec {
	first := int(d[0]) >> 3
	last := int(d[len(d)-1])
	if last-first*8 < 64 {
		var mask uint64
		for _, p := range d {
			mask |= 1 << (63 - (int(p) - first*8))
		}
		return extractSpec{kind: extractSingle, firstByte: first, mask: mask}
	}
	var spec extractSpec
	for _, p := range d {
		b := p >> 3
		if len(spec.offsets) == 0 || spec.offsets[len(spec.offsets)-1] != b {
			spec.offsets = append(spec.offsets, b)
			spec.masks = append(spec.masks, 0)
		}
		spec.masks[len(spec.masks)-1] |= 1 << (7 - (p & 7))
	}
	switch {
	case len(spec.offsets) <= 8:
		spec.kind = extractMulti8
	case len(spec.offsets) <= 16:
		spec.kind = extractMulti16
	default:
		spec.kind = extractMulti32
	}
	for g := 0; g < len(spec.offsets); g += 8 {
		end := g + 8
		if end > len(spec.offsets) {
			end = len(spec.offsets)
		}
		var eg extractGroup
		for i := g; i < end; i++ {
			sh := uint(56 - 8*(i-g))
			eg.maskWord |= uint64(spec.masks[i]) << sh
			eg.offsets[i-g] = spec.offsets[i]
		}
		eg.noff = uint8(end - g)
		eg.nbits = uint8(mathbits.OnesCount64(eg.maskWord))
		spec.groups = append(spec.groups, eg)
	}
	return spec
}

// extract gathers the discriminative bits of k into a dense partial key.
func (s *extractSpec) extract(k []byte) uint32 {
	if s.kind == extractSingle {
		return uint32(bits.Pext64(beWindow(k, s.firstByte), s.mask))
	}
	return s.extractMulti(k)
}

// extractMulti is the multi-mask half of extract: one PEXT per group,
// concatenated.
func (s *extractSpec) extractMulti(k []byte) uint32 {
	var pk uint32
	for gi := range s.groups {
		g := &s.groups[gi]
		pk = pk<<g.nbits | uint32(bits.Pext64(g.gather(k), g.maskWord))
	}
	return pk
}

// gather loads the group's key bytes into one big-endian word, the word
// its maskWord extracts from; bytes past the end of k read as zero.
func (g *extractGroup) gather(k []byte) uint64 {
	var w uint64
	for i := 0; i < int(g.noff); i++ {
		w |= uint64(key.Byte(k, int(g.offsets[i]))) << (56 - 8*i)
	}
	return w
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
