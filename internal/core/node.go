package core

import (
	"encoding/binary"
	mathbits "math/bits"
	"sync"
	"sync/atomic"
	"unsafe"

	"github.com/hotindex/hot/internal/bits"
)

// slot is one node entry value: either a leaf holding a TID (child == nil)
// or a link to a child node. Both words may change in place after the node
// is published — by a ROWEX writer only while it holds the node's lock, and
// always through atomic operations, so wait-free readers observe either the
// old or the new value: tid when an upsert of the leaf's key stores its new
// TID, child on leaf-node pushdown, copy-on-write child replacement and
// intermediate node creation.
// child and tid are plain words rather than atomic.Pointer[node] and
// atomic.Uint64 so that slots are plain copyable values during node
// construction; child always holds either nil or a *node, so the GC traces
// it precisely. A 64-bit atomic needs an 8-byte aligned word on 32-bit
// platforms too, so tid comes first and a slot is 16 bytes everywhere:
// every tid in a node's slot array is then 8-byte aligned.
type slot struct {
	tid   TID // accessed atomically after publication
	_     [8 - unsafe.Sizeof(uintptr(0))]byte
	child unsafe.Pointer // *node, accessed atomically after publication
}

func leafSlot(tid TID) slot {
	return slot{tid: tid}
}

func childSlot(c *node) slot {
	return slot{child: unsafe.Pointer(c)}
}

// loadChild returns the slot's child node, nil when the slot is a leaf.
func (s *slot) loadChild() *node {
	return (*node)(atomic.LoadPointer(&s.child))
}

// storeChild publishes a new child node in place.
func (s *slot) storeChild(c *node) {
	atomic.StorePointer(&s.child, unsafe.Pointer(c))
}

// loadTID returns the leaf's TID (a plain load on amd64).
func (s *slot) loadTID() TID {
	return atomic.LoadUint64(&s.tid)
}

// storeTID publishes a leaf's new TID in place.
func (s *slot) storeTID(tid TID) {
	atomic.StoreUint64(&s.tid, tid)
}

// subtreeHeight is the paper's h() of whatever hangs in the slot: 0 for a
// leaf entry, the node height for a child link.
func (s *slot) subtreeHeight() uint8 {
	if c := s.loadChild(); c != nil {
		return c.height
	}
	return 0
}

// node is a HOT compound node: a linearized k-constrained binary Patricia
// trie with 2..MaxFanout entries in ascending key order. All fields except
// the slots' child pointers and TIDs, the lock and the obsolete flag are
// immutable after the node is published: an upsert of a present key stores
// its TID in place, while inserts and deletes replace the whole node
// (copy-on-write).
type node struct {
	mu       sync.Mutex  // ROWEX writer lock (ignored by readers)
	obsolete atomic.Bool // set when replaced by a copy
	height   uint8       // paper's h(n): 1 + max height of child nodes, 1 if leaves only
	n        uint8       // number of entries
	width    uint8       // partial key width in bits: 8, 16 or 32
	spec     extractSpec
	dbits    []uint16 // discriminative bit positions, ascending; len in [1, MaxFanout-1]
	keys     []byte   // n little-endian lanes of width bits, padded to 8-byte multiple
	slots    []slot   // len == n
}

// pkWidth returns the narrowest partial-key width that fits nbits columns.
func pkWidth(nbits int) uint8 {
	switch {
	case nbits <= 8:
		return 8
	case nbits <= 16:
		return 16
	default:
		return 32
	}
}

// newNode builds a node from ascending discriminative bit positions d,
// sparse partial keys pks (dense-packed: column i at bit len(d)-1-i) and
// entry slots. All inputs are copied into exact-fit storage, so callers
// may pass scratch buffers; storage is drawn from pool when one is given.
func newNode(pool *nodePool, height uint8, d []uint16, pks []uint32, slots []slot) *node {
	width := pkWidth(len(d))
	keyBytes := (len(pks)*int(width)/8 + 7) / 8 * 8
	nd := pool.prepare(len(slots), len(d), keyBytes)
	nd.height = height
	nd.n = uint8(len(slots))
	nd.width = width
	nd.spec = buildSpec(d)
	copy(nd.dbits, d)
	copy(nd.slots, slots)
	for i, pk := range pks {
		switch width {
		case 8:
			nd.keys[i] = uint8(pk)
		case 16:
			binary.LittleEndian.PutUint16(nd.keys[2*i:], uint16(pk))
		default:
			binary.LittleEndian.PutUint32(nd.keys[4*i:], pk)
		}
	}
	return nd
}

// pk returns entry i's sparse partial key widened to 32 bits.
func (nd *node) pk(i int) uint32 {
	switch nd.width {
	case 8:
		return uint32(nd.keys[i])
	case 16:
		return uint32(binary.LittleEndian.Uint16(nd.keys[2*i:]))
	default:
		return binary.LittleEndian.Uint32(nd.keys[4*i:])
	}
}

// pks materializes all partial keys into dst (used by structure
// modifications, which operate on uint32 regardless of storage width).
func (nd *node) pks(dst []uint32) []uint32 {
	dst = dst[:0]
	n := int(nd.n)
	switch nd.width {
	case 8:
		for i := 0; i < n; i++ {
			dst = append(dst, uint32(nd.keys[i]))
		}
	case 16:
		for i := 0; i < n; i++ {
			dst = append(dst, uint32(binary.LittleEndian.Uint16(nd.keys[2*i:])))
		}
	default:
		for i := 0; i < n; i++ {
			dst = append(dst, binary.LittleEndian.Uint32(nd.keys[4*i:]))
		}
	}
	return dst
}

// search returns the index of the result candidate for k: the highest entry
// whose sparse partial key complies with the extracted dense key (the
// paper's retrieveResultCandidates + bit scan reverse). Entry 0's partial
// key is always 0 and always complies, so the comply mask is never empty.
//
// Single-mask and multi8 nodes (one extraction group) hand bits.Search the
// key word and the mask to extract with, so extraction, compare and bit
// scan are one call per node visit; multi16 and multi32 nodes extract
// group by group first.
func (nd *node) search(k []byte) int {
	sp := &nd.spec
	switch sp.kind {
	case extractSingle:
		return bits.Search(beWindow(k, sp.firstByte), sp.mask, nd.keys, int(nd.n), int(nd.width))
	case extractMulti8:
		g := &sp.groups[0]
		return bits.Search(g.gather(k), g.maskWord, nd.keys, int(nd.n), int(nd.width))
	}
	return bits.SearchProbe(sp.extractMulti(k), nd.keys, int(nd.n), int(nd.width))
}

// complyRangeOf returns the contiguous index range [lo, hi] of entries whose
// sparse partial key equals prefix on the columns selected by prefixMask.
// Insertion uses it to find the affected entries (the subtree below the
// mismatching BiNode); the range always contains the search candidate, so
// the match mask is never empty when called with a prefix taken from an
// existing entry.
func (nd *node) complyRangeOf(prefix, prefixMask uint32) (lo, hi int) {
	var m uint32
	switch nd.width {
	case 8:
		m = bits.PrefixMatch8(nd.keys, int(nd.n), uint8(prefix), uint8(prefixMask))
	case 16:
		m = bits.PrefixMatch16(nd.keys, int(nd.n), uint16(prefix), uint16(prefixMask))
	default:
		m = bits.PrefixMatch32(nd.keys, int(nd.n), prefix, prefixMask)
	}
	lo = mathbits.TrailingZeros32(m)
	hi = 31 - mathbits.LeadingZeros32(m)
	return lo, hi
}

// pathMaxBit returns the largest discriminative bit position on the
// conceptual path from the node's root BiNode to entry idx. The deepest
// BiNode on that path is the divergence point with the nearest neighbour
// entry, so it is the higher of the two adjacent divergence columns.
func (nd *node) pathMaxBit(idx int) int {
	ncols := len(nd.dbits)
	best := -1
	if idx > 0 {
		x := nd.pk(idx-1) ^ nd.pk(idx)
		if b := int(nd.dbits[ncols-1-(31-mathbits.LeadingZeros32(x))]); b > best {
			best = b
		}
	}
	if idx+1 < int(nd.n) {
		x := nd.pk(idx) ^ nd.pk(idx+1)
		if b := int(nd.dbits[ncols-1-(31-mathbits.LeadingZeros32(x))]); b > best {
			best = b
		}
	}
	return best
}

// columnOf returns the index of absolute bit position p in nd.dbits and
// whether it is present; when absent, the returned index is where p would
// be inserted.
func (nd *node) columnOf(p uint16) (int, bool) {
	d := nd.dbits
	lo, hi := 0, len(d)
	for lo < hi {
		mid := (lo + hi) / 2
		if d[mid] < p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(d) && d[lo] == p
}

// maxChildHeight returns the maximum height among child nodes reachable
// from slots (0 when all entries are leaves).
func maxChildHeight(slots []slot) uint8 {
	var h uint8
	for i := range slots {
		if sh := slots[i].subtreeHeight(); sh > h {
			h = sh
		}
	}
	return h
}

// layout identifies the node's physical layout (Figure 6) for statistics
// and memory accounting.
func (nd *node) layout() layoutKind {
	switch nd.spec.kind {
	case extractSingle:
		switch nd.width {
		case 8:
			return LayoutSingle8
		case 16:
			return LayoutSingle16
		default:
			return LayoutSingle32
		}
	case extractMulti8:
		switch nd.width {
		case 8:
			return LayoutMulti8x8
		case 16:
			return LayoutMulti8x16
		default:
			return LayoutMulti8x32
		}
	case extractMulti16:
		if nd.width == 16 {
			return LayoutMulti16x16
		}
		return LayoutMulti16x32
	default:
		return LayoutMulti32x32
	}
}

// paperBytes returns the node's size in the paper's C++ layout: an 8-byte
// header (height, type, lock, used-entries mask), the bit-position
// representation (single mask: 1-byte offset + 8-byte mask; multi mask: one
// byte offset + one 8-bit mask per pair), n partial keys of the node's
// width and n 8-byte values.
func (nd *node) paperBytes() int {
	sz := 8
	if nd.spec.kind == extractSingle {
		sz += 1 + 8
	} else {
		sz += 2 * len(nd.spec.offsets)
	}
	sz += int(nd.n) * int(nd.width) / 8
	sz += int(nd.n) * 8
	return sz
}

// goBytes estimates the node's actual Go heap footprint: the node struct
// itself (mutex, atomics, inline spec, slice headers) plus the backing
// arrays of every slice hanging off it — the spec's offset/mask pairs and
// the precomputed extraction groups of multi-mask nodes, the bit
// positions, the key array and the slots.
func (nd *node) goBytes() int {
	sz := int(unsafe.Sizeof(*nd))
	sz += 2 * len(nd.spec.offsets)
	sz += len(nd.spec.masks)
	sz += int(unsafe.Sizeof(extractGroup{})) * len(nd.spec.groups)
	sz += 2 * len(nd.dbits)
	sz += len(nd.keys)
	sz += int(unsafe.Sizeof(slot{})) * len(nd.slots)
	return sz
}
