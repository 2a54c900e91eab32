package core

import (
	"encoding/binary"
	mathbits "math/bits"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"github.com/hotindex/hot/internal/bits"
)

// slot is one entry of an inner node: either a leaf holding a TID (child
// == nil) or a link to a child node. It is also the value every entry
// sequence is built from (newNode, the structure modifications), for leaf
// and inner nodes alike; a leaf node stores only the tid word (see node).
// Both words may change in place after the node is published — by a ROWEX
// writer only while it holds the node's lock, and always through atomic
// operations, so wait-free readers observe either the old or the new
// value: tid when an upsert of the leaf's key stores its new TID, child on
// leaf-node pushdown, copy-on-write child replacement and intermediate
// node creation.
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

// subtreeHeight is the paper's h() of whatever hangs in s: 0 for a leaf
// entry, the node height for a child link. It reads the child word
// plainly: s is a copy, or lies in an unpublished block or in a node its
// writer holds still.
func subtreeHeight(s slot) uint8 {
	if c := (*node)(s.child); c != nil {
		return c.height
	}
	return 0
}

// node is the header of a HOT compound node: a linearized k-constrained
// binary Patricia trie with 2..MaxFanout entries in ascending key order.
// A node is one allocation, a block of its class (see nodeClass), laid out
// in the order a search touches it (Figure 6):
//
//	header  this struct, 32 bytes: the extraction spec and the sizes
//	keys    n partial keys, width bits each, padded to 8 bytes
//	values  a leaf node's n TIDs, 8 bytes each, or an inner node's n
//	        slots, 16 bytes each
//	tail    multi16 and multi32 nodes only: the bit positions past the
//	        first 8 (offset, mask) pairs, ascending
//	cold    the ROWEX lock and the obsolete flag
//
// The discriminative bit positions are not stored: the extraction spec in
// the header implies them, as in the paper's layout (see dbits and
// columnOf). Only a spec of more than 8 pairs does not fit the header, so
// multi16 and multi32 nodes, rare on real keys, take blocks of a class
// family of their own that ends in the tail.
//
// A leaf node (height 1) never takes a child: pushdown, intermediate node
// creation and child replacement all store into nodes of height > 1. So a
// leaf node's entries are bare TIDs, the paper's one 8-byte value per
// entry, and its block holds no pointer at all: the GC allocates it noscan
// and never scans it. Leaf-ness is the class's (isLeaf), not the height
// field's, so the accessors read a block by its allocation's layout
// whatever else its header says.
//
// A lookup reads the header and the keys, which start on the header's
// cache line, then one value (and a multi16 or multi32 node's tail); cold
// is for writers only. Every
// offset follows from the class, n and width, so no slice header is loaded
// on the way. All of the block except the entries' child pointers and
// TIDs and the cold part is immutable after the node is published: an
// upsert of a present key stores its TID in place, while inserts and
// deletes replace the whole node (copy-on-write). The entries are read and
// written through entry, child, storeTID, storeChild and appendSlots.
type node struct {
	// mask is the PEXT mask applied to the node's extraction word: a bit
	// per discriminative bit, in a big-endian window of 8 key bytes
	// (single mask) or over the key bytes offs names (multi mask).
	mask uint64
	// offs[0] is the single-mask window's first byte; a multi-mask node
	// gathers key bytes offs[:noff] into its word (the first 8 of its
	// bytes; see extractMulti for the rest).
	offs   [8]uint16
	noff   uint8
	kind   extractKind
	height uint8 // paper's h(n): 1 + max height of child nodes, 1 if leaves only
	n      uint8 // number of entries
	width  uint8 // partial key width in bits: 8, 16 or 32
	ncols  uint8 // number of discriminative bits, in [1, MaxFanout-1]
	cls    uint8 // the node's class: index into classes; leaf classes from leafClasses on
}

// The header fits in 32 bytes, so the keys start on its cache line.
const headerSize = 32

var _ [headerSize - unsafe.Sizeof(node{})]struct{}

const slotSize = int(unsafe.Sizeof(slot{}))

// nodeCold is the writers' state at the end of a node's block.
type nodeCold struct {
	mu       sync.Mutex  // ROWEX writer lock (ignored by readers)
	obsolete atomic.Bool // set when replaced by a copy
}

// nodeClass is one block type: every node with the same entry count,
// partial-key width, leaf-ness and tail-ness shares it. Each class is a Go
// struct type built once by reflect.StructOf, so the GC traces exactly the
// inner slots' child words and nothing else in the block, and a leaf class
// holds no pointer at all.
type nodeClass struct {
	typ   reflect.Type
	size  int     // the block's size in bytes
	cold  uintptr // offset of the nodeCold
	n     uint8   // entries
	width uint8   // partial-key width in bits
	tail  uint8   // room for tail positions; 0 outside the tail family
}

// leafClasses is the first leaf class: classes below it are inner classes,
// whose values are slots, and classes from it on are leaf classes, whose
// values are bare TIDs. A leaf class is its inner twin plus leafClasses.
const leafClasses = 128

// classes holds every block class by index, and classIndex maps a class's
// shape to its index (see classOf). A shape no class takes maps to
// noClass, whose typ is nil, so allocating it panics.
var classes, classIndex = buildClasses()

// noClass is a class index no class takes: the last inner one.
const noClass = leafClasses - 1

// classOf returns the class index of a node of n entries and the given
// partial-key width: a leaf class when leaf, of the tail family when tail.
func classOf(n int, width uint8, leaf, tail bool) uint8 {
	return classIndex[shapeIndex(n, width, leaf, tail)]
}

// shapeIndex numbers the class shapes for classIndex.
func shapeIndex(n int, width uint8, leaf, tail bool) int {
	i := (mathbits.TrailingZeros8(width)-3)*(MaxFanout+1) + n
	if tail {
		i += 3 * (MaxFanout + 1)
	}
	if leaf {
		i += 6 * (MaxFanout + 1)
	}
	return i
}

// maxCols is the number of discriminative bits a width holds: columns
// beyond it need the next width (see pkWidth).
func maxCols(width uint8) int {
	if width == 32 {
		return MaxFanout - 1
	}
	return int(width)
}

// valueSize is the size of one entry's value: a bare TID in a leaf node,
// a slot in an inner node.
func valueSize(leaf bool) int {
	if leaf {
		return tidSize
	}
	return slotSize
}

const tidSize = int(unsafe.Sizeof(TID(0)))

func buildClasses() (cs [2 * leafClasses]nodeClass, index [12 * (MaxFanout + 1)]uint8) {
	hdr := reflect.TypeOf(node{})
	for i := range index {
		index[i] = noClass
	}
	for _, leaf := range []bool{false, true} {
		value := reflect.StructField{Name: "Slots", Type: reflect.TypeOf(slot{})}
		first := 0
		if leaf {
			value = reflect.StructField{Name: "TIDs", Type: reflect.TypeOf(TID(0))}
			first = leafClasses
		}
		next := first
		for _, tail := range []bool{false, true} {
			for _, width := range []uint8{8, 16, 32} {
				for n := 2; n <= MaxFanout; n++ {
					ncols := min(n-1, maxCols(width))
					if pkWidth(ncols) != width {
						continue // every column count n allows fits a narrower width
					}
					room := 0
					if tail {
						// Each of the header's 8 pairs holds a bit at least.
						if room = ncols - len(node{}.offs); room <= 0 {
							continue
						}
					}
					fields := []reflect.StructField{
						{Name: "Header", Type: hdr},
						{Name: "Keys", Type: reflect.ArrayOf(keyBytes(n, width), reflect.TypeOf(byte(0)))},
						{Name: value.Name, Type: reflect.ArrayOf(n, value.Type)},
					}
					if tail {
						fields = append(fields, reflect.StructField{Name: "Tail", Type: reflect.ArrayOf(room, reflect.TypeOf(uint16(0)))})
					}
					typ := reflect.StructOf(append(fields, reflect.StructField{Name: "Cold", Type: reflect.TypeOf(nodeCold{})}))
					// The accessors compute these offsets (the tail's, or
					// an empty tail's at the cold part); the type must agree.
					if kb := keyBytes(n, width); typ.Field(1).Offset != headerSize ||
						typ.Field(2).Offset != uintptr(headerSize+kb) ||
						typ.Field(3).Offset != uintptr(headerSize+kb+n*valueSize(leaf)) {
						panic("core: node block layout disagrees with its accessors")
					}
					cs[next] = nodeClass{typ: typ, size: int(typ.Size()), cold: typ.Field(typ.NumField() - 1).Offset,
						n: uint8(n), width: width, tail: uint8(room)}
					index[shapeIndex(n, width, leaf, tail)] = uint8(next)
					next++
				}
			}
		}
		if next-first >= leafClasses-1 {
			panic("core: more node classes than class indices")
		}
	}
	return cs, index
}

// keyBytes is the size of the partial-key array of n entries of the given
// width: whole 64-bit words, so the search kernels read nothing past it.
func keyBytes(n int, width uint8) int {
	return (n*int(width)/8 + 7) &^ 7
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

// isLeaf reports whether nd's block is of a leaf class: its entries are
// bare TIDs and it has no child.
func (nd *node) isLeaf() bool { return nd.cls >= leafClasses }

// keys returns the node's partial keys: n little-endian lanes of width
// bits, padded to a multiple of 8 bytes.
func (nd *node) keys() []byte {
	return unsafe.Slice((*byte)(unsafe.Add(unsafe.Pointer(nd), headerSize)), keyBytes(int(nd.n), nd.width))
}

// values returns the address of the node's first entry value.
func (nd *node) values() unsafe.Pointer {
	return unsafe.Add(unsafe.Pointer(nd), headerSize+keyBytes(int(nd.n), nd.width))
}

// slot returns entry i's slot; nd must be an inner node.
func (nd *node) slot(i int) *slot {
	return (*slot)(unsafe.Add(nd.values(), i*slotSize))
}

// slots returns an inner node's n slots.
func (nd *node) slots() []slot {
	return unsafe.Slice(nd.slot(0), nd.n)
}

// leafTID returns entry i's TID word; nd must be a leaf node.
func (nd *node) leafTID(i int) *TID {
	return (*TID)(unsafe.Add(nd.values(), i*tidSize))
}

// entry returns entry i: its child node, or nil and its TID. The TID
// beside a child is meaningless.
func (nd *node) entry(i int) (*node, TID) {
	vals := nd.values() // computed once: entry must stay inlinable
	if nd.isLeaf() {
		return nil, atomic.LoadUint64((*TID)(unsafe.Add(vals, i*tidSize)))
	}
	s := (*slot)(unsafe.Add(vals, i*slotSize))
	return s.loadChild(), s.loadTID()
}

// prefetch starts loading nd's block, up to bits.PrefetchLines lines, so
// a descent that has just loaded nd's pointer waits on one miss per visit
// instead of two: the header's line and the line of the value search
// picks (or of a writer's block copy) arrive together. It reads nothing
// itself.
func (nd *node) prefetch() { bits.Prefetch(unsafe.Pointer(nd)) }

// child returns entry i's child node, nil when the entry is a leaf.
func (nd *node) child(i int) *node {
	if nd.isLeaf() {
		return nil
	}
	return nd.slot(i).loadChild()
}

// storeTID publishes leaf entry i's new TID in place.
func (nd *node) storeTID(i int, tid TID) {
	if nd.isLeaf() {
		atomic.StoreUint64(nd.leafTID(i), tid)
		return
	}
	nd.slot(i).storeTID(tid)
}

// storeChild publishes a new child node in entry i in place; only an inner
// node has room for one.
func (nd *node) storeChild(i int, c *node) {
	if nd.isLeaf() {
		panic("core: child stored into a leaf node")
	}
	nd.slot(i).storeChild(c)
}

// appendSlots appends entries [lo, hi) to dst as slots, the form newNode
// builds from: an overflow's cut at the root BiNode and a delete decode a
// node's values with it. The caller holds the node still (its lock, or
// exclusive access).
func (nd *node) appendSlots(dst []slot, lo, hi int) []slot {
	if !nd.isLeaf() {
		return append(dst, nd.slots()[lo:hi]...)
	}
	for i := lo; i < hi; i++ {
		dst = append(dst, leafSlot(*nd.leafTID(i)))
	}
	return dst
}

// hasTail reports whether nd's extraction spec has more than 8 (offset,
// mask) pairs (multi16, multi32), so its block is of the tail family.
func (nd *node) hasTail() bool { return nd.kind >= extractMulti16 }

// tail returns the bit positions past the extraction mask's, ascending:
// the columns the header's spec leaves out, none outside the tail family.
func (nd *node) tail() []uint16 {
	off := headerSize + keyBytes(int(nd.n), nd.width) + int(nd.n)*valueSize(nd.isLeaf())
	return unsafe.Slice((*uint16)(unsafe.Add(unsafe.Pointer(nd), off)), int(nd.ncols)-mathbits.OnesCount64(nd.mask))
}

// setTail stores the positions of d, nd's discriminative bits, that the
// extraction mask leaves out into nd's tail.
func (nd *node) setTail(d []uint16) {
	copy(nd.tail(), d[mathbits.OnesCount64(nd.mask):])
}

// dbits appends the discriminative bit positions to dst, ascending: the
// extraction mask's bits from the top, placed by the offsets, then the
// tail. Writers decode into a stack array where they need the slice.
func (nd *node) dbits(dst []uint16) []uint16 {
	for m := nd.mask; m != 0; {
		z := mathbits.LeadingZeros64(m)
		dst = append(dst, nd.maskBit(z))
		m &^= 1 << (63 - z)
	}
	return append(dst, nd.tail()...)
}

// maskBit returns the bit position the extraction mask's bit z, counted
// from the top, selects: bit z of the single-mask window, or bit z%8 of a
// multi-mask node's key byte offs[z/8].
func (nd *node) maskBit(z int) uint16 {
	if nd.kind == extractSingle {
		return uint16(8*int(nd.offs[0]) + z)
	}
	return uint16(8*int(nd.offs[z>>3]) + z&7)
}

// cold returns the node's lock and obsolete flag.
func (nd *node) cold() *nodeCold {
	return (*nodeCold)(unsafe.Add(unsafe.Pointer(nd), classes[nd.cls].cold))
}

// newNode builds a node from ascending discriminative bit positions d,
// sparse partial keys pks (dense-packed: column i at bit len(d)-1-i) and
// entry slots. A node of height 1 is a leaf node, every other an inner
// node. All inputs are copied into the node's block, so callers may pass
// scratch buffers; the block is drawn from pool when one is given.
func newNode(pool *nodePool, height uint8, d []uint16, pks []uint32, slots []slot) *node {
	n, width := len(slots), pkWidth(len(d))
	h := node{height: height, n: uint8(n), width: width, ncols: uint8(len(d))}
	h.setSpec(d)
	h.cls = classOf(n, width, height == 1, h.hasTail())
	nd := allocNode(pool, h.cls)
	*nd = h
	nd.setTail(d)
	if nd.isLeaf() {
		tids := unsafe.Slice(nd.leafTID(0), n)
		for i := range slots {
			tids[i] = leafValue(slots[i])
		}
	} else {
		copy(nd.slots(), slots)
	}
	keys := nd.keys()
	for i, pk := range pks {
		putLane(keys, width, i, pk)
	}
	return nd
}

// allocNode returns a block of class cls, recycled from pool when it holds
// one. Only its entries' values and tail may hold stale data, and the
// caller overwrites the ones its node uses; the partial keys' padding
// lanes are never written, so they stay zero.
func allocNode(pool *nodePool, cls uint8) *node {
	if nd := pool.get(cls); nd != nil {
		return nd
	}
	return (*node)(reflect.New(classes[cls].typ).UnsafePointer())
}

// leafValue returns the TID a leaf node stores for s, which must be a leaf
// entry.
func leafValue(s slot) TID {
	if s.child != nil {
		panic("core: child entry in a leaf node")
	}
	return s.tid
}

// lane returns lane i of a partial-key array of the given width, widened
// to 32 bits.
func lane(keys []byte, width uint8, i int) uint32 {
	switch width {
	case 8:
		return uint32(keys[i])
	case 16:
		return uint32(binary.LittleEndian.Uint16(keys[2*i:]))
	default:
		return binary.LittleEndian.Uint32(keys[4*i:])
	}
}

// putLane stores pk, which must fit the width, in lane i of a partial-key
// array.
func putLane(keys []byte, width uint8, i int, pk uint32) {
	switch width {
	case 8:
		keys[i] = uint8(pk)
	case 16:
		binary.LittleEndian.PutUint16(keys[2*i:], uint16(pk))
	default:
		binary.LittleEndian.PutUint32(keys[4*i:], pk)
	}
}

// pk returns entry i's sparse partial key widened to 32 bits.
func (nd *node) pk(i int) uint32 {
	return lane(nd.keys(), nd.width, i)
}

// pks materializes all partial keys into dst, widened to uint32 whatever
// the stored width: an overflow's cut at the root BiNode and a delete
// decode a node's keys with it.
func (nd *node) pks(dst []uint32) []uint32 {
	dst = dst[:0]
	for i := 0; i < int(nd.n); i++ {
		dst = append(dst, nd.pk(i))
	}
	return dst
}

// search returns the index of the result candidate for k: the highest entry
// whose sparse partial key complies with the extracted dense key (the
// paper's retrieveResultCandidates + bit scan reverse). Entry 0's partial
// key is always 0 and always complies, so the comply mask is never empty.
//
// Single-mask and multi8 nodes (one extraction word) hand bits.Search the
// key word and the mask to extract with, so extraction, compare and bit
// scan are one call per node visit; multi16 and multi32 nodes extract
// first.
func (nd *node) search(k []byte) int {
	switch nd.kind {
	case extractSingle:
		return bits.Search(beWindow(k, int(nd.offs[0])), nd.mask, nd.keys(), int(nd.n), int(nd.width))
	case extractMulti8:
		return bits.Search(nd.gather(k), nd.mask, nd.keys(), int(nd.n), int(nd.width))
	}
	return bits.SearchProbe(nd.extractMulti(k), nd.keys(), int(nd.n), int(nd.width))
}

// prefixRange returns the contiguous range [lo, hi] of entries whose
// partial keys equal entry idx's on the columns before pos (the more
// significant ones): the subtree below the BiNode that a bit position
// between columns pos-1 and pos, or at column pos, splits on idx's path.
func (nd *node) prefixRange(idx, pos int) (lo, hi int) {
	ncols := int(nd.ncols)
	prefixMask := lowMask32(ncols) &^ lowMask32(ncols-pos)
	if prefixMask == 0 {
		return 0, int(nd.n) - 1
	}
	return nd.complyRangeOf(nd.pk(idx)&prefixMask, prefixMask)
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
		m = bits.PrefixMatch8(nd.keys(), int(nd.n), uint8(prefix), uint8(prefixMask))
	case 16:
		m = bits.PrefixMatch16(nd.keys(), int(nd.n), uint16(prefix), uint16(prefixMask))
	default:
		m = bits.PrefixMatch32(nd.keys(), int(nd.n), prefix, prefixMask)
	}
	lo = mathbits.TrailingZeros32(m)
	hi = 31 - mathbits.LeadingZeros32(m)
	return lo, hi
}

// pathMaxCol returns the column of the largest discriminative bit on the
// conceptual path from the node's root BiNode to entry idx. The deepest
// BiNode on that path is the divergence point with the nearest neighbour
// entry, so it is the later of the two adjacent divergence columns. Entry
// idx and a neighbour branch apart at their most significant differing
// partial-key bit hb, which is column ncols-1-hb: the later column is the
// lower bit.
func (nd *node) pathMaxCol(idx int) int {
	pk, hb := nd.pk(idx), 31
	if idx > 0 {
		hb = mathbits.Len32(nd.pk(idx-1)^pk) - 1
	}
	if idx+1 < int(nd.n) {
		hb = min(hb, mathbits.Len32(pk^nd.pk(idx+1))-1)
	}
	return int(nd.ncols) - 1 - hb
}

// beforePathMax reports whether bit position p lies before the largest
// discriminative bit on entry idx's path, without deriving that bit: the
// columns at or before p must be no more than its column.
func (nd *node) beforePathMax(idx int, p uint16) bool {
	pos, present := nd.columnOf(p)
	if present {
		pos++
	}
	return pos <= nd.pathMaxCol(idx)
}

// columnOf returns the index of absolute bit position p among nd's
// discriminative bits and whether it is present; when absent, the
// returned index is where p would be inserted. It counts from the header
// without decoding the positions: the columns before p are the mask bits
// above p's, and on a multi16/multi32 node past the mask's last byte the
// tail's entries below p.
func (nd *node) columnOf(p uint16) (int, bool) {
	if nd.kind == extractSingle {
		off := int(p) - 8*int(nd.offs[0])
		switch {
		case off < 0:
			return 0, false
		case off >= 64:
			return int(nd.ncols), false
		}
		bit := uint64(1) << (63 - off)
		return mathbits.OnesCount64(nd.mask &^ (bit<<1 - 1)), nd.mask&bit != 0
	}
	// Mask byte i, counted from the top, selects bits of key byte offs[i],
	// ascending, and its top bit is the byte's first; the tail follows.
	pos, at := 0, int(p>>3)
	for i, off := range nd.offs {
		m := uint8(nd.mask >> (56 - 8*i))
		switch {
		case m == 0:
			return pos, false // no pair past here, and so no tail
		case int(off) < at:
			pos += mathbits.OnesCount8(m)
		case int(off) > at:
			return pos, false
		default:
			bit := uint8(0x80) >> (p & 7)
			return pos + mathbits.OnesCount8(m&^(bit<<1-1)), m&bit != 0
		}
	}
	i, present := slices.BinarySearch(nd.tail(), p)
	return pos + i, present
}

// maxChildHeight returns the maximum height among child nodes reachable
// from slots (0 when all entries are leaves).
func maxChildHeight(slots []slot) uint8 {
	var h uint8
	for i := range slots {
		if sh := subtreeHeight(slots[i]); sh > h {
			h = sh
		}
	}
	return h
}

// layout identifies the node's physical layout (Figure 6) for statistics
// and memory accounting.
func (nd *node) layout() layoutKind {
	switch nd.kind {
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
// byte offset + one 8-bit mask per key byte holding a discriminative bit:
// the header's pairs, then those of the tail's bytes),
// n partial keys of the node's width and n 8-byte values.
func (nd *node) paperBytes() int {
	sz := 8
	if nd.kind == extractSingle {
		sz += 1 + 8
	} else {
		sz += 2 * (int(nd.noff) + keyBytesSpanned(nd.tail()))
	}
	sz += int(nd.n) * int(nd.width) / 8
	sz += int(nd.n) * 8
	return sz
}

// goBytes returns the node's Go heap footprint: its block, the one
// allocation that holds all of it.
func (nd *node) goBytes() int {
	return classes[nd.cls].size
}
