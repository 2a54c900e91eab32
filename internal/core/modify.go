package core

import (
	"encoding/binary"
	"unsafe"

	"github.com/hotindex/hot/internal/bits"
)

// This file implements the structure-modifying node operations of Sections
// 3.2 and 4.4: splicing a new entry next to the subtree it diverges from,
// splitting an overflowed node at its root BiNode, and the copy-on-write
// helpers used by deletes. All operations build fresh nodes; published
// nodes are never mutated except for atomic child pointer and TID stores.
//
// A splice (splice) and a child replacement (withSlotReplaced) edit the
// stored form, as the paper's insert does: the partial keys move at their
// stored width and the values as they are stored, around a one-entry gap;
// the keys are recoded (the PDEP step) only when the splice adds a column,
// and widened only when that column takes the node past 8 or 16 of them;
// the extraction spec changes in place while the new bit falls in a
// single-mask node's window, and is re-derived otherwise.
//
// An overflow first cuts the node's own entries at its root BiNode and
// then splices the new entry into the half it joins, with the same splice
// (see spliceAndBuild). A half is a subtree of a canonical node and only
// drops the columns it does not use, so the cut decodes the bit positions
// from the header, the partial keys to uint32 and the values to slots, in
// stack arrays, and builds each half with newNode. A delete's entry
// removal decodes the same way, but may leave stale bits behind, so it
// recanonicalizes.

// spliceOp describes the insertion of one new entry into a node, adjacent
// to the subtree of a reference entry, discriminated by a (possibly new)
// bit position mb.
type spliceOp struct {
	mb      uint16 // absolute bit position of the discriminating BiNode
	newBit  uint   // the new entry's key bit at mb (0: before subtree, 1: after)
	newSlot slot   // value of the new entry
	refIdx  int    // an entry inside the affected subtree (from the traversal path)
	pullUp  bool   // additionally replace the reference entry's slot with refSlot
	refSlot slot   // the reference entry's new value on a parent pull up
}

// spliceAndBuild applies op to nd (Section 4.4) and either builds the
// resulting node or, when it would exceed k entries, splits it at its root
// BiNode (Section 3.2). The returned left/right slots are either existing
// entries (singleton halves hang directly in the parent) or links to fresh
// nodes. Blocks come from pool, except the half the splice joins, which is
// spliced and never published: it comes from and goes back to spare, a
// pool only the calling writer uses.
//
// An overflow cuts nd's own n entries at the root BiNode, d[0], and then
// applies op to the half that holds op.refIdx: a splice when that half is a
// node, a two-entry node when it is the entry alone. This builds the same
// halves as splitting the n+1 entries because of three facts about the
// splices an insert makes, which the decoded sequence never needed:
//   - op.mb is never d[0]: the new key agrees with its candidate on every
//     bit of the candidate's path, and d[0] is on every path. A bit before
//     d[0] becomes the root BiNode itself, with the new entry one half and
//     the whole node the other.
//   - a pull-up's bit lies after d[0] and op.refIdx holds a child: the
//     split child's root BiNode lies below every BiNode on the child's path
//     in nd. So the joined half is an inner node and keeps a child.
//   - a splice that is not a pull-up inserts a leaf, which a leaf half
//     takes as well as an inner one.
func (nd *node) spliceAndBuild(op spliceOp, pool, spare *nodePool, k int) (res *node, left, right slot, splitBit uint16, overflow bool) {
	if int(nd.n) < k {
		return nd.splice(op, pool), slot{}, slot{}, 0, false
	}
	var db [MaxFanout]uint16
	d := nd.dbits(db[:0])
	var pb [MaxFanout]uint32
	var sb [MaxFanout]slot
	pks, slots := nd.pks(pb[:0]), nd.appendSlots(sb[:0], 0, int(nd.n))
	if pos, present := nd.columnOf(op.mb); pos == 0 && !present {
		left, right = op.newSlot, buildHalf(d, pks, slots, 0, pool)
		if op.newBit == 1 {
			left, right = right, left
		}
		return nil, left, right, op.mb, true
	}
	rootBit := uint32(1) << (len(d) - 1)
	at := 0
	for pks[at]&rootBit == 0 {
		at++
	}
	joinsRight := op.refIdx >= at
	lp, rp := spare, pool
	if joinsRight {
		lp, rp = pool, spare
	}
	left = buildHalf(d, pks[:at], slots[:at], rootBit, lp)
	right = buildHalf(d, pks[at:], slots[at:], rootBit, rp)
	joined, size := &left, at
	if joinsRight {
		joined, size, op.refIdx = &right, len(pks)-at, op.refIdx-at
	}
	if size > 1 {
		half := (*node)(joined.child)
		*joined = childSlot(half.splice(op, pool))
		spare.put(half)
		return nil, left, right, d[0], true
	}
	ref := *joined
	if op.pullUp {
		ref = op.refSlot
	}
	s0, s1 := ref, op.newSlot
	if op.newBit == 0 {
		s0, s1 = s1, s0
	}
	*joined = childSlot(nodeFrom2(op.mb, s0, s1, pool))
	return nil, left, right, d[0], true
}

// splice builds the node nd becomes with op applied, which must leave it
// within its fanout, by editing nd's stored form into a block of the next
// class.
//
// Sparse partial key mechanics: if mb is not yet a discriminative bit of
// the node, all partial keys are recoded (the PDEP step) to make room for
// the new column; the affected entries (those sharing the reference
// entry's path prefix above mb) get the inverse of the new entry's bit,
// which for sparse partial keys means they are left untouched when the new
// entry takes the 1-branch and get the column bit set when it takes the
// 0-branch; the new entry's partial key is the shared prefix plus its own
// bit, placed directly before or after the affected range.
//
// The node keeps its height when a leaf joins: nothing leaves. A pull-up
// replaces the tallest child with its split halves, and they may both be
// shorter, so then the height is recomputed from the children. Neither
// changes leaf-ness: a pull-up's parent is an inner node and keeps a
// child, as one split half always has two entries or more.
func (nd *node) splice(op spliceOp, pool *nodePool) *node {
	n, ncols, width := int(nd.n), int(nd.ncols), nd.width
	pos, present := nd.columnOf(op.mb)
	lo, hi := nd.prefixRange(op.refIdx, pos) // the affected range
	newCols, refPk := ncols, nd.pk(op.refIdx)
	if !present {
		newCols++
		refPk = insertColumn(refPk, ncols, pos)
	}
	colBit := uint32(1) << uint(newCols-1-pos)
	newPk := refPk &^ (colBit<<1 - 1) // the columns above mb
	insertAt := lo
	if op.newBit == 1 {
		newPk |= colBit
		insertAt = hi + 1
	}

	newWidth := pkWidth(newCols)
	h := *nd
	h.n, h.width, h.ncols = uint8(n+1), newWidth, uint8(newCols)
	var db [MaxFanout]uint16
	var d []uint16 // the new positions, decoded only to re-derive the spec
	if !present && !h.addSpecBit(op.mb) {
		d = nd.dbits(db[:0])
		d = append(d[:pos+1], d[pos:]...)
		d[pos] = op.mb
		h.setSpec(d)
	}
	h.cls = classOf(n+1, newWidth, nd.isLeaf(), h.kind.family())
	res := allocNode(pool, h.cls)
	*res = h
	if d != nil {
		res.setExt(d)
	} else {
		res.copyExt(nd) // the spec is nd's, or nd's single mask plus op.mb
	}

	keys, oldKeys := res.keys(), nd.keys()
	if newWidth == width {
		lb := int(width / 8)
		copy(keys[:insertAt*lb], oldKeys)
		copy(keys[(insertAt+1)*lb:], oldKeys[insertAt*lb:n*lb])
		if !present {
			insertColumnLanes(keys, width, n+1, ncols, pos)
		}
	} else {
		for i := 0; i < n; i++ {
			j := i
			if i >= insertAt {
				j++
			}
			putLane(keys, newWidth, j, insertColumn(lane(oldKeys, width, i), ncols, pos))
		}
	}
	if op.newBit == 0 {
		// The affected entries, now one lane up, take the 1-branch of the
		// new BiNode.
		for i := lo + 1; i <= hi+1; i++ {
			putLane(keys, newWidth, i, lane(keys, newWidth, i)|colBit)
		}
	}
	putLane(keys, newWidth, insertAt, newPk)

	ri := op.refIdx
	if insertAt <= ri {
		ri++
	}
	if res.isLeaf() {
		tids, old := unsafe.Slice(res.leafTID(0), n+1), unsafe.Slice(nd.leafTID(0), n)
		copy(tids, old[:insertAt])
		copy(tids[insertAt+1:], old[insertAt:])
		tids[insertAt] = leafValue(op.newSlot)
		if op.pullUp {
			tids[ri] = leafValue(op.refSlot)
		}
		return res
	}
	// A typed copy: the GC must see the child pointers move.
	slots, old := res.slots(), nd.slots()
	copy(slots, old[:insertAt])
	copy(slots[insertAt+1:], old[insertAt:])
	slots[insertAt] = op.newSlot
	res.height = max(nd.height, subtreeHeight(op.newSlot)+1)
	if op.pullUp {
		slots[ri] = op.refSlot
		res.height = max(subtreeHeight(op.newSlot), subtreeHeight(op.refSlot)) + 1
		if res.height < nd.height {
			// Both halves are shorter than the child they replace, which
			// may have been the only one of its height.
			res.height = maxChildHeight(slots) + 1
		}
	}
	return res
}

// insertColumnLanes applies insertColumn(·, ncols, pos) to lanes [0, n) of
// a partial-key array of the given width, which must hold ncols+1 columns.
func insertColumnLanes(keys []byte, width uint8, n, ncols, pos int) {
	s := uint(ncols - pos)
	switch width {
	case 8:
		low := uint8(1)<<s - 1
		for i, pk := range keys[:n] {
			keys[i] = (pk>>s)<<(s+1) | pk&low
		}
	case 16:
		low := uint16(1)<<s - 1
		for i := 0; i < 2*n; i += 2 {
			pk := binary.LittleEndian.Uint16(keys[i:])
			binary.LittleEndian.PutUint16(keys[i:], (pk>>s)<<(s+1)|pk&low)
		}
	default:
		low := uint32(1)<<s - 1
		for i := 0; i < 4*n; i += 4 {
			pk := binary.LittleEndian.Uint32(keys[i:])
			binary.LittleEndian.PutUint32(keys[i:], (pk>>s)<<(s+1)|pk&low)
		}
	}
}

// buildHalf turns one side of a node cut at its root BiNode into a slot:
// the entry itself for a singleton, otherwise a fresh node over the half's
// own columns. The node is canonical (sparse partial keys, every column a
// BiNode), so a half is a subtree of it and needs no rebuild: its columns
// are exactly the bits its partial keys set, minus rootBit, the root
// BiNode's, which every key of the right half carries, and one PEXT per
// key drops the others. A rootBit of 0 copies the whole node.
func buildHalf(d []uint16, pks []uint32, slots []slot, rootBit uint32, pool *nodePool) slot {
	if len(slots) == 1 {
		return slots[0]
	}
	var used uint32
	for _, pk := range pks {
		used |= pk
	}
	used &^= rootBit
	var db [MaxFanout]uint16
	var pb [MaxFanout]uint32
	hd := db[:0]
	for i, last := 0, len(d)-1; i <= last; i++ {
		if used&(1<<(last-i)) != 0 {
			hd = append(hd, d[i])
		}
	}
	hpks := pb[:len(pks)]
	for i, pk := range pks {
		hpks[i] = bits.Pext32(pk, used)
	}
	return childSlot(newNode(pool, maxChildHeight(slots)+1, hd, hpks, slots))
}

// nodeFrom2 builds a two-entry node discriminated by a single bit (used
// for leaf-node pushdown, intermediate node creation and new roots).
func nodeFrom2(bit uint16, s0, s1 slot, pool *nodePool) *node {
	h := max(subtreeHeight(s0), subtreeHeight(s1))
	var db [1]uint16
	var pb, sb = [2]uint32{0, 1}, [2]slot{s0, s1}
	db[0] = bit
	return newNode(pool, h+1, db[:], pb[:], sb[:])
}

// withSlotReplaced returns a copy of the inner node nd whose entry idx
// holds s (same discriminative bits and partial keys). The copy's height is
// recomputed, since s may be shorter than what it replaces; when s was the
// last child, the copy is a leaf node.
func (nd *node) withSlotReplaced(idx int, s slot, pool *nodePool) *node {
	old := nd.slots()
	h := subtreeHeight(s)
	for i := range old {
		if i != idx {
			h = max(h, subtreeHeight(old[i]))
		}
	}
	cls := classOf(int(nd.n), nd.width, h == 0, nd.kind.family())
	res := allocNode(pool, cls)
	*res = *nd
	res.height, res.cls = h+1, cls
	copy(res.keys(), nd.keys())
	res.copyExt(nd)
	if res.isLeaf() {
		tids := unsafe.Slice(res.leafTID(0), len(old))
		for i := range old {
			tids[i] = old[i].tid
		}
		tids[idx] = s.tid
		return res
	}
	slots := res.slots()
	copy(slots, old)
	slots[idx] = s
	return res
}

// withoutEntry returns a copy of nd with entry idx removed and the
// discriminative bit set re-canonicalized (nd must have ≥ 3 entries;
// 2-entry nodes underflow and are eliminated by the caller instead).
func (nd *node) withoutEntry(idx int, pool *nodePool) *node {
	var pb, cb [MaxFanout]uint32
	var db, cdb [MaxFanout]uint16
	var sb [MaxFanout]slot
	pks := nd.pks(pb[:0])
	pks = append(pks[:idx], pks[idx+1:]...)
	d, cpks := canonicalize(nd.dbits(db[:0]), pks, cdb[:0], cb[:0])
	slots := nd.appendSlots(sb[:0], 0, idx)
	slots = nd.appendSlots(slots, idx+1, int(nd.n))
	return newNode(pool, maxChildHeight(slots)+1, d, cpks, slots)
}
