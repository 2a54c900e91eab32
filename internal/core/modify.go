package core

import "sync"

// This file implements the structure-modifying node operations of Sections
// 3.2 and 4.4: splicing a new entry next to the subtree it diverges from,
// splitting an overflowed entry sequence at its root BiNode, and the
// copy-on-write helpers used by deletes. All operations build fresh nodes;
// published nodes are never mutated except for atomic child pointer and
// TID stores.
//
// newNode copies all of its inputs, so the transient entry sequences live
// in pooled scratch buffers rather than garbage (copy-on-write makes
// insertion allocation-heavy by design; the pool keeps it to the node's
// own block).

// entryBuf holds one transient entry sequence of up to MaxFanout+1 entries
// (an overflowed node before its split).
type entryBuf struct {
	d     []uint16
	pks   []uint32
	slots []slot
}

var bufPool = sync.Pool{New: func() any {
	return &entryBuf{
		d:     make([]uint16, 0, MaxFanout+1),
		pks:   make([]uint32, 0, MaxFanout+1),
		slots: make([]slot, 0, MaxFanout+1),
	}
}}

// spliceOp describes the insertion of one new entry into a node, adjacent
// to the subtree of a reference entry, discriminated by a (possibly new)
// bit position mb.
type spliceOp struct {
	mb         uint16 // absolute bit position of the discriminating BiNode
	newBit     uint   // the new entry's key bit at mb (0: before subtree, 1: after)
	newSlot    slot   // value of the new entry
	refIdx     int    // an entry inside the affected subtree (from the traversal path)
	refReplace *slot  // non-nil: additionally replace the reference entry's slot (parent pull up)
}

// spliceAndBuild applies op to nd's entries (Section 4.4) and either
// builds the resulting node or, on overflow, splits the sequence at its
// root BiNode (Section 3.2). The returned left/right slots are either
// existing entries (singleton halves hang directly in the parent) or links
// to fresh nodes.
//
// Sparse partial key mechanics: if mb is not yet a discriminative bit of
// the node, all partial keys are recoded (the PDEP step) to make room for
// the new column; the affected entries (those sharing the reference
// entry's path prefix above mb) get the inverse of the new entry's bit,
// which for sparse partial keys means they are left untouched when the new
// entry takes the 1-branch and get the column bit set when it takes the
// 0-branch; the new entry's partial key is the shared prefix plus its own
// bit, placed directly before or after the affected range.
func (nd *node) spliceAndBuild(op spliceOp, pool *nodePool, k int) (res *node, left, right slot, splitBit uint16, overflow bool) {
	eb := bufPool.Get().(*entryBuf)
	defer bufPool.Put(eb)

	dbits := nd.dbits()
	ncols := len(dbits)
	pos, present := nd.columnOf(op.mb)

	newCols := ncols
	if !present {
		newCols++
	}
	d := append(eb.d[:0], dbits[:pos]...)
	if !present {
		d = append(d, op.mb)
	}
	d = append(d, dbits[pos:]...)

	n := int(nd.n)
	pks := nd.pks(eb.pks[:0])
	if !present {
		for i, pk := range pks {
			pks[i] = insertColumn(pk, ncols, pos)
		}
	}

	colShift := uint(newCols - 1 - pos)
	colBit := uint32(1) << colShift
	// Columns above (more significant than) the new one.
	prefixMask := lowMask32(newCols) &^ (colBit<<1 - 1)
	prefix := pks[op.refIdx] & prefixMask

	// Affected range: contiguous, contains refIdx.
	lo, hi := op.refIdx, op.refIdx
	for lo > 0 && pks[lo-1]&prefixMask == prefix {
		lo--
	}
	for hi+1 < n && pks[hi+1]&prefixMask == prefix {
		hi++
	}

	newPk := prefix
	insertAt := lo
	if op.newBit == 1 {
		newPk |= colBit
		insertAt = hi + 1
	} else {
		// Affected entries now take the 1-branch of the new BiNode.
		for i := lo; i <= hi; i++ {
			pks[i] |= colBit
		}
	}

	slots := nd.appendSlots(eb.slots[:0], 0, insertAt)
	slots = append(slots, op.newSlot)
	slots = nd.appendSlots(slots, insertAt, n)
	if op.refReplace != nil {
		ri := op.refIdx
		if insertAt <= ri {
			ri++
		}
		slots[ri] = *op.refReplace
	}

	pks = append(pks, 0)
	copy(pks[insertAt+1:], pks[insertAt:])
	pks[insertAt] = newPk

	if len(slots) <= k {
		return newNode(pool, maxChildHeight(slots)+1, d, pks, slots), slot{}, slot{}, 0, false
	}
	left, right, splitBit = split(d, pks, slots, pool)
	return nil, left, right, splitBit, true
}

// split cuts an overflowed entry sequence at its root BiNode (column 0 =
// the smallest discriminative bit; in a Patricia trie bit positions grow
// along every path, so the root BiNode carries the minimum).
func split(d []uint16, pks []uint32, slots []slot, pool *nodePool) (left, right slot, splitBit uint16) {
	splitBit = d[0]
	rootBit := uint32(1) << (len(d) - 1)
	at := 0
	for at < len(pks) && pks[at]&rootBit == 0 {
		at++
	}
	left = buildHalf(d, pks[:at], slots[:at], pool)
	right = buildHalf(d, pks[at:], slots[at:], pool)
	return left, right, splitBit
}

// buildHalf turns one side of a split into a slot: the entry itself for a
// singleton, otherwise a fresh node over the canonicalized column subset.
func buildHalf(d []uint16, pks []uint32, slots []slot, pool *nodePool) slot {
	if len(slots) == 1 {
		return slots[0]
	}
	eb := bufPool.Get().(*entryBuf)
	hd, hpks := canonicalize(d, pks, eb.d[:0], eb.pks[:0])
	nd := newNode(pool, maxChildHeight(slots)+1, hd, hpks, slots)
	bufPool.Put(eb)
	return childSlot(nd)
}

// nodeFrom2 builds a two-entry node discriminated by a single bit (used
// for leaf-node pushdown, intermediate node creation and new roots).
func nodeFrom2(bit uint16, s0, s1 slot, pool *nodePool) *node {
	h := s0.subtreeHeight()
	if h2 := s1.subtreeHeight(); h2 > h {
		h = h2
	}
	var db [1]uint16
	var pb, sb = [2]uint32{0, 1}, [2]slot{s0, s1}
	db[0] = bit
	return newNode(pool, h+1, db[:], pb[:], sb[:])
}

// withSlotReplaced returns a copy of nd whose entry idx holds s (same
// discriminative bits and partial keys).
func (nd *node) withSlotReplaced(idx int, s slot, pool *nodePool) *node {
	eb := bufPool.Get().(*entryBuf)
	pks := nd.pks(eb.pks[:0])
	slots := nd.appendSlots(eb.slots[:0], 0, int(nd.n))
	slots[idx] = s
	res := newNode(pool, maxChildHeight(slots)+1, nd.dbits(), pks, slots)
	bufPool.Put(eb)
	return res
}

// withoutEntry returns a copy of nd with entry idx removed and the
// discriminative bit set re-canonicalized (nd must have ≥ 3 entries;
// 2-entry nodes underflow and are eliminated by the caller instead).
func (nd *node) withoutEntry(idx int, pool *nodePool) *node {
	eb := bufPool.Get().(*entryBuf)
	pks := nd.pks(eb.pks[:0])
	pks = append(pks[:idx], pks[idx+1:]...)
	var db [MaxFanout]uint16
	var pb [MaxFanout]uint32
	d, cpks := canonicalize(nd.dbits(), pks, db[:0], pb[:0])
	slots := nd.appendSlots(eb.slots[:0], 0, idx)
	slots = nd.appendSlots(slots, idx+1, int(nd.n))
	res := newNode(pool, maxChildHeight(slots)+1, d, cpks, slots)
	bufPool.Put(eb)
	return res
}
