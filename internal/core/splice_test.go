package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"github.com/hotindex/hot/internal/dataset"
	"github.com/hotindex/hot/internal/key"
	"github.com/hotindex/hot/internal/tidstore"
)

// TestInsertAllocs pins the allocations of two kinds of insert. A
// non-overflowing normal insert below the root — the case a node splice
// serves without a split — allocates none for a Trie (its pool recycles
// replaced nodes' blocks, so the new block nearly always comes from there)
// and one for a ConcurrentTrie's exclusive Writer (the block: replaced
// nodes go to the garbage collector). An overflow below the root into two
// halves of two entries or more, which the parent takes without
// overflowing, allocates three blocks for the Writer: the half the new key
// does not join, the splice of the half it joins, and the parent's splice
// or intermediate node. The joined half itself is built into the writer's
// spare pool and recycled there. The keys stream in; each one of the kind
// a case measures is chosen just before its insert by planning it against
// the current trie. Like testing.AllocsPerRun, the test truncates the
// mean, so a pool miss now and then does not count.
func TestInsertAllocs(t *testing.T) {
	const n, measured = 20000, 500
	s, keys := concurrentKeys(n+40*measured, 41)
	trie := func() (*tree, func([]byte, TID) bool) {
		st := New(s.Key)
		return &st.tree, st.Insert
	}
	writer := func() (*tree, func([]byte, TID) bool) {
		ct := NewConcurrent(s.Key)
		return &ct.tree, ct.Writer().Insert
	}
	for _, c := range []struct {
		name string
		open func() (*tree, func([]byte, TID) bool)
		pick func(tr *tree, k []byte, stack []pathEntry, buf []byte) bool
		want uint64
	}{
		{"Trie", trie, isSpliceInsert, 0},
		{"Writer", writer, isSpliceInsert, 1},
		{"Writer/overflow", writer, isSplitInsert, 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			tr, insert := c.open()
			stack, buf := make([]pathEntry, 0, 16), make([]byte, 0, 64)
			var allocs, picked uint64
			var ms runtime.MemStats
			for i, k := range keys {
				if i < n || picked == measured || !c.pick(tr, k, stack, buf) {
					insert(k, TID(i))
					continue
				}
				runtime.ReadMemStats(&ms)
				before := ms.Mallocs
				if !insert(k, TID(i)) {
					t.Fatalf("Insert(%d) found the key present", i)
				}
				runtime.ReadMemStats(&ms)
				allocs += ms.Mallocs - before
				picked++
			}
			t.Logf("%.3f allocations per insert", float64(allocs)/float64(picked))
			if picked < measured {
				t.Fatalf("%d keys of the kind measured, want %d", picked, measured)
			}
			if allocs/picked > c.want {
				t.Errorf("an insert allocates %.2f per call, want ≤ %d", float64(allocs)/float64(picked), c.want)
			}
		})
	}
}

// planFor plans the insert of k into tr, reporting false when k is
// present.
func planFor(tr *tree, k []byte, stack []pathEntry, buf []byte) (insertPlan, bool) {
	stack, cand := descend(tr.root.Load().n, k, stack[:0])
	mb, differ := key.MismatchBit(tr.load(cand, buf[:0]), k)
	if !differ {
		return insertPlan{}, false
	}
	return planInsert(stack, cand, mb, key.Bit(k, mb), tr.k), true
}

// isSpliceInsert reports whether inserting k into tr is a normal insert
// into a node below the root that has room for one more entry.
func isSpliceInsert(tr *tree, k []byte, stack []pathEntry, buf []byte) bool {
	p, ok := planFor(tr, k, stack, buf)
	return ok && p.what == caseNormal && p.ai > 0 && int(p.stack[p.ai].nd.n) < tr.k
}

// isSplitInsert reports whether inserting k into tr overflows a full node
// below the root, at a bit after its root BiNode, into halves of two
// entries or more each, and the node's parent has room for one more.
func isSplitInsert(tr *tree, k []byte, stack []pathEntry, buf []byte) bool {
	p, ok := planFor(tr, k, stack, buf)
	if !ok || p.what != caseNormal || p.ai == 0 {
		return false
	}
	nd := p.stack[p.ai].nd
	if int(nd.n) < tr.k || int(p.stack[p.ai-1].nd.n) >= tr.k {
		return false
	}
	if pos, present := nd.columnOf(uint16(p.mb)); pos == 0 && !present {
		return false
	}
	lo, hi := nd.prefixRange(0, 1) // the left half
	return lo == 0 && hi >= 1 && int(nd.n)-hi-1 >= 2
}

// checkSplices canonicalizes the sorted distinct dense partial keys over
// the bit positions d (the positions below span) into a valid node, once
// as a leaf node and once as an inner node, and checks a random splice of
// each, its overflow and a slot replacement of the inner one, against the
// decoded oracle: newNode over the entry sequence spliceEntries decodes,
// and for an overflow over each side of its root BiNode.
func checkSplices(t *testing.T, rng *rand.Rand, d []uint16, dense []uint32, span int) {
	t.Helper()
	if len(dense) >= MaxFanout {
		// A full node overflows at the design fanout.
		cd, cpks := canonicalize(d, dense[:MaxFanout], nil, nil)
		slots := randomSlots(rng, MaxFanout, rng.Intn(2) == 0)
		nd := newNode(nil, maxChildHeight(slots)+1, cd, cpks, slots)
		checkSplit(t, rng, nd, span)
		dense = dense[:MaxFanout-1] // room for the new entry
	}
	cd, cpks := canonicalize(d, dense, nil, nil)
	for _, leaf := range []bool{true, false} {
		slots := randomSlots(rng, len(cpks), leaf)
		nd := newNode(nil, maxChildHeight(slots)+1, cd, cpks, slots)
		op := randomSplice(rng, nd, span)
		checkSplice(t, rng, nd, op)
		checkSplit(t, rng, nd, span)
		if !leaf {
			checkSlotReplaced(t, rng, nd, rng.Intn(int(nd.n)), randomSlot(rng, rng.Intn(2) == 0))
		}
	}
}

// heightNodes[h] is a two-entry node of height h: a child of that height.
var heightNodes = func() (hs [5]*node) {
	for h := 1; h < len(hs); h++ {
		hs[h] = newNode(nil, uint8(h), []uint16{0}, []uint32{0, 1}, []slot{leafSlot(1), leafSlot(2)})
	}
	return hs
}()

// randomSlot returns a leaf entry, or a child of a random height when
// child is set.
func randomSlot(rng *rand.Rand, child bool) slot {
	if child {
		return childSlot(heightNodes[1+rng.Intn(len(heightNodes)-1)])
	}
	return leafSlot(TID(rng.Int63n(int64(MaxTID))))
}

// randomSlots returns n leaf entries, or for an inner node a mix of leaf
// entries and at least one child.
func randomSlots(rng *rand.Rand, n int, leaf bool) []slot {
	slots := make([]slot, n)
	for i := range slots {
		slots[i] = randomSlot(rng, !leaf && rng.Intn(3) == 0)
	}
	if !leaf {
		slots[rng.Intn(n)] = randomSlot(rng, true)
	}
	return slots
}

// randomSplice returns a splice of nd at an existing or a new column, on
// either side of an entry at either end or in between, with or without a
// pull-up's replacement of that entry. A splice into an inner node with a
// pull-up hangs a child, as the split halves always include one.
func randomSplice(rng *rand.Rand, nd *node, span int) spliceOp {
	op := spliceOp{newBit: uint(rng.Intn(2)), pullUp: rng.Intn(2) == 0}
	if rng.Intn(2) == 0 {
		op.mb = nd.dbits(nil)[rng.Intn(int(nd.ncols))]
	} else {
		for {
			op.mb = uint16(rng.Intn(span + 64))
			if _, present := nd.columnOf(op.mb); !present {
				break
			}
		}
	}
	switch n := int(nd.n); rng.Intn(3) {
	case 0:
		op.refIdx = 0
	case 1:
		op.refIdx = n - 1
	default:
		op.refIdx = rng.Intn(n)
	}
	inner := !nd.isLeaf()
	op.newSlot = randomSlot(rng, inner && (op.pullUp || rng.Intn(2) == 0))
	if op.pullUp {
		op.refSlot = randomSlot(rng, inner && rng.Intn(2) == 0)
	}
	return op
}

// spliceEntries is the decoded oracle of a splice: op applied to nd's
// entries decoded to the discriminative bits, the partial keys widened to
// uint32 and the values as slots of the resulting sequence (see splice for
// the mechanics).
func spliceEntries(nd *node, op spliceOp) (d []uint16, pks []uint32, slots []slot) {
	dbits := nd.dbits(nil)
	ncols := len(dbits)
	pos, present := nd.columnOf(op.mb)

	newCols := ncols
	if !present {
		newCols++
	}
	d = append(d, dbits[:pos]...)
	if !present {
		d = append(d, op.mb)
	}
	d = append(d, dbits[pos:]...)

	n := int(nd.n)
	pks = nd.pks(nil)
	if !present {
		for i, pk := range pks {
			pks[i] = insertColumn(pk, ncols, pos)
		}
	}

	colBit := uint32(1) << uint(newCols-1-pos)
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

	slots = nd.appendSlots(nil, 0, insertAt)
	slots = append(slots, op.newSlot)
	slots = nd.appendSlots(slots, insertAt, n)
	if op.pullUp {
		ri := op.refIdx
		if insertAt <= ri {
			ri++
		}
		slots[ri] = op.refSlot
	}

	pks = slices.Insert(pks, insertAt, newPk)
	return d, pks, slots
}

// checkSplice checks nd.splice(op) against newNode over the decoded
// splice, on a fresh block and on a recycled one.
func checkSplice(t *testing.T, rng *rand.Rand, nd *node, op spliceOp) {
	t.Helper()
	d, pks, slots := spliceEntries(nd, op)
	want := newNode(nil, maxChildHeight(slots)+1, d, pks, slots)
	checkBuild(t, rng, want, func(pool *nodePool) *node { return nd.splice(op, pool) })
}

// realizable reports whether an insert can make op on nd (see
// spliceAndBuild): its bit is not the root BiNode's, a pull-up's lies after
// it and replaces a child, and any other splice inserts a leaf.
func realizable(nd *node, op spliceOp) bool {
	if op.pullUp {
		return op.mb > nd.dbits(nil)[0] && nd.child(op.refIdx) != nil
	}
	return op.mb != nd.dbits(nil)[0] && op.newSlot.child == nil
}

// checkSplit overflows nd with a random splice that an insert could make
// — realizable, and leaving a canonical sequence — at a fanout limit of
// nd's own entry count, and checks it with checkOverflow, building into
// fresh blocks and then into dirty pooled ones.
func checkSplit(t *testing.T, rng *rand.Rand, nd *node, span int) {
	t.Helper()
	for {
		op := randomSplice(rng, nd, span)
		if d, pks, _ := spliceEntries(nd, op); realizable(nd, op) && isCanonical(d, pks) {
			checkOverflow(t, nd, op, int(nd.n), nil)
			checkOverflow(t, nd, op, int(nd.n), dirtyPool(rng))
			return
		}
	}
}

// dirtyPool returns a pool holding a dirty block (see dirtyBlock) of every
// class.
func dirtyPool(rng *rand.Rand) *nodePool {
	pool := &nodePool{}
	for cls := range classes {
		if classes[cls].typ != nil {
			pool.put(dirtyBlock(rng, uint8(cls)))
		}
	}
	return pool
}

// checkOverflow runs nd.spliceAndBuild(op) at fanout k, which nd's entries
// fill, building into pool (also as the spare pool), and checks both
// split halves against canonicalize and newNode over the two sides of the
// decoded sequence's root BiNode, a singleton half against its entry. It
// returns the halves and the split bit.
func checkOverflow(t *testing.T, nd *node, op spliceOp, k int, pool *nodePool) (left, right slot, splitBit uint16) {
	t.Helper()
	d, pks, slots := spliceEntries(nd, op)
	_, left, right, splitBit, overflow := nd.spliceAndBuild(op, pool, pool, k)
	if !overflow || splitBit != d[0] {
		t.Fatalf("overflow %v at bit %d, want a split at %d", overflow, splitBit, d[0])
	}
	at := 0
	for pks[at]&(1<<(len(d)-1)) == 0 {
		at++
	}
	for _, h := range []struct {
		got    slot
		lo, hi int
	}{{left, 0, at}, {right, at, len(pks)}} {
		if h.hi-h.lo == 1 {
			if h.got != slots[h.lo] {
				t.Fatalf("singleton half %v, want %v", h.got, slots[h.lo])
			}
			continue
		}
		hd, hpks := canonicalize(d, pks[h.lo:h.hi], nil, nil)
		half := slots[h.lo:h.hi]
		sameNode(t, "split half", h.got.loadChild(), newNode(nil, maxChildHeight(half)+1, hd, hpks, half))
	}
	return left, right, splitBit
}

// isCanonical reports whether the partial keys ascend strictly and
// canonicalize leaves the sequence as it is: a binary Patricia trie whose
// every column is a BiNode, in sparse partial keys.
func isCanonical(d []uint16, pks []uint32) bool {
	for i := 1; i < len(pks); i++ {
		if pks[i] <= pks[i-1] {
			return false
		}
	}
	cd, cpks := canonicalize(d, pks, nil, nil)
	return slices.Equal(cd, d) && slices.Equal(cpks, pks)
}

// checkSlotReplaced checks nd.withSlotReplaced(idx, s) against newNode
// over nd's decoded entries with s in entry idx.
func checkSlotReplaced(t *testing.T, rng *rand.Rand, nd *node, idx int, s slot) {
	t.Helper()
	slots := nd.appendSlots(nil, 0, int(nd.n))
	slots[idx] = s
	want := newNode(nil, maxChildHeight(slots)+1, nd.dbits(nil), nd.pks(nil), slots)
	checkBuild(t, rng, want, func(pool *nodePool) *node { return nd.withSlotReplaced(idx, s, pool) })
}

// checkBuild checks that build makes a node equal to want in every byte a
// node's accessors read — the header, the partial keys with their padding
// lanes, the values and the tail, so also the discriminative bits they
// derive — once into a fresh block and once into a recycled block of
// want's class that is left dirty.
func checkBuild(t *testing.T, rng *rand.Rand, want *node, build func(*nodePool) *node) {
	t.Helper()
	sameNode(t, "fresh block", build(nil), want)
	dirty := dirtyBlock(rng, want.cls)
	pool := &nodePool{}
	pool.put(dirty)
	got := build(pool)
	if got != dirty {
		t.Fatal("the build did not take the pooled block of its class")
	}
	sameNode(t, "pooled block", got, want)
}

// dirtyBlock returns a block of class cls whose header, partial keys (all
// but the padding lanes, which no node writes), values and tail hold
// random bytes.
func dirtyBlock(rng *rand.Rand, cls uint8) *node {
	n, width, leaf, _ := classShape(int(cls))
	b := allocNode(nil, cls)
	*b = node{n: uint8(n), width: width, cls: cls, ncols: classes[cls].tail} // an empty mask: all of the tail
	rng.Read(b.keys()[:n*int(width)/8])
	for i := range b.tail() {
		b.tail()[i] = uint16(rng.Intn(1 << 16))
	}
	for i := range n {
		if leaf {
			*b.leafTID(i) = TID(rng.Int63())
		} else {
			*b.slot(i) = randomSlot(rng, true)
		}
	}
	var hdr [headerSize]byte
	rng.Read(hdr[:])
	h := *(*node)(unsafe.Pointer(&hdr))
	b.mask, b.offs, b.noff, b.kind, b.height = h.mask, h.offs, h.noff, h.kind, h.height
	return b
}

// sameNode fails unless got and want agree in their header, partial keys
// (padding lanes included), values and tail, and so in the discriminative
// bits they derive: byte for byte, all of the block that an accessor reads
// but the cold part.
func sameNode(t *testing.T, what string, got, want *node) {
	t.Helper()
	if *got != *want {
		t.Fatalf("%s: header %+v, want %+v", what, *got, *want)
	}
	if !bytes.Equal(got.keys(), want.keys()) {
		t.Fatalf("%s: keys %x, want %x", what, got.keys(), want.keys())
	}
	if !slices.Equal(got.dbits(nil), want.dbits(nil)) {
		t.Fatalf("%s: dbits %v, want %v", what, got.dbits(nil), want.dbits(nil))
	}

	n := int(want.n)
	if want.isLeaf() {
		if g, w := unsafe.Slice(got.leafTID(0), n), unsafe.Slice(want.leafTID(0), n); !slices.Equal(g, w) {
			t.Fatalf("%s: TIDs %v, want %v", what, g, w)
		}
	} else if !slices.Equal(got.slots(), want.slots()) {
		t.Fatalf("%s: slots %v, want %v", what, got.slots(), want.slots())
	}
	block := func(nd *node) []byte { // up to the tail's last position in use
		end := unsafe.Add(unsafe.Pointer(unsafe.SliceData(nd.tail())), 2*len(nd.tail()))
		return unsafe.Slice((*byte)(unsafe.Pointer(nd)), uintptr(end)-uintptr(unsafe.Pointer(nd)))
	}
	if !bytes.Equal(block(got), block(want)) {
		t.Fatalf("%s: block %x, want %x", what, block(got), block(want))
	}
}

// chainNode returns a node over the bit positions d whose BiNodes form a
// chain: entry i takes the 1-branch at columns 0..i-1 and the 0-branch at
// column i, the last entry the 1-branch everywhere. Entries are leaves
// unless children names some of them.
func chainNode(d []uint16, children map[int]*node) *node {
	n := len(d) + 1
	pks, slots := make([]uint32, n), make([]slot, n)
	for i := range pks {
		pks[i] = lowMask32(len(d)) &^ lowMask32(len(d)-i)
		slots[i] = leafSlot(TID(i))
		if c := children[i]; c != nil {
			slots[i] = childSlot(c)
		}
	}
	return newNode(nil, maxChildHeight(slots)+1, d, pks, slots)
}

// positions returns the bit positions from, from+1, ..., from+n-1.
func positions(from, n int) []uint16 {
	d := make([]uint16, n)
	for i := range d {
		d[i] = uint16(from + i)
	}
	return d
}

// TestSpliceTransitions drives the in-block splice through each of its
// fallbacks and boundaries — a width change, an extraction spec that
// cannot change in place, a pull-up that lowers the height, a child
// replacement that leaves a leaf node, and the fanout limit at which a
// splice overflows into a split — checking each result against the
// decoded oracle and that the row really crossed its boundary.
func TestSpliceTransitions(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	last := func(d []uint16) int { return len(d) }
	for _, c := range []struct {
		name  string
		nd    *node
		op    spliceOp
		check func(nd, res *node) bool
	}{
		{"ncols 8 to 9 widens keys 8 to 16", chainNode(positions(0, 8), nil),
			spliceOp{mb: 8, newBit: 1, refIdx: last(positions(0, 8)), newSlot: leafSlot(99)},
			func(nd, res *node) bool { return nd.width == 8 && res.width == 16 && res.ncols == 9 }},
		{"ncols 16 to 17 widens keys 16 to 32", chainNode(positions(0, 16), nil),
			spliceOp{mb: 16, newBit: 1, refIdx: last(positions(0, 16)), newSlot: leafSlot(99)},
			func(nd, res *node) bool { return nd.width == 16 && res.width == 32 && res.ncols == 17 }},
		{"mb past the window: single to multi8", chainNode(positions(0, 4), nil),
			spliceOp{mb: 100, newBit: 1, refIdx: 4, newSlot: leafSlot(99)},
			func(nd, res *node) bool { return nd.kind == extractSingle && res.kind == extractMulti8 }},
		{"mb before the window's first byte: the window moves", chainNode(positions(40, 4), nil),
			spliceOp{mb: 3, newBit: 0, refIdx: 0, newSlot: leafSlot(99)},
			func(nd, res *node) bool { return nd.offs[0] == 5 && res.kind == extractSingle && res.offs[0] == 0 }},
		{"mb below d[0] in the window's first byte: mask in place", chainNode(positions(42, 3), nil),
			spliceOp{mb: 40, newBit: 1, refIdx: 2, newSlot: leafSlot(99)},
			func(nd, res *node) bool {
				return res.kind == extractSingle && res.offs[0] == nd.offs[0] && res.mask == nd.mask|1<<63
			}},
		{"existing column", chainNode(positions(0, 5), nil),
			spliceOp{mb: 2, newBit: 0, refIdx: 3, newSlot: leafSlot(99)},
			func(nd, res *node) bool { return res.ncols == nd.ncols && res.n == nd.n+1 }},
		{"multi8 node re-derives its spec", chainNode([]uint16{0, 100, 200}, nil),
			spliceOp{mb: 150, newBit: 1, refIdx: 3, newSlot: leafSlot(99)},
			func(nd, res *node) bool { return res.kind == extractMulti8 && res.noff == 4 }},
		{"pull-up replacing the only tallest child lowers the height",
			chainNode(positions(0, 2), map[int]*node{0: heightNodes[2]}),
			spliceOp{mb: 10, newBit: 1, refIdx: 0, pullUp: true,
				refSlot: childSlot(heightNodes[1]), newSlot: childSlot(heightNodes[1])},
			func(nd, res *node) bool { return nd.height == 3 && res.height == 2 }},
		{"pull-up beside a child as tall keeps the height",
			chainNode(positions(0, 2), map[int]*node{0: heightNodes[2], 2: heightNodes[2]}),
			spliceOp{mb: 10, newBit: 1, refIdx: 0, pullUp: true,
				refSlot: childSlot(heightNodes[1]), newSlot: leafSlot(99)},
			func(nd, res *node) bool { return nd.height == 3 && res.height == 3 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			res, _, _, _, overflow := c.nd.spliceAndBuild(c.op, nil, nil, MaxFanout)
			if overflow {
				t.Fatal("splice overflowed")
			}
			d, pks, slots := spliceEntries(c.nd, c.op)
			sameNode(t, "spliceAndBuild", res, newNode(nil, maxChildHeight(slots)+1, d, pks, slots))
			checkSplice(t, rng, c.nd, c.op)
			if !c.check(c.nd, res) {
				t.Errorf("boundary not crossed: node %+v, result %+v", *c.nd, *res)
			}
		})
	}

	t.Run("replacing the last child leaves a leaf node", func(t *testing.T) {
		nd := chainNode(positions(0, 3), map[int]*node{1: heightNodes[1]})
		checkSlotReplaced(t, rng, nd, 1, leafSlot(99))
		if res := nd.withSlotReplaced(1, leafSlot(99), nil); !res.isLeaf() || res.height != 1 {
			t.Errorf("result leaf=%v height %d, want a leaf node", res.isLeaf(), res.height)
		}
	})

	// A node of k entries overflows; one of k-1 takes the new entry.
	for _, k := range []int{MaxFanout, 4} {
		t.Run(fmt.Sprintf("overflow at k=%d", k), func(t *testing.T) {
			for n := k - 1; n <= k; n++ {
				d := positions(0, n-1)
				nd := chainNode(d, nil)
				op := spliceOp{mb: uint16(n), newBit: 1, refIdx: n - 1, newSlot: leafSlot(99)}
				res, left, right, splitBit, overflow := nd.spliceAndBuild(op, nil, nil, k)
				if overflow != (n == k) {
					t.Fatalf("n=%d: overflow=%v", n, overflow)
				}
				if !overflow {
					if int(res.n) != k {
						t.Fatalf("n=%d: result of %d entries", n, res.n)
					}
					continue
				}
				entries := func(s slot) int {
					if c := (*node)(s.child); c != nil {
						return int(c.n)
					}
					return 1
				}
				if got := entries(left) + entries(right); got != k+1 || splitBit != d[0] {
					t.Fatalf("split into %d entries at bit %d, want %d at %d", got, splitBit, k+1, d[0])
				}
			}
		})
	}
}

// TestOverflowMatchesOracle drives real inserts of integer and url keys
// through tries of fanouts 2 to 8 and MaxFanout. Before each insert that
// overflows, it replays the overflow on the trie's nodes as execInsert
// runs it — the affected node's split, then each parent pull-up — and
// holds every split's halves, and the splice a pull-up chain ends in, byte
// for byte to the decoded oracle. The replay builds into a pool of its own
// earlier results, so into dirty blocks as well as fresh ones.
func TestOverflowMatchesOracle(t *testing.T) {
	var aboveRoot, singletons int
	for _, kind := range []dataset.Kind{dataset.Integer, dataset.URL} {
		all := dataset.Generate(kind, 50000, 1)
		for _, k := range []int{2, 3, 4, 5, 6, 7, 8, MaxFanout} {
			keys := all[:5000] // thousands of overflows at a small fanout
			if k == MaxFanout {
				keys = all
			}
			t.Run(fmt.Sprintf("%v/k=%d", kind, k), func(t *testing.T) {
				s := &tidstore.Store{}
				tr := NewWithFanout(s.Key, k)
				r := overflowReplay{t: t, tr: &tr.tree, rng: rand.New(rand.NewSource(int64(k))), pool: &nodePool{}}
				for _, kb := range keys {
					if tr.root.Load().n != nil {
						r.replay(kb)
					}
					if !tr.Insert(kb, s.Add(kb)) {
						t.Fatalf("Insert(%q) found the key present", kb)
					}
				}
				if err := tr.Verify(); err != nil {
					t.Fatal(err)
				}
				if r.overflows == 0 || r.pullUps == 0 {
					t.Fatalf("%d overflows, %d pull-ups: the keys did not reach both", r.overflows, r.pullUps)
				}
				t.Logf("%d overflows, %d pull-ups, %d above the root BiNode, %d into a singleton", r.overflows, r.pullUps, r.aboveRoot, r.singletons)
				aboveRoot += r.aboveRoot
				singletons += r.singletons
			})
		}
	}
	if aboveRoot == 0 || singletons == 0 {
		t.Fatalf("%d overflows at a bit above the root BiNode, %d into a singleton half: want both", aboveRoot, singletons)
	}
}

// overflowReplay replays the overflows of real inserts into tr, counting
// what it checked.
type overflowReplay struct {
	t                                         *testing.T
	tr                                        *tree
	rng                                       *rand.Rand
	pool                                      *nodePool
	stack                                     []pathEntry
	buf                                       []byte
	fresh                                     []*node
	overflows, pullUps, aboveRoot, singletons int
}

// replay checks the overflow an insert of k would make, if any, without
// changing the trie, and then recycles every node it built.
func (r *overflowReplay) replay(k []byte) {
	t, tr := r.t, r.tr
	t.Helper()
	stack, cand := descend(tr.root.Load().n, k, r.stack[:0])
	r.stack = stack
	mb, differ := key.MismatchBit(tr.load(cand, r.buf[:0]), k)
	if !differ {
		t.Fatalf("%q is present before its insert", k)
	}
	plan := planInsert(stack, cand, mb, key.Bit(k, mb), tr.k)
	a := stack[plan.ai]
	if plan.what != caseNormal || int(a.nd.n) < tr.k {
		return
	}
	op := spliceOp{mb: uint16(mb), newBit: plan.bitv, newSlot: leafSlot(MaxTID), refIdx: a.idx}
	for cur, oldH := plan.ai, a.nd.height; ; {
		nd := stack[cur].nd
		if pos, present := nd.columnOf(op.mb); pos == 0 && !present {
			r.aboveRoot++
		} else if lo, hi := nd.prefixRange(op.refIdx, 1); lo == hi {
			r.singletons++
		}
		left, right, splitBit := checkOverflow(t, nd, op, tr.k, r.pool)
		r.overflows++
		for _, h := range []slot{left, right} {
			if isFresh(h, nd, op) {
				r.fresh = append(r.fresh, (*node)(h.child))
			}
		}
		if cur == 0 {
			break
		}
		parent := stack[cur-1]
		if int(oldH)+1 < int(parent.nd.height) {
			break // intermediate node creation: no pull-up
		}
		r.pullUps++
		op = spliceOp{mb: splitBit, newBit: 1, newSlot: right, refIdx: parent.idx, pullUp: true, refSlot: left}
		if int(parent.nd.n) < tr.k {
			checkSplice(t, r.rng, parent.nd, op)
			break
		}
		cur, oldH = cur-1, parent.nd.height
	}
	for _, nd := range r.fresh {
		r.pool.put(nd)
	}
	r.fresh = r.fresh[:0]
}

// isFresh reports whether half s of nd's overflow under op is a node the
// overflow built, not an entry it moved: one of nd's children or op's
// slots, which the trie or an earlier step owns.
func isFresh(s slot, nd *node, op spliceOp) bool {
	c := (*node)(s.child)
	if c == nil || s == op.newSlot || s == op.refSlot {
		return false
	}
	for i := range int(nd.n) {
		if nd.child(i) == c {
			return false
		}
	}
	return true
}
