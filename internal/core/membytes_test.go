package core

import (
	"runtime"
	"testing"
)

// classShape returns the entry count, width and leaf-ness of class cls
// (the inverse of classOf).
func classShape(cls int) (n int, width uint8, leaf bool) {
	leaf = cls >= leafClasses
	cls %= leafClasses
	return cls % (MaxFanout + 1), 8 << (cls / (MaxFanout + 1)), leaf
}

// classInput is what newNode builds a node of one class from.
type classInput struct {
	height uint8
	d      []uint16
	pks    []uint32
	slots  []slot
}

// classNodes returns, for every node class that can hold minCols
// discriminative bits, the inputs of a node of that class: the most
// discriminative bits its width holds, placed by pos, placeholder partial
// keys and its entry count's leaves — at height 1 for a leaf class, and at
// height 2 with entry 0 a link to child for an inner class.
func classNodes(minCols int, pos func(col int) uint16, child *node) []classInput {
	var in []classInput
	for cls := range classes {
		if classes[cls].typ == nil {
			continue
		}
		n, width, leaf := classShape(cls)
		d := make([]uint16, min(n-1, maxCols(width)))
		if len(d) < minCols {
			continue
		}
		for i := range d {
			d[i] = pos(i)
		}
		p := make([]uint32, n)
		s := make([]slot, n)
		for i := range p {
			p[i], s[i] = uint32(i), leafSlot(TID(i))
		}
		height := uint8(1)
		if !leaf {
			height, s[0] = 2, childSlot(child)
		}
		in = append(in, classInput{height, d, p, s})
	}
	return in
}

// checkGoBytes builds 1000 nodes of every class — leaf and inner — that
// holds minCols discriminative bits, placed by pos, requires each to have
// the kind ok accepts and to land in the class it was built for, and
// checks goBytes against what the allocator handed out: never more, and
// less only by Go's size-class rounding (at most 12.5%).
func checkGoBytes(t *testing.T, minCols int, pos func(col int) uint16, ok func(extractKind) bool) {
	const reps = 1000
	in := classNodes(minCols, pos, specNode([]uint16{0}))
	live := make([]*node, reps)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sum := 0
	for _, c := range in {
		for r := range live {
			live[r] = newNode(nil, c.height, c.d, c.pks, c.slots)
			sum += live[r].goBytes()
		}
		if !ok(live[0].kind) || live[0].isLeaf() != (c.height == 1) {
			t.Fatalf("n=%d ncols=%d height=%d: kind %v, class %d", live[0].n, live[0].ncols, c.height, live[0].kind, live[0].cls)
		}
	}
	runtime.ReadMemStats(&after)
	alloc := int(after.TotalAlloc - before.TotalAlloc)
	t.Logf("%d classes: Σ goBytes %d, allocated %d (%.3f×)", len(in), sum, alloc, float64(alloc)/float64(sum))
	if alloc < sum || alloc > sum*9/8 {
		t.Fatalf("allocated %d bytes for Σ goBytes = %d; want within [1, 1.125]×", alloc, sum)
	}
}

// TestGoBytesSingleMask checks goBytes against the allocator for
// single-mask nodes: every discriminative bit in the first key bytes.
func TestGoBytesSingleMask(t *testing.T) {
	checkGoBytes(t, 1, func(col int) uint16 { return uint16(col) },
		func(k extractKind) bool { return k == extractSingle })
}

// TestGoBytesMultiMask checks goBytes against the allocator for
// multi-mask nodes: one discriminative bit every 9 key bytes, so every
// column is a pair of its own (multi8, multi16 or multi32 by count). A
// single bit always fits one window, so 2-entry nodes are left out.
func TestGoBytesMultiMask(t *testing.T) {
	checkGoBytes(t, 2, func(col int) uint16 { return uint16(col * 72) },
		func(k extractKind) bool { return k != extractSingle })
}
