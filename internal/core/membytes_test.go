package core

import (
	"runtime"
	"testing"

	"github.com/hotindex/hot/internal/bits"
)

// classShape returns the entry count, width, leaf-ness and block family
// of class cls (the inverse of classOf).
func classShape(cls int) (n int, width uint8, leaf bool, fam blockFamily) {
	c := classes[cls]
	return int(c.n), c.width, cls >= leafClasses, c.fam
}

// classInput is what newNode builds a node of one class from.
type classInput struct {
	cls    uint16
	height uint8
	d      []uint16
	pks    []uint32
	slots  []slot
}

// classNodes returns, for every node class that can hold minCols
// discriminative bits placed by pos, the inputs of a node of that class:
// the most discriminative bits its width holds, placeholder partial keys
// and its entry count's leaves — at height 1 for a leaf class, and at
// height 2 with entry 0 a link to child for an inner class. A class whose
// family the bits' spec does not take is left out.
func classNodes(minCols int, pos func(col int) uint16, child *node) []classInput {
	var in []classInput
	for cls := range classes {
		if classes[cls].typ == nil {
			continue
		}
		n, width, leaf, fam := classShape(cls)
		d := make([]uint16, min(n-1, maxCols(width)))
		if len(d) < minCols {
			continue
		}
		for i := range d {
			d[i] = pos(i)
		}
		var spec node
		if spec.setSpec(d); spec.kind.family() != fam {
			continue
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
		in = append(in, classInput{uint16(cls), height, d, p, s})
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
		if !ok(live[0].kind) || live[0].cls != c.cls {
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
// column is a pair of its own (multi8, multi16 or multi32 by count), then
// four bits in each such byte, so up to 31 columns stay multi8. A single
// bit always fits one window, so 2-entry nodes are left out.
func TestGoBytesMultiMask(t *testing.T) {
	multi := func(k extractKind) bool { return k != extractSingle }
	checkGoBytes(t, 2, func(col int) uint16 { return uint16(col * 72) }, multi)
	checkGoBytes(t, 5, func(col int) uint16 { return uint16(col/4*72 + col%4) }, multi)
}

// TestPrefetchCoversLeafBlocks checks that one prefetch covers a whole
// leaf block of every class: bits.PrefetchLines lines reach at least as
// far as the allocator's size class for the largest leaf class's block.
func TestPrefetchCoversLeafBlocks(t *testing.T) {
	largest := leafClasses
	for cls := leafClasses; cls < len(classes); cls++ {
		if classes[cls].size > classes[largest].size {
			largest = cls
		}
	}
	const reps = 1000
	live := make([]*node, reps)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range live {
		live[i] = allocNode(nil, uint16(largest))
	}
	runtime.ReadMemStats(&after)
	// Size classes this large are multiples of 16 bytes; rounding down
	// drops what else the runtime allocated meanwhile.
	allocated := int(after.TotalAlloc-before.TotalAlloc) / reps &^ 15
	n, width, _, fam := classShape(largest)
	t.Logf("largest leaf block: n=%d width=%d family=%d, %d B in a %d B size class; prefetch %d B",
		n, width, fam, classes[largest].size, allocated, bits.PrefetchLines*64)
	if bits.PrefetchLines*64 < allocated {
		t.Errorf("a prefetch of %d lines covers %d B, but the largest leaf block takes %d B", bits.PrefetchLines, bits.PrefetchLines*64, allocated)
	}
}
