package core

import (
	"fmt"
	mathbits "math/bits"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"github.com/hotindex/hot/internal/bits"
	"github.com/hotindex/hot/internal/key"
)

// TestNodeClassAlignment checks that every class places its values — a
// leaf class's TID array, an inner class's slots and so every slot's tid —
// at a multiple of 8 bytes from the block's start, which Go aligns to 8
// bytes (the first word of an allocated struct): a 64-bit atomic faults on
// a word that is not 8-byte aligned on 32-bit targets (`GOARCH=386 go
// test` runs this), and a misaligned class should fail here by name rather
// than in a random store.
func TestNodeClassAlignment(t *testing.T) {
	tidOff := unsafe.Offsetof(slot{}.tid)
	for cls, c := range classes {
		if c.typ == nil {
			continue
		}
		n, width, leaf, fam := classShape(cls)
		name := fmt.Sprintf("n=%d/width=%d/leaf=%v/family=%d", n, width, leaf, fam)
		if got := classOf(n, width, leaf, fam); int(got) != cls {
			t.Fatalf("class %d: shape %s maps back to class %d", cls, name, got)
		}
		vals := c.typ.Field(2).Offset
		if leaf {
			if vals%8 != 0 || tidSize != 8 {
				t.Errorf("class %s: TIDs at %d, TID size %d: TIDs not 8-byte aligned", name, vals, tidSize)
			}
			continue
		}
		if vals%8 != 0 || (vals+tidOff)%8 != 0 || slotSize%8 != 0 {
			t.Errorf("class %s: slots at %d, tid at +%d, slot size %d: tid not 8-byte aligned",
				name, vals, tidOff, slotSize)
		}
	}
	// A shape no class takes (2 entries have 8-bit keys) must reach a class
	// without a type, so allocating it panics instead of handing out a
	// smaller block.
	if cls := classOf(2, 32, true, famSingle); classes[cls].typ != nil {
		t.Errorf("shape n=2/width=32 maps to class %d, which has a type", cls)
	}
}

// TestNodeClassPointers walks every class's Go type: a leaf class must
// hold no pointer, so the GC allocates its blocks noscan, and an inner
// class exactly its slots' child words.
func TestNodeClassPointers(t *testing.T) {
	childOff := unsafe.Offsetof(slot{}.child)
	for cls, c := range classes {
		if c.typ == nil {
			continue
		}
		n, width, leaf, _ := classShape(cls)
		got := pointerWords(c.typ, 0, nil)
		var want []uintptr
		if !leaf {
			vals := uintptr(headerSize + keyBytes(n, width))
			for i := range n {
				want = append(want, vals+uintptr(i*slotSize)+childOff)
			}
		}
		if !slices.Equal(got, want) {
			t.Errorf("class n=%d/width=%d/leaf=%v: pointers at %v, want %v", n, width, leaf, got, want)
		}
	}
}

// pointerWords appends the offsets of every pointer-holding field of typ,
// placed at base, to dst in ascending order.
func pointerWords(typ reflect.Type, base uintptr, dst []uintptr) []uintptr {
	switch typ.Kind() {
	case reflect.Struct:
		for i := range typ.NumField() {
			dst = pointerWords(typ.Field(i).Type, base+typ.Field(i).Offset, dst)
		}
	case reflect.Array:
		for i := range typ.Len() {
			dst = pointerWords(typ.Elem(), base+uintptr(i)*typ.Elem().Size(), dst)
		}
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Chan, reflect.Func,
		reflect.Interface, reflect.Slice, reflect.String:
		dst = append(dst, base)
	}
	return dst
}

// FuzzNodeBlock builds a node from random sorted discriminative bits,
// partial keys and slots — a leaf node at height 1, an inner node with
// some child entries above — checks every accessor against its inputs,
// also after the block went through the pool, and checks search against a
// linear scan with the scalar comply reference, on both search paths.
// Then it canonicalizes the same keys into a valid node and checks the
// in-block splice and slot replacement against the decoded oracle (see
// checkSplices).
func FuzzNodeBlock(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(8), uint16(40), []byte("http://example.com/a"))
	f.Add(int64(2), uint8(32), uint8(31), uint16(2000), []byte("x"))
	f.Add(int64(3), uint8(2), uint8(1), uint16(1), []byte{})
	f.Add(int64(4), uint8(18), uint8(12), uint16(900), []byte("\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff"))
	f.Add(int64(5), uint8(9), uint8(7), uint16(2000), []byte("\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff"))
	f.Fuzz(func(t *testing.T, seed int64, nIn, colsIn uint8, spread uint16, k []byte) {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nIn)%(MaxFanout-1)
		// n distinct partial keys need at least Len(n-1) columns.
		ncols := max(1+int(colsIn)%(n-1), mathbits.Len(uint(n-1)))
		span := max(ncols, 1+int(spread)%2048)

		d := make([]uint16, 0, ncols)
		for _, p := range rng.Perm(span)[:ncols] {
			d = append(d, uint16(p))
		}
		slices.Sort(d)
		pks := []uint32{0}
		for len(pks) < n {
			if p := uint32(rng.Int63n(1 << ncols)); !slices.Contains(pks, p) {
				pks = append(pks, p)
			}
		}
		slices.Sort(pks)
		child := specNode([]uint16{0})
		height := uint8(1 + rng.Intn(8))
		slots := make([]slot, n)
		for i := range slots {
			if height > 1 && rng.Intn(4) == 0 {
				slots[i] = childSlot(child)
			} else {
				slots[i] = leafSlot(TID(rng.Int63()))
			}
		}

		pool := &nodePool{}
		nd := newNode(pool, height, d, pks, slots)
		checkBlock(t, nd, height, d, pks, slots, k)
		pool.put(nd)
		if again := newNode(pool, height, d, pks, slots); again != nd {
			t.Fatal("pool did not hand back the block of the same class")
		}
		checkBlock(t, nd, height, d, pks, slots, k)
		checkSplices(t, rng, d, pks, span)
	})
}

// checkBlock checks nd against the inputs it was built from.
func checkBlock(t *testing.T, nd *node, height uint8, d []uint16, pks []uint32, slots []slot, k []byte) {
	t.Helper()
	n := len(slots)
	if int(nd.n) != n || nd.height != height || !slices.Equal(nd.dbits(nil), d) || !slices.Equal(nd.pks(nil), pks) {
		t.Fatalf("header n=%d h=%d dbits=%v pks=%v, want n=%d h=%d dbits=%v pks=%v",
			nd.n, nd.height, nd.dbits(nil), nd.pks(nil), n, height, d, pks)
	}
	for c := range d {
		for _, p := range []uint16{d[c] - 1, d[c], d[c] + 1} {
			want, wantPresent := slices.BinarySearch(d, p)
			if got, present := nd.columnOf(p); got != want || present != wantPresent {
				t.Fatalf("columnOf(%d) = %d, %v, want %d, %v (dbits %v)", p, got, present, want, wantPresent, d)
			}
		}
	}
	for i := range slots {
		pm := d[nd.pathMaxCol(i)]
		for _, p := range []uint16{0, pm - 1, pm, pm + 1, d[len(d)-1] + 1} {
			if got := nd.beforePathMax(i, p); got != (p < pm) {
				t.Fatalf("entry %d: beforePathMax(%d) = %v, path max bit %d (dbits %v)", i, p, got, pm, d)
			}
		}
	}
	if nd.isLeaf() != (height == 1) || nd.goBytes() != int(classes[nd.cls].typ.Size()) ||
		nd.kind.family() != classes[nd.cls].fam || len(nd.tail()) > int(classes[nd.cls].tail) {
		t.Fatalf("height %d: class %d, leaf=%v, %d bytes, %v spec with a tail of %d", height, nd.cls, nd.isLeaf(), nd.goBytes(), nd.layout(), len(nd.tail()))
	}
	for i := range slots {
		c, tid := nd.entry(i)
		if c != slots[i].loadChild() || c != nd.child(i) || (c == nil && tid != slots[i].tid) {
			t.Fatalf("entry %d = (%p, %d), want (%p, %d)", i, c, tid, slots[i].loadChild(), slots[i].tid)
		}
	}
	if got := nd.appendSlots(nil, 0, n); !slices.Equal(got, slots) {
		t.Fatalf("appendSlots = %v, want %v", got, slots)
	}
	if nd.isObsolete() {
		t.Fatal("fresh node is obsolete")
	}

	// The layout follows from the bits alone.
	width := pkWidth(len(d))
	first := int(d[0]) / 8 * 8
	pairs := keyBytesSpanned(d)
	var want layoutKind
	paper := 8 + n*int(width)/8 + n*8
	switch {
	case int(d[len(d)-1])-first < 64:
		want = [...]layoutKind{8: LayoutSingle8, 16: LayoutSingle16, 32: LayoutSingle32}[width]
		paper += 9
	case pairs <= 8:
		want = [...]layoutKind{8: LayoutMulti8x8, 16: LayoutMulti8x16, 32: LayoutMulti8x32}[width]
		paper += 2 * pairs
	case pairs <= 16:
		want = [...]layoutKind{16: LayoutMulti16x16, 32: LayoutMulti16x32}[width]
		paper += 2 * pairs
	default:
		want, paper = LayoutMulti32x32, paper+2*pairs
	}
	if nd.layout() != want || nd.paperBytes() != paper {
		t.Fatalf("layout %v, paperBytes %d; want %v, %d", nd.layout(), nd.paperBytes(), want, paper)
	}

	// Extraction gathers k's bits at d; search picks the highest entry
	// whose partial key complies with them.
	var probe uint32
	for _, p := range d {
		probe = probe<<1 | uint32(key.Bit(k, int(p)))
	}
	if got := nd.extract(k); got != probe {
		t.Fatalf("extract(%x) = %#b, want %#b (dbits %v)", k, got, probe, d)
	}
	var m uint32
	switch width {
	case 8:
		m = bits.Comply8Scalar(nd.keys(), n, uint8(probe))
	case 16:
		m = bits.Comply16Scalar(nd.keys(), n, uint16(probe))
	default:
		m = bits.Comply32Scalar(nd.keys(), n, probe)
	}
	wantIdx := mathbits.Len32(m) - 1
	native := bits.Native
	defer func() { bits.Native = native }()
	for _, bits.Native = range []bool{native, false} {
		if got := nd.search(k); got != wantIdx {
			t.Fatalf("native=%v: search(%x) = %d, want %d (probe %#b, pks %v, dbits %v)",
				bits.Native, k, got, wantIdx, probe, pks, d)
		}
	}
}
