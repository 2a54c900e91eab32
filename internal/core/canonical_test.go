package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/hotindex/hot/internal/bits"
	"github.com/hotindex/hot/internal/dataset"
	"github.com/hotindex/hot/internal/tidstore"
)

func TestInsertColumn(t *testing.T) {
	// 3 columns, pk bits: col0→bit2, col1→bit1, col2→bit0.
	// Insert a new column at position 1: old col0→bit3, new→bit2, col1→bit1, col2→bit0.
	if got := insertColumn(0b111, 3, 1); got != 0b1011 {
		t.Errorf("insertColumn(0b111,3,1) = %#b, want 0b1011", got)
	}
	// Insert at front (pos 0): everything shifts down one.
	if got := insertColumn(0b111, 3, 0); got != 0b0111 {
		t.Errorf("insertColumn front = %#b", got)
	}
	// Insert at back (pos 3): everything shifts up one.
	if got := insertColumn(0b111, 3, 3); got != 0b1110 {
		t.Errorf("insertColumn back = %#b", got)
	}
}

func TestCanonicalizeKeepsCanonical(t *testing.T) {
	// A 7-entry trie in the style of Figure 5 with discriminative bits
	// {3,4,6,8,9}; bit 8 discriminates in two different subtrees.
	d := []uint16{3, 4, 6, 8, 9}
	pks := []uint32{
		0b00000, // leaf under 0-branches only
		0b01000, // bit 4 path
		0b01010, // bits 4, 8
		0b10000, // bit 3
		0b10001, // bits 3, 9
		0b10100, // bits 3, 6
		0b10110, // bits 3, 6, 8
	}
	nd, npks := canonicalize(d, pks, nil, nil)
	if fmt.Sprint(nd) != fmt.Sprint(d) {
		t.Errorf("columns changed: %v", nd)
	}
	if fmt.Sprint(npks) != fmt.Sprint(pks) {
		t.Errorf("pks changed: %v, want %v", npks, pks)
	}
}

func TestCanonicalizeDropsDeadColumn(t *testing.T) {
	// Two entries that only differ at column 1 of 2: column 0 is dead.
	d := []uint16{5, 9}
	pks := []uint32{0b00, 0b01}
	nd, npks := canonicalize(d, pks, nil, nil)
	if fmt.Sprint(nd) != fmt.Sprint([]uint16{9}) {
		t.Errorf("columns = %v, want [9]", nd)
	}
	if npks[0] != 0 || npks[1] != 1 {
		t.Errorf("pks = %v", npks)
	}
}

func TestCanonicalizeAfterRemoval(t *testing.T) {
	// Build canonical pks for sorted random keys over explicit bit columns,
	// remove an entry, re-canonicalize and compare against pks rebuilt from
	// scratch on the surviving keys.
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 500; trial++ {
		n := 3 + rng.Intn(29)
		keyBits := 5 + rng.Intn(11)
		seen := map[uint32]bool{}
		keys := make([]uint32, 0, n)
		for len(keys) < n {
			k := rng.Uint32() & lowMask32(keyBits)
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

		build := func(keys []uint32) ([]uint16, []uint32) {
			// All bit positions as columns, then canonicalize to minimal form.
			d := make([]uint16, keyBits)
			for i := range d {
				d[i] = uint16(i)
			}
			pks := make([]uint32, len(keys))
			for i, k := range keys {
				pks[i] = k // dense: column j = bit keyBits-1-j = key bit j
			}
			return canonicalize(d, pks, nil, nil)
		}
		d0, pks0 := build(keys)

		// canonicalize must be idempotent.
		d1, pks1 := canonicalize(d0, pks0, nil, nil)
		if fmt.Sprint(d1) != fmt.Sprint(d0) || fmt.Sprint(pks1) != fmt.Sprint(pks0) {
			t.Fatalf("not idempotent: %v/%v vs %v/%v", d0, pks0, d1, pks1)
		}

		// Remove one entry: recanonicalizing the stale pks must equal the
		// from-scratch build on the surviving keys.
		ri := rng.Intn(n)
		survivors := append(append([]uint32{}, keys[:ri]...), keys[ri+1:]...)
		if len(survivors) < 2 {
			continue
		}
		stale := append(append([]uint32{}, pks0[:ri]...), pks0[ri+1:]...)
		gd, gpks := canonicalize(d0, stale, nil, nil)
		wd, wpks := build(survivors)
		if fmt.Sprint(gd) != fmt.Sprint(wd) || fmt.Sprint(gpks) != fmt.Sprint(wpks) {
			t.Fatalf("removal recanonicalize mismatch:\nkeys=%b remove %d\ngot  %v %v\nwant %v %v",
				keys, ri, gd, gpks, wd, wpks)
		}
	}
}

// specNode returns a node over the discriminative bits d for the
// extraction tests: len(d)+1 leaf entries with placeholder partial keys.
func specNode(d []uint16) *node {
	n := len(d) + 1
	pks := make([]uint32, n)
	slots := make([]slot, n)
	for i := range pks {
		pks[i], slots[i] = uint32(i), leafSlot(TID(i))
	}
	return newNode(nil, 1, d, pks, slots)
}

// extract returns k's dense partial key the way search extracts it for
// nd's kind.
func (nd *node) extract(k []byte) uint32 {
	switch nd.kind {
	case extractSingle:
		return uint32(bits.Pext64(beWindow(k, int(nd.offs[0])), nd.mask))
	case extractMulti8:
		return uint32(bits.Pext64(nd.gather(k), nd.mask))
	}
	return nd.extractMulti(k)
}

func TestBuildSpecSingleVsMulti(t *testing.T) {
	// Bits within one 8-byte window → single mask.
	nd := specNode([]uint16{3, 9, 60})
	if nd.kind != extractSingle || nd.offs[0] != 0 {
		t.Errorf("header = %+v, want single mask at byte 0", *nd)
	}
	// Spread beyond 64 bits → multi mask.
	nd = specNode([]uint16{3, 200})
	if nd.kind != extractMulti8 || nd.noff != 2 {
		t.Errorf("header = %+v, want multi8 with 2 offsets", *nd)
	}
	// >8 distinct bytes → still multi8 up to 8, then multi16.
	var d []uint16
	for i := 0; i < 9; i++ {
		d = append(d, uint16(i*100))
	}
	if nd = specNode(d); nd.kind != extractMulti16 {
		t.Errorf("9 bytes spread: kind = %v, want multi16", nd.kind)
	}
}

func TestExtractMatchesBitByBit(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 1000; trial++ {
		keyLen := 1 + rng.Intn(64)
		k := make([]byte, keyLen)
		rng.Read(k)
		maxCols := 31
		if keyLen*8 < maxCols {
			maxCols = keyLen * 8
		}
		ncols := 1 + rng.Intn(maxCols)
		seen := map[uint16]bool{}
		var d []uint16
		for len(d) < ncols {
			p := uint16(rng.Intn(keyLen * 8))
			if !seen[p] {
				seen[p] = true
				d = append(d, p)
			}
		}
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
		nd := specNode(d)
		got := nd.extract(k)
		var want uint32
		for _, p := range d {
			want = want<<1 | uint32(k[p>>3]>>(7-(p&7))&1)
		}
		if got != want {
			t.Fatalf("extract mismatch: key=%x d=%v kind=%v got=%#b want=%#b", k, d, nd.kind, got, want)
		}
	}
}

func TestExtractPastKeyEnd(t *testing.T) {
	// Bits beyond the key read as zero in every layout.
	k := []byte{0xFF}
	for _, d := range [][]uint16{{0, 50}, {0, 200}, {0, 100, 300, 900}} {
		got := specNode(d).extract(k)
		if got>>uint(len(d)-1) != 1 || got&lowMask32(len(d)-1) != 0 {
			t.Errorf("d=%v: got %#b", d, got)
		}
	}
}

// TestSearchPathsAgree checks that every node of a trie over each data set
// picks the same candidate on the native kernels as on the portable path,
// for probes that are present, absent and routed elsewhere.
func TestSearchPathsAgree(t *testing.T) {
	if !bits.Native {
		t.Skip("no native kernels on this CPU: the portable path is the only one")
	}
	defer func() { bits.Native = true }()
	rng := rand.New(rand.NewSource(24))
	for _, kind := range dataset.Kinds() {
		keys := dataset.Generate(kind, 20000, 1)
		s := &tidstore.Store{}
		tr := New(s.Key)
		for _, k := range keys[:10000] {
			tr.Insert(k, s.Add(k))
		}
		var census [numLayouts]int
		var walk func(nd *node)
		walk = func(nd *node) {
			census[nd.layout()]++
			for i := 0; i < 100; i++ {
				k := keys[rng.Intn(len(keys))]
				bits.Native = true
				want := nd.search(k)
				bits.Native = false
				if got := nd.search(k); got != want {
					t.Fatalf("%v: %v node, key %x: go path %d, native %d", kind, nd.layout(), k, got, want)
				}
			}
			for i := range int(nd.n) {
				if c := nd.child(i); c != nil {
					walk(c)
				}
			}
		}
		walk(tr.root.Load().n)
		t.Logf("%v: nodes per layout %v", kind, census)
	}
}
