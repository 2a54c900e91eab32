package bits

import (
	"encoding/binary"
	"fmt"
	mathbits "math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

// pextPaths and searchPaths name every implementation the CPU can run:
// the portable one always, the native one when the CPU has it. Calling
// them directly checks both whichever one Native selects.
func pextPaths() map[string]func(v, mask uint64) uint64 {
	m := map[string]func(v, mask uint64) uint64{"go": pextGo}
	if Native {
		m["native"] = pextNative
	}
	return m
}

type searchFunc func(w, mask uint64, keys []byte, n, width int) int

func searchPaths() map[string]searchFunc {
	m := map[string]searchFunc{"go": searchGo}
	if Native {
		m["native"] = searchNative
	}
	return m
}

// searchRef is the scalar reference for Search.
func searchRef(w, mask uint64, keys []byte, n, width int) int {
	probe := Pext64Reference(w, mask)
	var m uint32
	switch width {
	case 8:
		m = Comply8Scalar(keys, n, uint8(probe))
	case 16:
		m = Comply16Scalar(keys, n, uint16(probe))
	default:
		m = Comply32Scalar(keys, n, uint32(probe))
	}
	return 31 - mathbits.LeadingZeros32(m)
}

// checkSearch compares every search path, called directly and through
// Search and SearchProbe with Native set either way, with the scalar
// reference.
func checkSearch(t *testing.T, w, mask uint64, keys []byte, n, width int) {
	t.Helper()
	want := searchRef(w, mask, keys, n, width)
	for name, search := range searchPaths() {
		if got := search(w, mask, keys, n, width); got != want {
			t.Fatalf("%s: search(%#x, %#x, % x, n=%d, width=%d) = %d, want %d", name, w, mask, keys, n, width, got, want)
		}
	}
	probe := uint32(w)
	wantProbe := searchRef(uint64(probe), ^uint64(0), keys, n, width)
	was := Native
	defer func() { Native = was }()
	for _, native := range []bool{was, false} {
		Native = native
		if got := Search(w, mask, keys, n, width); got != want {
			t.Fatalf("Search (native=%v) = %d, want %d", native, got, want)
		}
		if got := SearchProbe(probe, keys, n, width); got != wantProbe {
			t.Fatalf("SearchProbe (native=%v) = %d, want %d", native, got, wantProbe)
		}
	}
}

func TestNativeMatchesCPU(t *testing.T) {
	if Native != hasNative() {
		t.Fatalf("Native = %v, CPUID says %v", Native, hasNative())
	}
	t.Logf("native kernels: %v", Native)
}

func TestPextBasic(t *testing.T) {
	cases := []struct {
		v, mask, want uint64
	}{
		{0, 0, 0},
		{0xFFFFFFFFFFFFFFFF, 0, 0},
		{0xFFFFFFFFFFFFFFFF, 0xFFFFFFFFFFFFFFFF, 0xFFFFFFFFFFFFFFFF},
		{0b10110010, 0b11110000, 0b1011},
		{0b10110010, 0b00001111, 0b0010},
		{0x8000000000000001, 0x8000000000000001, 0b11},
		{0x8000000000000000, 0x8000000000000001, 0b10},
		{0xABCD000000000000, 0xFFF0000000000000, 0xABC},
		{0x8000000000000000, 0x8000000000000000, 1},
	}
	for name, pext := range pextPaths() {
		for _, c := range cases {
			if got := pext(c.v, c.mask); got != c.want {
				t.Errorf("%s: Pext64(%#x, %#x) = %#x, want %#x", name, c.v, c.mask, got, c.want)
			}
		}
	}
	defer func(was bool) { Native = was }(Native)
	Native = false
	for _, c := range cases {
		if got := Pext64(c.v, c.mask); got != c.want {
			t.Errorf("Pext64 with Native cleared (%#x, %#x) = %#x, want %#x", c.v, c.mask, got, c.want)
		}
	}
}

func TestPextMatchesReference(t *testing.T) {
	for name, pext := range pextPaths() {
		f := func(v, mask uint64) bool { return pext(v, mask) == Pext64Reference(v, mask) }
		if err := quick.Check(f, nil); err != nil {
			t.Fatal(name, err)
		}
		// Contiguous masks take the portable path's shift-and-mask branch;
		// random masks almost never are.
		g := func(v uint64, lo, run uint8) bool {
			mask := (^uint64(0) >> (run % 64)) << (lo % 64)
			return pext(v, mask) == Pext64Reference(v, mask)
		}
		if err := quick.Check(g, nil); err != nil {
			t.Fatal(name, err)
		}
	}
}

// TestSearchMatchesReference runs every width, every keys length and every
// n through every path, with keys built so that roughly half the lanes
// comply.
func TestSearchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, width := range []int{8, 16, 32} {
		for l := 8; l <= 4*width; l += 8 {
			keys := make([]byte, l)
			lanes := l * 8 / width
			for n := 1; n <= lanes; n++ {
				for iter := 0; iter < 8; iter++ {
					mask := rng.Uint64()
					w := rng.Uint64()
					probe := Pext64Reference(w, mask)
					for i := 0; i < lanes; i++ {
						pk := rng.Uint64()
						if rng.Intn(2) == 0 {
							pk &= probe
						}
						switch width {
						case 8:
							keys[i] = uint8(pk)
						case 16:
							binary.LittleEndian.PutUint16(keys[2*i:], uint16(pk))
						default:
							binary.LittleEndian.PutUint32(keys[4*i:], uint32(pk))
						}
					}
					checkSearch(t, w, mask, keys, n, width)
				}
			}
		}
	}
}

// FuzzSearch compares the native kernel, the portable path and the scalar
// reference over arbitrary inputs. keys is cut to a valid array for the
// chosen width: a multiple of 8 bytes, at least 8, at most 32 lanes.
func FuzzSearch(f *testing.F) {
	rng := rand.New(rand.NewSource(6))
	for sel, width := range []int{8, 16, 32} {
		for l := 8; l <= 4*width; l += 8 {
			keys := make([]byte, l)
			rng.Read(keys)
			f.Add(rng.Uint64(), rng.Uint64(), keys, uint8(rng.Intn(32)), uint8(sel))
		}
	}
	f.Fuzz(func(t *testing.T, w, mask uint64, raw []byte, n, sel uint8) {
		width := []int{8, 16, 32}[sel%3]
		l := min(len(raw), 4*width) &^ 7
		keys := make([]byte, max(l, 8))
		copy(keys, raw)
		lanes := len(keys) * 8 / width
		checkSearch(t, w, mask, keys, 1+int(n)%lanes, width)
	})
}

// pack builds a padded lane array from values.
func pack8(vals []uint8) []byte {
	pks := make([]byte, (len(vals)+7)/8*8)
	copy(pks, vals)
	return pks
}

func pack16(vals []uint16) []byte {
	pks := make([]byte, (2*len(vals)+7)/8*8)
	for i, v := range vals {
		binary.LittleEndian.PutUint16(pks[2*i:], v)
	}
	return pks
}

func pack32(vals []uint32) []byte {
	pks := make([]byte, (4*len(vals)+7)/8*8)
	for i, v := range vals {
		binary.LittleEndian.PutUint32(pks[4*i:], v)
	}
	return pks
}

func TestComply8Basic(t *testing.T) {
	pks := pack8([]uint8{0b0000, 0b0100, 0b0110, 0b1000})
	// probe 0b1100: complies with 0000, 0100, 1000 (not 0110).
	if got, want := Comply8(pks, 4, 0b1100), uint32(0b1011); got != want {
		t.Errorf("Comply8 = %#b, want %#b", got, want)
	}
	// Entry with pk 0 always complies.
	if got := Comply8(pks, 4, 0); got&1 == 0 {
		t.Errorf("pk=0 must always comply, mask %#b", got)
	}
}

func TestComplyLengths(t *testing.T) {
	// Every length 0..32 must be handled (padding lanes must not leak in).
	for n := 0; n <= 32; n++ {
		vals := make([]uint8, n)
		for i := range vals {
			vals[i] = 0xFF
		}
		pks := pack8(vals)
		if got, want := Comply8(pks, n, 0xFF), lowMask(n); got != want {
			t.Errorf("n=%d: got %#x want %#x", n, got, want)
		}
		if got := Comply8(pks, n, 0x00); got != 0 {
			t.Errorf("n=%d: non-complying lanes leaked: %#x", n, got)
		}
	}
}

func TestComply8MatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 2000; iter++ {
		n := rng.Intn(33)
		vals := make([]uint8, n)
		for i := range vals {
			vals[i] = uint8(rng.Uint32())
		}
		pks := pack8(vals)
		probe := uint8(rng.Uint32())
		if got, want := Comply8(pks, n, probe), Comply8Scalar(pks, n, probe); got != want {
			t.Fatalf("n=%d pks=%v probe=%#x: got %#x want %#x", n, vals, probe, got, want)
		}
	}
}

func TestComply16MatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 2000; iter++ {
		n := rng.Intn(33)
		vals := make([]uint16, n)
		for i := range vals {
			vals[i] = uint16(rng.Uint32())
		}
		pks := pack16(vals)
		probe := uint16(rng.Uint32())
		if got, want := Comply16(pks, n, probe), Comply16Scalar(pks, n, probe); got != want {
			t.Fatalf("n=%d pks=%v probe=%#x: got %#x want %#x", n, vals, probe, got, want)
		}
	}
}

func TestComply32MatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 2000; iter++ {
		n := rng.Intn(33)
		vals := make([]uint32, n)
		for i := range vals {
			vals[i] = rng.Uint32()
		}
		pks := pack32(vals)
		probe := rng.Uint32()
		if got, want := Comply32(pks, n, probe), Comply32Scalar(pks, n, probe); got != want {
			t.Fatalf("n=%d probe=%#x: got %#x want %#x", n, probe, got, want)
		}
	}
}

func TestPrefixMatchMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for iter := 0; iter < 2000; iter++ {
		n := rng.Intn(33)
		vals8 := make([]uint8, n)
		vals16 := make([]uint16, n)
		vals32 := make([]uint32, n)
		for i := range vals8 {
			vals8[i] = uint8(rng.Uint32())
			vals16[i] = uint16(rng.Uint32())
			vals32[i] = rng.Uint32()
		}
		pm8 := uint8(rng.Uint32())
		p8 := uint8(rng.Uint32()) & pm8
		if got, want := PrefixMatch8(pack8(vals8), n, p8, pm8), PrefixMatch8Scalar(pack8(vals8), n, p8, pm8); got != want {
			t.Fatalf("8-bit n=%d: got %#x want %#x", n, got, want)
		}
		pm16 := uint16(rng.Uint32())
		p16 := uint16(rng.Uint32()) & pm16
		if got, want := PrefixMatch16(pack16(vals16), n, p16, pm16), PrefixMatch16Scalar(pack16(vals16), n, p16, pm16); got != want {
			t.Fatalf("16-bit n=%d: got %#x want %#x", n, got, want)
		}
		pm32 := rng.Uint32()
		p32 := rng.Uint32() & pm32
		if got, want := PrefixMatch32(pack32(vals32), n, p32, pm32), PrefixMatch32Scalar(pack32(vals32), n, p32, pm32); got != want {
			t.Fatalf("32-bit n=%d: got %#x want %#x", n, got, want)
		}
	}
}

func TestMovemasks(t *testing.T) {
	for lane := 0; lane < 8; lane++ {
		if got := movemask8(uint64(0x80) << (8 * lane)); got != 1<<lane {
			t.Errorf("movemask8 lane %d: got %#x", lane, got)
		}
	}
	for lane := 0; lane < 4; lane++ {
		if got := movemask16(uint64(0x8000) << (16 * lane)); got != 1<<lane {
			t.Errorf("movemask16 lane %d: got %#x", lane, got)
		}
	}
	for lane := 0; lane < 2; lane++ {
		if got := movemask32(uint64(0x80000000) << (32 * lane)); got != 1<<lane {
			t.Errorf("movemask32 lane %d: got %#x", lane, got)
		}
	}
	if movemask8(hi8) != 0xFF || movemask16(hi16) != 0xF || movemask32(hi32) != 0x3 {
		t.Error("all-lanes movemask wrong")
	}
}

func BenchmarkComply8SWAR(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	vals := make([]uint8, 32)
	for i := range vals {
		vals[i] = uint8(rng.Uint32())
	}
	pks := pack8(vals)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Comply8(pks, 32, uint8(i))
	}
}

func BenchmarkComply8Scalar(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	vals := make([]uint8, 32)
	for i := range vals {
		vals[i] = uint8(rng.Uint32())
	}
	pks := pack8(vals)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Comply8Scalar(pks, 32, uint8(i))
	}
}

func BenchmarkComply16SWAR(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	vals := make([]uint16, 32)
	for i := range vals {
		vals[i] = uint16(rng.Uint32())
	}
	pks := pack16(vals)
	for i := 0; i < b.N; i++ {
		_ = Comply16(pks, 32, uint16(i))
	}
}

var sink int

// BenchmarkSearch is one node visit's search per partial-key width and
// path, on a full 32-entry node whose mask scatters width-1 bits (the
// most a node of that width uses), with every other lane complying.
func BenchmarkSearch(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	for _, width := range []int{8, 16, 32} {
		var mask uint64
		for mathbits.OnesCount64(mask) < width-1 {
			mask |= 1 << rng.Intn(64)
		}
		var words [256]uint64
		for i := range words {
			words[i] = rng.Uint64()
		}
		keys := make([]byte, 4*width)
		for i := 0; i < 32; i++ {
			pk := rng.Uint64()
			if i%2 == 0 {
				pk &= Pext64Reference(words[i], mask)
			}
			switch width {
			case 8:
				keys[i] = uint8(pk)
			case 16:
				binary.LittleEndian.PutUint16(keys[2*i:], uint16(pk))
			default:
				binary.LittleEndian.PutUint32(keys[4*i:], uint32(pk))
			}
		}
		for _, name := range []string{"native", "go"} {
			search, ok := searchPaths()[name]
			b.Run(fmt.Sprintf("%d/%s", width, name), func(b *testing.B) {
				if !ok {
					b.Skip("no native kernels on this CPU")
				}
				for i := 0; i < b.N; i++ {
					sink += search(words[i&255], mask, keys, 32, width)
				}
			})
		}
	}
}

func BenchmarkPext64(b *testing.B) {
	for _, name := range []string{"native", "go"} {
		pext, ok := pextPaths()[name]
		b.Run(name, func(b *testing.B) {
			if !ok {
				b.Skip("no native kernels on this CPU")
			}
			for i := 0; i < b.N; i++ {
				sink += int(pext(uint64(i)*0x9E3779B97F4A7C15, 0x00FF00FF00FF00FF))
			}
		})
	}
}

func BenchmarkPext64Reference(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = Pext64Reference(uint64(i)*0x9E3779B97F4A7C15, 0x00FF00FF00FF00FF)
	}
}
