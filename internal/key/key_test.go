package key

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBit(t *testing.T) {
	k := []byte{0b10110010, 0b01000001}
	want := []uint{1, 0, 1, 1, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 1}
	for pos, w := range want {
		if got := Bit(k, pos); got != w {
			t.Errorf("Bit(%d) = %d, want %d", pos, got, w)
		}
	}
	// Past the end reads 0.
	for pos := 16; pos < 40; pos++ {
		if got := Bit(k, pos); got != 0 {
			t.Errorf("Bit(%d) past end = %d, want 0", pos, got)
		}
	}
}

func TestMismatchBit(t *testing.T) {
	cases := []struct {
		a, b  string
		pos   int
		found bool
	}{
		{"", "", 0, false},
		{"a", "a", 0, false},
		{"a", "b", 6, true},          // 'a'=0110_0001 'b'=0110_0010 differ at bit 6
		{"abc", "abd", 16 + 5, true}, // 'c'=0110_0011 'd'=0110_0100 differ at bit 5 of byte 2
		{"a", "ab", 8 + 1, true},     // 'b'=0110_0010, first 1-bit at offset 1
		{"ab", "a", 8 + 1, true},     // symmetric
		{"a\x00\x00", "a", 0, false}, // zero padding is invisible
		{"\x80", "", 0, true},        // first bit differs
		{"\x00\x01", "", 15, true},   // deep zero prefix
	}
	for _, c := range cases {
		pos, found := MismatchBit([]byte(c.a), []byte(c.b))
		if found != c.found || (found && pos != c.pos) {
			t.Errorf("MismatchBit(%q, %q) = (%d, %v), want (%d, %v)", c.a, c.b, pos, found, c.pos, c.found)
		}
	}
	// Fix the one computed inline above: 'c' vs 'd'.
	if pos, ok := MismatchBit([]byte("abc"), []byte("abd")); !ok || pos != 21 {
		t.Errorf("abc/abd: got (%d,%v), want (21,true)", pos, ok)
	}
}

func TestMismatchBitSymmetric(t *testing.T) {
	f := func(a, b []byte) bool {
		p1, ok1 := MismatchBit(a, b)
		p2, ok2 := MismatchBit(b, a)
		return p1 == p2 && ok1 == ok2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMismatchBitIsFirstDifference(t *testing.T) {
	f := func(a, b []byte) bool {
		pos, ok := MismatchBit(a, b)
		if !ok {
			// All bits equal under zero padding.
			max := 8 * len(a)
			if 8*len(b) > max {
				max = 8 * len(b)
			}
			for i := 0; i < max; i++ {
				if Bit(a, i) != Bit(b, i) {
					return false
				}
			}
			return true
		}
		if Bit(a, pos) == Bit(b, pos) {
			return false
		}
		for i := 0; i < pos; i++ {
			if Bit(a, i) != Bit(b, i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCompareMatchesMismatchBit(t *testing.T) {
	// Compare order must agree with "bit at the mismatch position" order.
	f := func(a, b []byte) bool {
		c := Compare(a, b)
		pos, ok := MismatchBit(a, b)
		if !ok {
			return c == 0
		}
		if Bit(a, pos) == 1 {
			return c > 0
		}
		return c < 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCompareAgainstBytesCompare(t *testing.T) {
	// For equal-length keys Compare must equal bytes.Compare.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		n := rng.Intn(16)
		a, b := make([]byte, n), make([]byte, n)
		rng.Read(a)
		rng.Read(b)
		if got, want := Compare(a, b), bytes.Compare(a, b); got != want {
			t.Fatalf("Compare(%x,%x)=%d want %d", a, b, got, want)
		}
	}
}

func TestEqualMatchesMismatchBit(t *testing.T) {
	f := func(a, b []byte) bool {
		_, differ := MismatchBit(a, b)
		return Equal(a, b) == !differ
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if !Equal([]byte("a\x00\x00"), []byte("a")) || Equal([]byte("a\x00\x01"), []byte("a")) {
		t.Error("zero-padding equality wrong")
	}
}

func TestByte(t *testing.T) {
	k := []byte{1, 2, 3}
	if Byte(k, 1) != 2 || Byte(k, 3) != 0 || Byte(k, 100) != 0 {
		t.Error("Byte access wrong")
	}
}

// mismatchBitRef is MismatchBit one bit at a time, through Bit.
func mismatchBitRef(a, b []byte) (int, bool) {
	for i := 0; i < 8*max(len(a), len(b)); i++ {
		if Bit(a, i) != Bit(b, i) {
			return i, true
		}
	}
	return 0, false
}

// FuzzMismatchBit compares prefix+a with prefix+b against the bit-by-bit
// reference, so that the two keys share a prefix of any length (the word
// loop), differ anywhere after it (the byte tail) and may differ in
// length with a tail of zero bytes (the padding rule).
func FuzzMismatchBit(f *testing.F) {
	f.Add([]byte{}, []byte{}, []byte{})
	f.Add([]byte("http://www.example.com/"), []byte("a"), []byte("b"))
	f.Add([]byte("01234567"), []byte{0, 0, 0}, []byte{})
	f.Add([]byte("0123456789abcdef"), []byte{0, 0, 0, 0, 0, 0, 0, 0, 1}, []byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, []byte{0x80, 0, 0, 0, 0, 0, 0, 0}, []byte{0x7f})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, []byte{9, 10, 11, 12, 13, 14, 15, 16}, []byte{9, 10, 11, 12, 13, 14, 15, 17})
	f.Fuzz(func(t *testing.T, prefix, a, b []byte) {
		ka := append(append([]byte{}, prefix...), a...)
		kb := append(append([]byte{}, prefix...), b...)
		pos, ok := MismatchBit(ka, kb)
		wantPos, wantOK := mismatchBitRef(ka, kb)
		if pos != wantPos || ok != wantOK {
			t.Fatalf("MismatchBit(%x, %x) = (%d, %v), want (%d, %v)", ka, kb, pos, ok, wantPos, wantOK)
		}
	})
}
