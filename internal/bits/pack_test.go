package bits

import (
	"math/rand"
	"testing"
)

// unpackAll is the naive reference: read every value back with PackedAt.
func unpackAll(src []byte, n int, width uint) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = PackedAt(src, i, width)
	}
	return out
}

func TestPackedLen(t *testing.T) {
	cases := []struct {
		n     int
		width uint
		want  int
	}{
		{0, 0, 0}, {10, 0, 0}, {1, 1, 1}, {8, 1, 1}, {9, 1, 2},
		{1, 64, 8}, {3, 64, 24}, {5, 13, 9}, {7, 7, 7},
	}
	for _, c := range cases {
		if got := PackedLen(c.n, c.width); got != c.want {
			t.Errorf("PackedLen(%d, %d) = %d, want %d", c.n, c.width, got, c.want)
		}
	}
}

func TestPackWidth(t *testing.T) {
	cases := []struct {
		max  uint64
		want uint
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {255, 8}, {256, 9},
		{1<<63 - 1, 63}, {1 << 63, 64}, {^uint64(0), 64},
	}
	for _, c := range cases {
		if got := PackWidth(c.max); got != c.want {
			t.Errorf("PackWidth(%d) = %d, want %d", c.max, got, c.want)
		}
	}
}

// TestPackRoundTrip packs random values at every width and reads each one
// back, for lengths that exercise the accumulator spill and tail paths.
func TestPackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for width := uint(0); width <= 64; width++ {
		for _, n := range []int{0, 1, 2, 7, 8, 9, 63, 64, 65, 200} {
			vals := make([]uint64, n)
			var mask uint64
			if width == 64 {
				mask = ^uint64(0)
			} else {
				mask = 1<<width - 1
			}
			for i := range vals {
				vals[i] = rng.Uint64() & mask
			}
			packed := AppendPacked(nil, vals, width)
			if got, want := len(packed), PackedLen(n, width); got != want {
				t.Fatalf("width %d n %d: packed %d bytes, want %d", width, n, got, want)
			}
			got := unpackAll(packed, n, width)
			for i := range vals {
				if got[i] != vals[i] {
					t.Fatalf("width %d n %d: value %d = %#x, want %#x", width, n, i, got[i], vals[i])
				}
			}
		}
	}
}

// TestPackedAtEveryIndex reads back every index of streams of 1 to 24
// values at every width: a value whose first byte has 8 bytes behind it is
// one word load, and the last values of each stream (every value of a
// stream under 8 bytes, and every value wider than 56 bits) take the byte
// loop, so both paths and the boundary between them meet AppendPacked's
// input, including all-ones values that fill their width.
func TestPackedAtEveryIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for width := uint(0); width <= 64; width++ {
		mask := ^uint64(0)
		if width < 64 {
			mask = 1<<width - 1
		}
		for n := 1; n <= 24; n++ {
			vals := make([]uint64, n)
			for i := range vals {
				if vals[i] = rng.Uint64() & mask; i%3 == 0 {
					vals[i] = mask
				}
			}
			packed := AppendPacked(nil, vals, width)
			for i, want := range vals {
				if got := PackedAt(packed, i, width); got != want {
					t.Fatalf("width %d, %d values: PackedAt(%d) = %#x, want %#x", width, n, i, got, want)
				}
			}
		}
	}
}

// TestPackTruncatesWide verifies values wider than the declared width keep
// only their low bits, matching the doc contract.
func TestPackTruncatesWide(t *testing.T) {
	packed := AppendPacked(nil, []uint64{0xFFFF, 0x10F}, 8)
	if got := PackedAt(packed, 0, 8); got != 0xFF {
		t.Fatalf("PackedAt(0) = %#x, want 0xFF", got)
	}
	if got := PackedAt(packed, 1, 8); got != 0x0F {
		t.Fatalf("PackedAt(1) = %#x, want 0x0F", got)
	}
}

// TestPackAppendsToPrefix verifies AppendPacked respects existing bytes in
// dst, the contract the block encoder relies on when assembling payloads.
func TestPackAppendsToPrefix(t *testing.T) {
	prefix := []byte{0xAA, 0xBB}
	vals := []uint64{5, 6, 7}
	packed := AppendPacked(append([]byte(nil), prefix...), vals, 3)
	if packed[0] != 0xAA || packed[1] != 0xBB {
		t.Fatalf("prefix clobbered: % x", packed[:2])
	}
	for i, v := range vals {
		if got := PackedAt(packed[2:], i, 3); got != v {
			t.Fatalf("value %d = %d, want %d", i, got, v)
		}
	}
}

func BenchmarkAppendPacked(b *testing.B) {
	vals := make([]uint64, 512)
	rng := rand.New(rand.NewSource(2))
	for i := range vals {
		vals[i] = rng.Uint64() & (1<<20 - 1)
	}
	var dst []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst = AppendPacked(dst[:0], vals, 20)
	}
}

func BenchmarkPackedAt(b *testing.B) {
	vals := make([]uint64, 512)
	rng := rand.New(rand.NewSource(3))
	for i := range vals {
		vals[i] = rng.Uint64() & (1<<20 - 1)
	}
	packed := AppendPacked(nil, vals, 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = PackedAt(packed, i&511, 20)
	}
}
