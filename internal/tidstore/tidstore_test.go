package tidstore

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"unsafe"

	"github.com/hotindex/hot/internal/dataset"
)

func TestAddKey(t *testing.T) {
	var s Store
	keys := []string{"", "a", "hello world", "with\x00zero"}
	tids := make([]uint64, len(keys))
	for i, k := range keys {
		tids[i] = s.AddString(k)
	}
	for i, k := range keys {
		if got := s.Key(tids[i], nil); string(got) != k {
			t.Errorf("Key(%d) = %q, want %q", tids[i], got, k)
		}
	}
	if s.Len() != len(keys) {
		t.Errorf("Len = %d", s.Len())
	}
	want := 0
	for _, k := range keys {
		want += len(k)
	}
	if s.Bytes() != want {
		t.Errorf("Bytes = %d, want %d", s.Bytes(), want)
	}
}

func TestDenseTIDs(t *testing.T) {
	var s Store
	for i := 0; i < 100; i++ {
		if tid := s.Add([]byte{byte(i)}); tid != uint64(i) {
			t.Fatalf("tid %d for insert %d", tid, i)
		}
	}
}

func TestKeyStableAcrossGrowth(t *testing.T) {
	var s Store
	tid := s.AddString("first")
	got := s.Key(tid, nil)
	for i := 0; i < 10000; i++ {
		s.AddString("fillerfillerfiller")
	}
	if string(got) != "first" {
		t.Error("previously returned key corrupted by arena growth")
	}
	if string(s.Key(tid, nil)) != "first" {
		t.Error("key lost after growth")
	}
}

func TestUint64Key(t *testing.T) {
	buf := make([]byte, 0, 8)
	k := Uint64Key(0x0123456789ABCDEF, buf)
	if len(k) != 8 || binary.BigEndian.Uint64(k) != 0x0123456789ABCDEF {
		t.Errorf("Uint64Key = %x", k)
	}
	// Order preservation.
	a := Uint64Key(100, nil)
	b := Uint64Key(200, make([]byte, 0, 8))
	if bytes.Compare(a, b) >= 0 {
		t.Error("Uint64Key is not order-preserving")
	}
}

func TestOversizeKeyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for oversize key")
		}
	}()
	var s Store
	s.Add(make([]byte, maxKeyLen+1))
}

func TestNeverAddedTIDPanics(t *testing.T) {
	var s Store
	mustPanic(t, &s, 0)
	for i := 0; i < 3; i++ {
		s.Add(make([]byte, 8)) // data's capacity now runs past the third key
	}
	mustPanic(t, &s, 3)
	mustPanic(t, &s, 1<<63)
	// The empty key lays the keys out in 16-byte slots. 20- and then
	// 40-byte keys go to long until it holds 16 slots' bytes, and then
	// lay the keys out again in 32- and 64-byte slots; 70-byte keys stay
	// in long.
	for _, c := range []struct{ width, sw int }{{0, 16}, {20, 32}, {40, 64}, {70, 64}} {
		for i := 0; s.sw != uint64(c.sw) || i == 0; i++ {
			if i == 32 {
				t.Fatalf("%d-byte keys left %d-byte slots, want %d", c.width, s.sw, c.sw)
			}
			s.Add(make([]byte, c.width))
		}
		mustPanic(t, &s, uint64(s.Len()))
		for range 3 {
			s.Add(make([]byte, c.width))
		}
		mustPanic(t, &s, uint64(s.Len()))
		// tid*sw wraps to a stored slot's offset for these.
		for _, tid := range []uint64{1 << 58, 1 << 59, 1 << 62, 1 << 63} {
			mustPanic(t, &s, tid)
		}
	}
	if len(*s.long) != 4*70 {
		t.Fatalf("%d bytes in long, want the four 70-byte keys", len(*s.long))
	}
}

// mustPanic fails unless Key(tid) panics.
func mustPanic(t *testing.T, s *Store, tid uint64) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("Key(%d) of a %d-key store did not panic", tid, s.Len())
		}
	}()
	s.Key(tid, nil)
}

// boundaryWidths are the key widths around each slot's capacity (15, 31
// and 63 bytes).
var boundaryWidths = []int{14, 15, 16, 17, 30, 31, 32, 33, 62, 63, 64, 65, 66}

// FuzzStore adds keys in runs of one width, then another — each pair of
// input bytes is a run: its length, and a width that is empty, MaxKeyLen,
// short or at a slot boundary — and after every Add holds every Key, Len
// and Bytes to a [][]byte model, checks that the next TID is not there
// yet, and that every key slice handed out before, across any lay-out
// since, still reads its model.
func FuzzStore(f *testing.F) {
	f.Add(int64(1), []byte{0x12, 8, 0x02, 8, 0x07, 3})
	f.Add(int64(2), []byte{0x00, 0, 0x1c, 8})
	f.Add(int64(3), []byte{0x05, 0, 0x01, 0, 0x32, 16})
	// Runs of 16 keys of 8 bytes, then 15 (16-byte slots), 31 and 63
	// (too long for the slots: a run fills long and lays them out again)
	// and 64 (long).
	f.Add(int64(4), []byte{0x3e, 8, 0x3f, 1, 0x3f, 5, 0x3f, 5, 0x3f, 9, 0x3f, 9, 0x3f, 10})
	f.Fuzz(func(t *testing.T, seed int64, runs []byte) {
		rng := rand.New(rand.NewSource(seed))
		var s Store
		var model, held [][]byte
		size := 0
		for i := 0; i+1 < len(runs) && len(model) < 256; i += 2 {
			var width int
			switch runs[i] % 4 {
			case 0:
				width = 0
			case 1:
				width = maxKeyLen
			case 2:
				width = int(runs[i+1]) % 24
			case 3:
				width = boundaryWidths[int(runs[i+1])%len(boundaryWidths)]
			}
			for range 1 + int(runs[i]>>2)%16 {
				k := make([]byte, width)
				rng.Read(k)
				if tid := s.Add(k); tid != uint64(len(model)) {
					t.Fatalf("Add returned TID %d, want %d", tid, len(model))
				}
				model = append(model, bytes.Clone(k))
				size += width
				if width > 0 {
					k[0]++ // the store holds its own copy
				}
				for tid, want := range model {
					if got := s.Key(uint64(tid), nil); !bytes.Equal(got, want) {
						t.Fatalf("after %d adds: Key(%d) = %x, want %x", len(model), tid, got, want)
					}
				}
				for tid, got := range held {
					if !bytes.Equal(got, model[tid]) {
						t.Fatalf("after %d adds: Key(%d) handed out before reads %x, want %x", len(model), tid, got, model[tid])
					}
				}
				held = append(held, s.Key(uint64(len(held)), nil))
				if s.Len() != len(model) || s.Bytes() != size {
					t.Fatalf("Len, Bytes = %d, %d; want %d, %d", s.Len(), s.Bytes(), len(model), size)
				}
				mustPanic(t, &s, uint64(len(model)))
			}
		}
	})
}

// TestStoreFootprint holds the arena of 200 k keys of each data set to the
// layout it should take, against the offset table it replaced (the keys
// back to back plus 8 bytes a key), and checks that the header fits a
// cache line and that an arena past 32 KB starts on one, so no 64-byte
// slot straddles two.
func TestStoreFootprint(t *testing.T) {
	const n = 200_000
	if size := unsafe.Sizeof(Store{}); size > 64 {
		t.Fatalf("a %d-byte Store header spans two cache lines", size)
	}
	for _, c := range []struct {
		kind  dataset.Kind
		sw    uint64
		bound float64 // of the offset table's bytes per key
	}{
		// 64-byte slots: 2.2 % of url keys are 64 to 67 bytes and take a
		// slot and their bytes in long, so the arena is 0.8 % larger
		// than the table's.
		{dataset.URL, 64, 1.01},
		// 32-byte slots: 132 of 1 M email keys are 32 to 35 bytes and
		// go to long.
		{dataset.Email, 32, 1.15},
		// One width: stride, no slots, nothing beside the keys.
		{dataset.Integer, 0, 0},
		{dataset.Yago, 0, 0},
	} {
		t.Run(c.kind.String(), func(t *testing.T) {
			var s Store
			for _, k := range dataset.Generate(c.kind, n, 1) {
				s.Add(k)
				if len(s.data) > 32<<10 && uintptr(unsafe.Pointer(unsafe.SliceData(s.data)))%64 != 0 {
					t.Fatalf("a %d-byte arena starts at %p, not on a cache line", len(s.data), unsafe.SliceData(s.data))
				}
			}
			if s.sw != c.sw {
				t.Fatalf("slot width %d, want %d", s.sw, c.sw)
			}
			long := 0
			if s.long != nil {
				long = len(*s.long)
			}
			got := float64(len(s.data)+long) / n
			table := float64(s.Bytes()+8*n) / n
			t.Logf("%.2f B/key; keys %.2f, with an offset table %.2f", got, float64(s.Bytes())/n, table)
			if c.sw == 0 {
				if len(s.data) != s.Bytes() || long != 0 {
					t.Fatalf("stride arena holds %d+%d bytes for %d bytes of keys", len(s.data), long, s.Bytes())
				}
			} else if got > c.bound*table {
				t.Fatalf("%.2f B/key, above %.2f × the offset table's %.2f", got, c.bound, table)
			}
		})
	}
}

// BenchmarkKey loads the keys of a 1 M-key store at random TIDs: fixed8
// holds 8-byte keys, which Key addresses by stride; mixed holds keys of 4
// to 12 bytes (8 on average, as fixed8), in 16-byte slots; url (64-byte
// slots, 2.2 % of keys in long) and email (32-byte slots) hold the data
// sets' keys.
func BenchmarkKey(b *testing.B) {
	const n = 1 << 20
	random := func(width func(*rand.Rand) int) func() [][]byte {
		return func() [][]byte {
			rng := rand.New(rand.NewSource(1))
			keys := make([][]byte, n)
			for i := range keys {
				keys[i] = make([]byte, 12)
				rng.Read(keys[i])
				keys[i] = keys[i][:width(rng)]
			}
			return keys
		}
	}
	for _, c := range []struct {
		name string
		keys func() [][]byte
	}{
		{"fixed8", random(func(*rand.Rand) int { return 8 })},
		{"mixed", random(func(rng *rand.Rand) int { return 4 + rng.Intn(9) })},
		{"url", func() [][]byte { return dataset.Generate(dataset.URL, n, 1) }},
		{"email", func() [][]byte { return dataset.Generate(dataset.Email, n, 1) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			var s Store
			for _, k := range c.keys() {
				s.Add(k)
			}
			sink := byte(0)
			x := uint64(88172645463325252)
			b.ResetTimer()
			for range b.N {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				// Each load depends on the last, so the misses do not overlap.
				sink += s.Key((x+uint64(sink))%n, nil)[0]
			}
			keySink = sink
		})
	}
}

var keySink byte
