package tidstore

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
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
	s.Add(nil) // another width: the offset table
	mustPanic(t, &s, 4)
	mustPanic(t, &s, 1<<63)
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

// FuzzStore adds keys in runs of one width, then another — each pair of
// input bytes is a run: its length, and a width that is empty, MaxKeyLen
// or short — and after every Add holds every Key, Len and Bytes to a
// [][]byte model, and checks that the next TID is not there yet.
func FuzzStore(f *testing.F) {
	f.Add(int64(1), []byte{0x12, 8, 0x02, 8, 0x07, 3})
	f.Add(int64(2), []byte{0x00, 0, 0x1c, 8})
	f.Add(int64(3), []byte{0x05, 0, 0x01, 0, 0x32, 16})
	f.Fuzz(func(t *testing.T, seed int64, runs []byte) {
		rng := rand.New(rand.NewSource(seed))
		var s Store
		var model [][]byte
		size := 0
		for i := 0; i+1 < len(runs) && len(model) < 256; i += 2 {
			width := int(runs[i+1]) % 24
			switch runs[i] % 4 {
			case 0:
				width = 0
			case 1:
				width = maxKeyLen
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
				if s.Len() != len(model) || s.Bytes() != size {
					t.Fatalf("Len, Bytes = %d, %d; want %d, %d", s.Len(), s.Bytes(), len(model), size)
				}
				mustPanic(t, &s, uint64(len(model)))
			}
		}
	})
}

// BenchmarkKey loads the keys of a 1 M-key store at random TIDs: fixed8
// holds 8-byte keys, which Key addresses by stride, and mixed keys of 4 to
// 12 bytes (8 on average, so the arena is as large), which it reaches
// through the offset table.
func BenchmarkKey(b *testing.B) {
	const n = 1 << 20
	for _, c := range []struct {
		name  string
		width func(*rand.Rand) int
	}{
		{"fixed8", func(*rand.Rand) int { return 8 }},
		{"mixed", func(rng *rand.Rand) int { return 4 + rng.Intn(9) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			var s Store
			k := make([]byte, 12)
			for range n {
				rng.Read(k)
				s.Add(k[:c.width(rng)])
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
