package core

import (
	"encoding/binary"
	"testing"
	"time"
	"unsafe"

	"github.com/hotindex/hot/internal/dataset"
	"github.com/hotindex/hot/internal/tidstore"
)

// TestKeyBufTableFull leases every slot of keyBufs, as that many readers
// in flight at once would, and checks that Lookup and Scan over the
// embedded-key loader, which writes each candidate key into its buffer,
// still answer right and never wait: a read that finds no free slot reads
// with a nil buffer and allocates the key instead. The leased slots'
// buffers must not overlap, and once the slots are back a read allocates
// nothing again.
func TestKeyBufTableFull(t *testing.T) {
	keys := dataset.SortedCopy(dataset.Generate(dataset.Integer, 2000, 7))
	tr := NewConcurrent(tidstore.Uint64Key)
	for _, k := range keys {
		tr.Insert(k, binary.BigEndian.Uint64(k))
	}
	reads := func() {
		for _, k := range keys {
			if tid, ok := tr.Lookup(k); !ok || tid != binary.BigEndian.Uint64(k) {
				t.Errorf("Lookup(%x) = (%d, %v)", k, tid, ok)
				return
			}
		}
		i := 100
		tr.Scan(keys[i], 50, func(tid TID) bool {
			if want := binary.BigEndian.Uint64(keys[i]); tid != want {
				t.Errorf("Scan entry %d = %d, want %d", i, tid, want)
			}
			i++
			return true
		})
		if i != 150 {
			t.Errorf("Scan visited %d entries, want 50", i-100)
		}
	}
	one := func() {
		tr.Lookup(keys[7])
		tr.Scan(keys[7], 8, func(TID) bool { return true })
	}

	var held []*keyBuf
	for b := tr.leaseKeyBuf(); b != nil; b = tr.leaseKeyBuf() {
		held = append(held, b)
	}
	if len(held) != keyBufSlots {
		t.Fatalf("leased %d slots, want %d", len(held), keyBufSlots)
	}
	seen := map[uintptr]bool{}
	for _, b := range held {
		p := uintptr(unsafe.Pointer(&b.buf[0]))
		if seen[p] || cap(b.bytes()) != len(b.buf) {
			t.Fatalf("slot buffer at %#x shared or short (cap %d)", p, cap(b.bytes()))
		}
		seen[p] = true
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		reads()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a read waited for a key buffer")
	}
	if allocs := testing.AllocsPerRun(20, one); allocs == 0 {
		t.Error("a read with every slot leased allocated nothing: it did not run without a buffer")
	}
	for _, b := range held {
		b.release()
	}
	reads()
	if allocs := testing.AllocsPerRun(100, one); allocs != 0 {
		t.Errorf("a read allocates %v per call once the slots are back, want 0", allocs)
	}
}

// TestKeyBufPerSlot checks that two reads in flight at once hold distinct
// buffers of the full slot size, and that a lease, a use and a release of
// a free slot allocate nothing.
func TestKeyBufPerSlot(t *testing.T) {
	tr := NewConcurrent(tidstore.Uint64Key)
	b1, b2 := tr.leaseKeyBuf(), tr.leaseKeyBuf()
	if b1 == nil || b2 == nil || b1 == b2 {
		t.Fatalf("leased slots %p and %p, want two distinct ones", b1, b2)
	}
	s1 := append(b1.bytes(), "one"...)
	s2 := append(b2.bytes(), "two"...)
	if string(s1) != "one" || string(s2) != "two" || cap(s1) != len(b1.buf) {
		t.Fatalf("leased buffers %q (cap %d) and %q share storage", s1, cap(s1), s2)
	}
	b2.release()
	b1.release()
	if allocs := testing.AllocsPerRun(100, func() {
		b := tr.leaseKeyBuf()
		if s := b.bytes(); len(s) != 0 || cap(s) != len(b.buf) {
			t.Fatalf("reused buffer has len %d, cap %d", len(s), cap(s))
		}
		b.release()
	}); allocs != 0 {
		t.Fatalf("lease, bytes, release allocates %v", allocs)
	}
}
