package core

import (
	"sync/atomic"
	"unsafe"
)

// A ConcurrentTrie's readers take no pin and writers retire into no list:
// the garbage collector keeps every node a reader still holds, obsolete or
// not, and frees it once none does, which is all the reclamation that the
// paper's epochs do in C++. What a reader needs beyond that is a key
// buffer for the loader (an embedded-key loader writes the candidate key
// into it), and it leases one from keyBufs rather than allocate.

// keyBufSlots bounds the reads holding a buffer at once. A read that finds
// every slot leased passes the loader a nil buffer instead of waiting.
const keyBufSlots = 1 << keyBufBits

const keyBufBits = 8

// keyBuf is one slot of keyBufs, one cache line, so that readers leasing
// neighbouring slots on different cores do not share a line. The buffer
// is the rest of the line: it holds an integer key or a short string key,
// and a longer one makes the loader's append allocate.
type keyBuf struct {
	leased atomic.Bool
	buf    [60]byte
}

var _ [64]byte = [unsafe.Sizeof(keyBuf{})]byte{}

// keyBufs is the one table of reader key buffers, shared by every trie. It
// is allocated rather than declared so that it starts on a cache line: a
// 16 KiB heap object is page-aligned.
var keyBufs = new([keyBufSlots]keyBuf)

// leaseKeyBuf leases a free slot, nil when every slot is leased. The
// search starts at a slot picked by a Fibonacci hash of the trie's
// address, so that readers of different tries (a sharded tree's shards)
// do not all contend for the first slots' cache lines.
func (t *tree) leaseKeyBuf() *keyBuf {
	i := uint64(uintptr(unsafe.Pointer(t))) * 0x9E3779B97F4A7C15 >> (64 - keyBufBits)
	for j := uint64(0); j < keyBufSlots; j++ {
		b := &keyBufs[(i+j)%keyBufSlots]
		if !b.leased.Load() && b.leased.CompareAndSwap(false, true) {
			return b
		}
	}
	return nil
}

// bytes returns the slot's buffer, empty; nil for no slot.
func (b *keyBuf) bytes() []byte {
	if b == nil {
		return nil
	}
	return b.buf[:0]
}

// release returns the slot to the table. Nothing the loader returned into
// the buffer may be used after it.
func (b *keyBuf) release() {
	if b != nil {
		b.leased.Store(false)
	}
}
