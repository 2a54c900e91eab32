package server

import (
	"bytes"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	hot "github.com/hotindex/hot"
)

// KeyMap is the server's tuple table: the TID→key inverse of the index, and
// the Loader the index resolves TIDs through. HOT stores only TIDs, so every
// served GET loads one key from here for its final compare and every SCAN
// entry loads one to put on the wire. It is rebuilt purely from the write
// stream — live SET/ADD requests carry both key and TID, and so do snapshot
// entries and replayed log records (DurableOptions.RecoverEntry) and
// replicated entries (Follower's onEntry hook) — so it needs no persistence
// of its own.
//
// The table holds no pointer the GC has to follow per key. Key bytes are
// appended to an arena of fixed-size chunks that are never moved or
// written again below their fill mark, so a returned key stays valid for
// the life of the map. The TID index is one open-addressed, linearly
// probed slot array of two words per slot, tid+1 (0 marks an empty slot)
// and the key's arena offset<<16 | length, kept at most ¾ full and doubled
// past that. A load is a read lock, one hashed probe that usually ends in
// the slot's own cache line, and one slice of one chunk. Keys resolves a
// whole batch under one read lock, touching every slot and then every key
// before any is returned, so their cache misses overlap instead of
// queueing one behind the other.
//
// A TID binds to exactly one key for the life of the map and is never
// unbound. Rebinding a live TID to a different key would silently corrupt
// the index (the trie stores TIDs and trusts the loader to resolve them to
// the original key bytes), so Bind refuses it. The zero KeyMap is empty and
// ready to use.
type KeyMap struct {
	mu sync.RWMutex
	// sink absorbs the touch passes' loads so the compiler keeps them. It
	// sits beside mu, whose line every reader already writes.
	sink   atomic.Uint64
	slots  []uint64 // 2 words per slot: tid+1, then offset<<16 | len
	shift  uint     // 64 - log2(slot count): the hash keeps the top bits
	chunks [][]byte // the arena: chunkSize capacity each, filled in order
	n      int      // bound TIDs
}

const (
	// chunkShift sizes the arena chunks (64 KiB): large against a key, so a
	// chunk's unused tail is a small share, and small against the table, so
	// the last chunk's free space is too. A key never spans two chunks.
	chunkShift = 16
	chunkSize  = 1 << chunkShift
	// minSlots is the slot count of the first index.
	minSlots = 64
	// lenBits is the low part of a slot's second word, the key's length.
	lenBits = 16
)

// home is tid's first slot: a Fibonacci hash, so sequential TIDs spread.
func (k *KeyMap) home(tid uint64) uint64 { return (tid * 0x9E3779B97F4A7C15) >> k.shift }

// ref returns the second word of tid's slot; ok is false when tid is not
// bound. The caller holds mu.
func (k *KeyMap) ref(tid uint64) (ref uint64, ok bool) {
	if k.n == 0 || tid > hot.MaxTID {
		return 0, false
	}
	mask := uint64(len(k.slots)/2 - 1)
	for i := k.home(tid); ; i = (i + 1) & mask {
		switch k.slots[2*i] {
		case tid + 1:
			return k.slots[2*i+1], true
		case 0:
			return 0, false
		}
	}
}

// key is the arena bytes ref names, capped at their own length.
func (k *KeyMap) key(ref uint64) []byte {
	off, n := ref>>lenBits, ref&(1<<lenBits-1)
	c, o := off>>chunkShift, off&(chunkSize-1)
	return k.chunks[c][o : o+n : o+n]
}

// load resolves tid under mu, nil when it is not bound.
func (k *KeyMap) load(tid uint64) []byte {
	if ref, ok := k.ref(tid); ok {
		return k.key(ref)
	}
	return nil
}

// Bind records key as tid's key and returns the map's stable copy of it —
// safe to hand to the index's async write path, which requires keys to stay
// valid until the next Flush. Binding a TID twice with the same key is a
// no-op; a different key is an error, and so is a TID above hot.MaxTID or a
// key longer than hot.MaxKeyLen.
func (k *KeyMap) Bind(key []byte, tid uint64) ([]byte, error) {
	if tid > hot.MaxTID || len(key) > hot.MaxKeyLen {
		return nil, fmt.Errorf("cannot bind TID %d to a %d-byte key", tid, len(key))
	}
	k.mu.RLock()
	stored := k.load(tid)
	k.mu.RUnlock()
	if stored == nil {
		k.mu.Lock()
		if stored = k.load(tid); stored == nil {
			stored = k.insert(key, tid)
		}
		k.mu.Unlock()
	}
	if !bytes.Equal(stored, key) {
		return nil, fmt.Errorf("TID %d is bound to key %q, cannot rebind to %q", tid, stored, key)
	}
	return stored, nil
}

// insert appends key to the arena and binds tid to it. The caller holds mu
// exclusively and has checked that tid is not bound.
func (k *KeyMap) insert(key []byte, tid uint64) []byte {
	if 4*(k.n+1) > 3*(len(k.slots)/2) {
		k.grow()
	}
	last := len(k.chunks) - 1
	// A full chunk takes not even an empty key: its offset would name the
	// next chunk.
	if last < 0 || chunkSize-len(k.chunks[last]) < max(len(key), 1) {
		k.chunks = append(k.chunks, make([]byte, 0, chunkSize))
		last++
	}
	ref := (uint64(last)<<chunkShift|uint64(len(k.chunks[last])))<<lenBits | uint64(len(key))
	k.chunks[last] = append(k.chunks[last], key...)
	k.place(tid, ref)
	k.n++
	return k.key(ref)
}

// place stores (tid, ref) in tid's first empty slot.
func (k *KeyMap) place(tid, ref uint64) {
	mask := uint64(len(k.slots)/2 - 1)
	i := k.home(tid)
	for k.slots[2*i] != 0 {
		i = (i + 1) & mask
	}
	k.slots[2*i], k.slots[2*i+1] = tid+1, ref
}

// grow doubles the slot array and re-places every binding.
func (k *KeyMap) grow() {
	old := k.slots
	n := max(minSlots, len(old)) // twice the old slot count, a power of 2
	k.slots, k.shift = make([]uint64, 2*n), uint(65-bits.Len(uint(n)))
	for i := 0; i < len(old); i += 2 {
		if old[i] != 0 {
			k.place(old[i]-1, old[i+1])
		}
	}
}

// Key is the hot.Loader: it resolves tid to its bound key, nil when tid was
// never bound (the index never stores an unbound TID, so nil only surfaces
// for genuinely absent entries).
func (k *KeyMap) Key(tid uint64, _ []byte) []byte {
	k.mu.RLock()
	key := k.load(tid)
	k.mu.RUnlock()
	return key
}

// Keys is Key for a batch: it sets out[i] to tids[i]'s key (nil when
// unbound) for every i, under one read lock. It first touches every TID's
// home slot, then resolves each slot and touches its key's first and last
// byte, so a batch pays its slot misses and its key misses side by side
// rather than one after the other. out must be at least as long as tids.
func (k *KeyMap) Keys(tids []uint64, out [][]byte) {
	out = out[:len(tids)]
	var sink uint64
	k.mu.RLock()
	if k.n > 0 {
		for _, tid := range tids {
			sink += k.slots[2*k.home(tid)]
		}
	}
	for i, tid := range tids {
		key := k.load(tid)
		if len(key) > 0 {
			sink += uint64(key[0]) + uint64(key[len(key)-1])
		}
		out[i] = key
	}
	k.mu.RUnlock()
	k.sink.Store(sink)
}

// Len returns the number of bound TIDs.
func (k *KeyMap) Len() int {
	k.mu.RLock()
	defer k.mu.RUnlock()
	return k.n
}

// Bytes returns the table's allocated bytes: the arena chunks plus the
// slot array.
func (k *KeyMap) Bytes() int {
	k.mu.RLock()
	defer k.mu.RUnlock()
	return len(k.chunks)*chunkSize + 8*len(k.slots)
}
