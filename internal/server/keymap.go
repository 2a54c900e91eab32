package server

import (
	"bytes"
	"fmt"
	"sync"
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
// The table is one typed map behind one RWMutex. A load is a read lock and
// one typed map probe: no interface boxing and none of the dependent pointer
// loads a sync.Map walks, which is what a served read spends its time on.
//
// A TID binds to exactly one key for the life of the map and is never
// unbound. Rebinding a live TID to a different key would silently corrupt
// the index (the trie stores TIDs and trusts the loader to resolve them to
// the original key bytes), so Bind refuses it. The zero KeyMap is empty and
// ready to use.
type KeyMap struct {
	mu sync.RWMutex
	m  map[uint64][]byte // TID → key (immutable once stored)
}

// Bind records key as tid's key and returns the map's stable copy of it —
// safe to hand to the index's async write path, which requires keys to stay
// valid until the next Flush. Binding a TID twice with the same key is a
// no-op; a different key is an error.
func (k *KeyMap) Bind(key []byte, tid uint64) ([]byte, error) {
	k.mu.RLock()
	stored, ok := k.m[tid]
	k.mu.RUnlock()
	if !ok {
		cp := append([]byte(nil), key...)
		k.mu.Lock()
		if stored, ok = k.m[tid]; !ok {
			if k.m == nil {
				k.m = make(map[uint64][]byte)
			}
			k.m[tid], stored = cp, cp
		}
		k.mu.Unlock()
	}
	if !bytes.Equal(stored, key) {
		return nil, fmt.Errorf("TID %d is bound to key %q, cannot rebind to %q", tid, stored, key)
	}
	return stored, nil
}

// Key is the hot.Loader: it resolves tid to its bound key, nil when tid was
// never bound (the index never stores an unbound TID, so nil only surfaces
// for genuinely absent entries).
func (k *KeyMap) Key(tid uint64, _ []byte) []byte {
	k.mu.RLock()
	key := k.m[tid]
	k.mu.RUnlock()
	return key
}
