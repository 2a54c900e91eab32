package core

import "math"

// walkAll invokes fn for every entry in ascending key order, resolving
// each TID's key through the loader. The key slice passed to fn is only
// valid during the call (it may alias loader scratch). fn returning false
// stops the walk. It returns the number of entries visited.
//
// This is the feed for snapshot persistence: a single pass over the trie's
// leaves that streams (key, TID) pairs to a writer without materializing
// the key set.
func (t *tree) walkAll(fn func(key []byte, tid TID) bool, buf []byte) int {
	return t.scan(nil, math.MaxInt, func(tid TID) bool { return fn(t.load(tid, buf), tid) }, buf)
}

// Walk invokes fn for every (key, TID) entry in ascending key order,
// resolving keys through the loader; the key slice is only valid during
// the call. fn returning false stops early. The trie must not be modified
// during the walk.
func (t *Trie) Walk(fn func(key []byte, tid TID) bool) int {
	return t.walkAll(fn, t.sc.buf[:0])
}

// SnapshotWalk invokes fn for every (key, TID) entry in ascending key
// order. Concurrent writers are never blocked — inserts and deletes
// proceed copy-on-write, and a node they replace stays intact while the
// walk holds it, upserts of present keys store in place — so this is the
// non-blocking feed for persisting a live ConcurrentTrie. Entries committed
// by writers racing the walk may or may not be observed, exactly like the
// paper's wait-free scans: each observed TID is one its key held during
// the walk, and the key order of what is observed is always strictly
// ascending.
func (t *ConcurrentTrie) SnapshotWalk(fn func(key []byte, tid TID) bool) int {
	b := t.leaseKeyBuf()
	defer b.release()
	return t.walkAll(fn, b.bytes())
}
