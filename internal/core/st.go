package core

// Trie is the single-threaded Height Optimized Trie: the shared write body
// with no latch, recycling replaced nodes straight into its pool. It must
// not be accessed concurrently; use ConcurrentTrie for shared access.
type Trie struct {
	tree
	batch batchState
}

// New returns an empty HOT trie resolving keys through loader.
func New(loader Loader) *Trie { return NewWithFanout(loader, MaxFanout) }

// NewWithFanout returns an empty HOT trie with a maximum node fanout of k
// (2..MaxFanout). Values below the default trade tree height for cheaper
// intra-node operations; the paper's design point is k = MaxFanout = 32.
func NewWithFanout(loader Loader, k int) *Trie {
	t := &Trie{}
	t.init(loader, k)
	t.pool = &nodePool{}
	t.sc.spare = t.pool // no reader reaches a retired block either
	return t
}

// Lookup returns the TID stored under k.
func (t *Trie) Lookup(k []byte) (TID, bool) {
	return t.lookup(k, t.sc.buf[:0])
}

// LookupBatch looks up all keys as one batch, storing each key's TID in
// the corresponding out slot (0 when absent) and returning a mask of which
// keys were found. len(out) must be at least len(keys). The descents
// advance through the trie together, overlapping the memory stalls that
// serialize repeated Lookup calls (see batchState.lookup); steady-state
// calls allocate nothing. The returned mask is scratch owned by the trie,
// valid until the next LookupBatch call.
func (t *Trie) LookupBatch(keys [][]byte, out []TID) []bool {
	st := &t.batch
	found := st.foundSlice(len(keys))
	checkBatch(len(keys), out, found)
	st.every(&t.tree, len(keys))
	st.lookup(keys, out, found)
	return found
}

// Iter returns an iterator positioned at the first key ≥ start (nil start:
// the smallest key), like tree.Iter but threading the trie's scratch key
// buffer so opening a cursor performs no allocation inside the loader.
func (t *Trie) Iter(start []byte) Iterator {
	return t.iter(start, t.sc.buf[:0], nil)
}

// Scan invokes fn for up to max entries in ascending key order starting at
// the first key ≥ start (nil start scans from the smallest key). It returns
// the number of entries visited; fn returning false stops the scan early.
func (t *Trie) Scan(start []byte, max int, fn func(TID) bool) int {
	return t.scan(start, max, fn, t.sc.buf[:0])
}

// Insert stores tid under k. It reports false (without modification) when k
// is already present.
func (t *Trie) Insert(k []byte, tid TID) bool {
	checkKey(k)
	checkTID(tid)
	inserted, _, _, _ := t.write(k, tid, false, &t.sc, nil)
	return inserted
}

// Upsert stores tid under k, replacing any existing value. It returns the
// previous TID when the key was already present.
func (t *Trie) Upsert(k []byte, tid TID) (old TID, replaced bool) {
	checkKey(k)
	checkTID(tid)
	_, old, replaced, _ = t.write(k, tid, true, &t.sc, nil)
	return old, replaced
}

// Delete removes k, reporting whether it was present.
func (t *Trie) Delete(k []byte) bool {
	checkKey(k)
	deleted, _ := t.del(k, &t.sc, nil)
	return deleted
}
