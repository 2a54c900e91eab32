package hot

import "github.com/hotindex/hot/internal/core"

// This file is the shared index-surface layer: the one place the public
// operations common to every index type are implemented. Tree,
// ConcurrentTree and ShardedTree expose the same method set — the Index
// interface below — and the delegating types (Tree, ConcurrentTree, Map)
// obtain their shared methods by embedding base or statsBase instead of
// hand-duplicating the delegation per type. ShardedTree implements Index
// with its own fan-out logic on top of the same surface.

// Index is the unified index surface: the method set shared by every
// TID-keyed index type in this package (Tree, ConcurrentTree, ShardedTree).
// Code that only needs the index abstraction — benchmarks, servers,
// replication — can hold any of them behind this one interface and switch
// between the single-threaded, ROWEX-concurrent and range-sharded
// implementations without changes.
type Index interface {
	// Insert stores tid under key, reporting false (without modification)
	// when the key is already present.
	Insert(key []byte, tid TID) bool
	// Upsert stores tid under key, returning the previous TID when the key
	// was already present.
	Upsert(key []byte, tid TID) (old TID, replaced bool)
	// Lookup returns the TID stored under key.
	Lookup(key []byte) (TID, bool)
	// LookupBatch looks up all keys as one memory-level-parallel batch
	// (see Tree.LookupBatch).
	LookupBatch(keys [][]byte, out []TID) []bool
	// Delete removes key, reporting whether it was present.
	Delete(key []byte) bool
	// Scan invokes fn for up to max entries in ascending key order
	// starting at the first key ≥ start.
	Scan(start []byte, max int, fn func(TID) bool) int
	// Len returns the number of stored keys.
	Len() int
	// Height returns the index height in compound nodes.
	Height() int
	// Depths computes the leaf-depth distribution.
	Depths() DepthStats
	// Memory computes the memory footprint and node-layout census.
	Memory() MemoryStats
	// OpStats reports the insertion-case and robustness counters.
	OpStats() OpStats
	// Verify checks the structural invariants, returning nil or a typed
	// corruption error.
	Verify() error
}

// Every index type must keep satisfying the unified surface.
var (
	_ Index = (*Tree)(nil)
	_ Index = (*ConcurrentTree)(nil)
	_ Index = (*ShardedTree)(nil)
)

// statsCore is the introspection sub-surface of a core trie, shared by
// every type that wraps one — including Map, whose mutation API differs
// but whose statistics delegate identically.
type statsCore interface {
	Len() int
	Height() int
	Memory() core.MemoryStats
	Verify() error
}

// coreIndex is the full shared method surface of core.Trie and
// core.ConcurrentTrie, the two synchronization variants of the underlying
// trie. base delegates the public index surface to it.
type coreIndex interface {
	statsCore
	Insert(k []byte, tid core.TID) bool
	Upsert(k []byte, tid core.TID) (core.TID, bool)
	Lookup(k []byte) (core.TID, bool)
	LookupBatch(keys [][]byte, out []core.TID) []bool
	Delete(k []byte) bool
	Scan(start []byte, max int, fn func(core.TID) bool) int
	Depths() core.DepthStats
	OpStats() core.OpStats
}

var (
	_ coreIndex = (*core.Trie)(nil)
	_ coreIndex = (*core.ConcurrentTrie)(nil)
)

// statsBase implements the shared introspection surface over any core
// trie. Map embeds it.
type statsBase struct {
	ic statsCore
}

// Len returns the number of stored keys.
func (b *statsBase) Len() int { return b.ic.Len() }

// Height returns the overall tree height in compound nodes (0 for trees
// with fewer than two keys). Like a B-tree, the height grows only when a
// new root is created.
func (b *statsBase) Height() int { return b.ic.Height() }

// Memory computes the index's memory footprint and node-layout census.
func (b *statsBase) Memory() MemoryStats { return b.ic.Memory() }

// Verify checks the underlying trie's structural invariants — fanout and
// height bounds, node classes, discriminative-bit monotonicity, partial-key ordering and
// canonical encoding, leaf key order and lookup self-consistency — and
// returns nil or a *CorruptionError describing the first violation. It
// walks every node and resolves every stored key, so it is intended for
// integrity audits and tests, not per-operation use. On concurrent types
// it must run in a quiescent state (no concurrent writers) for reliable
// results; concurrent readers are always safe.
func (b *statsBase) Verify() error { return b.ic.Verify() }

// base implements the full shared index surface over any core trie. Tree
// and ConcurrentTree embed it; their remaining methods are the ones whose
// semantics genuinely differ between the synchronization variants
// (cursors, snapshot walks, reclamation stats).
type base struct {
	statsBase
	ic coreIndex
}

func newBase(ic coreIndex) base { return base{statsBase{ic}, ic} }

// Insert stores tid under key, reporting false (without modification) when
// the key is already present. It panics if len(key) > MaxKeyLen or
// tid > MaxTID.
func (b *base) Insert(key []byte, tid TID) bool { return b.ic.Insert(key, tid) }

// Upsert stores tid under key, returning the previous TID when the key was
// already present.
func (b *base) Upsert(key []byte, tid TID) (old TID, replaced bool) {
	return b.ic.Upsert(key, tid)
}

// Lookup returns the TID stored under key. On the concurrent types it is
// wait-free.
func (b *base) Lookup(key []byte) (TID, bool) { return b.ic.Lookup(key) }

// LookupBatch looks up all keys as one batch, storing each key's TID in the
// corresponding out slot (0 when absent) and returning a mask of which keys
// were found; len(out) must be at least len(keys). The descents advance
// through the trie in lockstep, so the independent reads of the keys, the
// nodes and the candidates' tuples overlap their cache misses instead of
// serializing as repeated Lookup calls do —
// substantially faster for point-lookup-heavy workloads that can amortize
// batches of 8+ keys. On Tree the returned mask is scratch owned by the
// tree, valid until the next LookupBatch call; on ConcurrentTree each
// answer is a value its key held during the call, the batch is wait-free
// like Lookup, and the mask is owned by the caller.
func (b *base) LookupBatch(keys [][]byte, out []TID) []bool {
	return b.ic.LookupBatch(keys, out)
}

// Delete removes key, reporting whether it was present.
func (b *base) Delete(key []byte) bool { return b.ic.Delete(key) }

// Scan invokes fn for up to max entries in ascending key order starting at
// the first key ≥ start (nil start scans from the smallest key). It
// returns the number of entries visited; fn returning false stops early.
// On Tree, fn must not modify the tree (single-threaded trees recycle
// replaced nodes immediately); on ConcurrentTree, concurrent writers may
// commit before or after any step of the scan (the paper's wait-free
// reader semantics).
func (b *base) Scan(start []byte, max int, fn func(TID) bool) int {
	return b.ic.Scan(start, max, fn)
}

// Depths computes the leaf-depth distribution, the paper's balance metric.
// On concurrent types it walks the live tree and should be called in
// quiescent states for stable numbers.
func (b *base) Depths() DepthStats { return b.ic.Depths() }

// OpStats reports how often each of the paper's four insertion cases fired
// (normal insert, leaf-node pushdown, parent pull up, intermediate node
// creation) plus root creations — the only operation that grows the
// overall tree height — and, on the concurrent types, the ROWEX robustness
// counters: writer restarts, parked backoffs and validation failures.
func (b *base) OpStats() OpStats { return b.ic.OpStats() }
