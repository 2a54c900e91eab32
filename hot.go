// Package hot provides the Height Optimized Trie (HOT) of Binna, Zangerle,
// Pichl, Specht and Leis (SIGMOD 2018): a fast, space-efficient,
// order-preserving in-memory index for main-memory database systems.
//
// HOT bounds every compound node's fanout at k = 32 while adapting the
// number of key bits each node consumes to the data distribution, which
// keeps the fanout consistently high — and the tree consistently shallow —
// for dense integers and sparse strings alike. Nodes linearize their
// k-constrained binary Patricia tries into arrays of sparse partial keys
// searched data-parallel.
//
// # Choosing a type
//
//   - Tree / ConcurrentTree expose the paper's index abstraction directly:
//     they map prefix-free []byte keys to 63-bit tuple identifiers (TIDs)
//     and resolve TIDs back to keys through a Loader, the way a database
//     index references its base table. ConcurrentTree adds the paper's
//     ROWEX synchronization: wait-free readers, lock-only-what-you-modify
//     writers.
//   - ShardedTree range-partitions the key space across N independent
//     concurrent tries, each with its own writer lock and epoch domain, so
//     writers to different shards never contend — the write-scaling layer.
//     A shard admits one writer at a time and runs no ROWEX; readers stay
//     wait-free.
//   - Map is the convenience layer for applications without a tuple store:
//     it keeps its own key storage, accepts arbitrary byte keys (an
//     order-preserving escape makes them prefix-free) and maps them to
//     uint64 values.
//   - An integer set needs no type of its own: with fixed-size keys of at
//     most 8 bytes the key is embedded directly in the TID (the paper's
//     optimization), so a Tree or ShardedTree whose loader writes the TID's
//     8 big-endian bytes stores 63-bit integers with no tuple store at all
//     (see ExampleTree_integerKeys and ExampleShardedTree_integerKeys).
//
// The TID-keyed types share one method surface — the Index interface —
// implemented once in the shared surface layer (surface.go), so callers can
// swap synchronization strategies without code changes. All four persist
// through one pair of functions, Save/SaveFile, and load back through Load
// (LoadShardedTree for the sharded tree).
//
// Keys are compared lexicographically; all range operations are in
// ascending key order.
package hot

import (
	"github.com/hotindex/hot/internal/core"
)

// TID is a tuple identifier: a value < 2^63 stored in the index, typically
// referencing a tuple that contains the key.
type TID = uint64

// Loader resolves the key bytes stored under a TID. buf may be used as
// scratch space; the returned slice may alias it and must remain valid and
// immutable while the entry is in the index. It is never called for a
// tombstone, the marker a sharded tree's cold shard keeps for a deleted key.
type Loader = func(tid TID, buf []byte) []byte

// Stats aliases for the documentation of Tree.Depths and Tree.Memory.
type (
	// DepthStats describes the leaf-depth distribution (tree balance).
	DepthStats = core.DepthStats
	// MemoryStats reports the index footprint and node-layout census.
	MemoryStats = core.MemoryStats
	// OpStats counts the insertion structure-adaptation cases and the
	// ROWEX writer-path robustness events (restarts, backoffs, validation
	// failures, epoch contention).
	OpStats = core.OpStats
	// CorruptionError is the typed error the Verify methods return: which
	// structural invariant was violated, at which node path and entry.
	CorruptionError = core.CorruptionError
	// Invariant identifies the structural invariant a CorruptionError
	// reports as violated.
	Invariant = core.Invariant
)

const (
	// MaxFanout is the paper's k: the maximum compound-node fanout.
	MaxFanout = core.MaxFanout
	// MaxKeyLen is the maximum key length in bytes.
	MaxKeyLen = core.MaxKeyLen
	// MaxTID is the largest storable tuple identifier (2^63 - 1).
	MaxTID = core.MaxTID
)

// Tree is a single-threaded Height Optimized Trie mapping prefix-free
// []byte keys to TIDs. It must not be used concurrently; see
// ConcurrentTree.
//
// The key set must be prefix-free under zero-padding (fixed-length keys
// are; terminate variable-length keys, or use Map which handles arbitrary
// keys).
//
// The shared index surface — Insert, Upsert, Lookup, LookupBatch, Delete,
// Scan, Len, Height, Depths, Memory, OpStats, Verify — comes from the
// embedded surface layer (see Index).
type Tree struct {
	base
	codecOpt
	t *core.Trie
}

// New returns an empty Tree resolving TIDs through loader.
func New(loader Loader) *Tree {
	t := core.New(core.Loader(loader))
	return &Tree{base: newBase(t), t: t}
}

// ConcurrentTree is a Height Optimized Trie synchronized with the paper's
// ROWEX protocol: reads and scans are wait-free (they never lock, block or
// restart); writers lock only the nodes they modify. Inserts and deletes
// replace them copy-on-write, retiring obsolete nodes through epoch-based
// reclamation; an upsert of a present key stores its TID in place under
// the leaf node's lock alone.
// All methods are safe for concurrent use; the loader must be too.
//
// The shared index surface comes from the embedded surface layer (see
// Index); ShardedTree composes N of the same tries, one writer each, into
// one write-scalable index.
type ConcurrentTree struct {
	base
	codecOpt
	t *core.ConcurrentTrie
}

// NewConcurrent returns an empty ConcurrentTree resolving TIDs through
// loader.
func NewConcurrent(loader Loader) *ConcurrentTree {
	t := core.NewConcurrent(core.Loader(loader))
	return &ConcurrentTree{base: newBase(t), t: t}
}

// ReclaimStats reports epoch reclamation counters: how many obsolete
// copy-on-write nodes have been reclaimed and how many are pending.
func (t *ConcurrentTree) ReclaimStats() (freed uint64, pending int64) {
	return t.t.ReclaimStats()
}
