// Package core implements the Height Optimized Trie (HOT) of Binna et al.,
// SIGMOD 2018: a trie whose span adapts to the key distribution while the
// node fanout is bounded by a constant k = 32, yielding consistently high
// fanout, low height and a compact memory footprint for arbitrary key
// distributions.
//
// Every compound node linearizes a k-constrained binary Patricia trie into
// an array of sparse partial keys searched data-parallel: one PEXT of the
// key's discriminative bits, one SSE2 compare over all partial keys and a
// bit scan, in native amd64 kernels with a portable Go fallback (see
// internal/bits). The four structure adaptation cases of the paper's
// insertion algorithm (normal insert, leaf-node pushdown, parent pull up,
// intermediate node creation) keep the overall height minimal: like a
// B-tree, the height only grows when a new root is created.
//
// A node is one allocation: a 32-byte header (sizes and the extraction
// word), the partial keys, the entry values, then what only writers read —
// the discriminative bit positions, the lock and the obsolete flag. The
// block is a Go type of its class, one per (leaf-ness, entry count,
// partial-key width) (node.go). A leaf node (height 1, about 95 % of all
// nodes) stores each entry as a bare 8-byte TID, the paper's layout, and
// holds no pointer, so the GC never scans it; an inner node stores 16-byte
// slots, a TID and a child pointer the GC traces precisely. A node visit
// reads the header's cache line, where the keys start, and one value.
//
// The package provides two tries sharing one node representation and one
// write body (tree.write, tree.del), which three writers run:
//
//   - Trie: single-threaded, no synchronization overhead; replaced nodes
//     are recycled straight into its pool.
//   - ConcurrentTrie: the paper's ROWEX protocol (Section 5) — wait-free
//     readers, writers lock only the nodes they modify, copy-on-write node
//     replacement for inserts and deletes, obsolete markers and epoch-based
//     reclamation.
//   - ConcurrentTrie.Writer: the trie's exclusive writer, for a caller that
//     already serializes its writes — copy-on-write and epoch retirement,
//     so readers stay wait-free, but no locks, validation or restarts.
//
// On every writer an upsert of a present key copies nothing: it stores the
// new TID into the leaf entry with one atomic store (under ROWEX, holding
// the leaf node's lock alone).
//
// Keys are arbitrary []byte (up to MaxKeyLen) compared as zero-padded bit
// strings; key sets must be prefix-free. Values are 63-bit tuple
// identifiers resolved back to keys through a Loader, exactly how the paper
// resolves tuples from its leaf values.
package core

// TID is a tuple identifier. The most significant bit must be zero (the
// paper reserves it to distinguish pointers from TIDs; this implementation
// keeps the constraint so embedded 63-bit keys remain compatible).
type TID = uint64

// Loader resolves the key bytes stored under a TID. buf may be used as
// scratch space to avoid allocations; the returned slice may alias it. The
// returned key must remain immutable for the lifetime of the entry.
type Loader func(tid TID, buf []byte) []byte

const (
	// MaxFanout is the paper's k: the maximum number of entries per
	// compound node (Section 4.1 motivates k = 32: large enough for cache
	// efficiency, small enough for fast updates, and 31 discriminative bits
	// always suffice to separate 32 keys).
	MaxFanout = 32

	// MaxKeyLen is the maximum supported key length in bytes. Bit positions
	// are stored in 16 bits, giving 65536 addressable bits.
	MaxKeyLen = 1<<16/8 - 1

	// MaxTID is the largest storable tuple identifier.
	MaxTID = 1<<63 - 1
)
