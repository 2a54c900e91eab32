package core

import (
	"fmt"
	mathbits "math/bits"

	"github.com/hotindex/hot/internal/key"
)

// Invariant identifies one structural invariant of the HOT trie checked by
// Verify.
type Invariant uint8

const (
	// InvFanout: every compound node holds between 2 and k entries.
	InvFanout Invariant = iota
	// InvDiscriminativeBits: a node's discriminative bit positions are
	// strictly ascending, at least 1 and at most entries-1 of them, and the
	// node's first bit lies at or below none of the bits on the path that
	// leads to the node (bit positions grow along every Patricia path).
	// The positions are the ones the node's extraction spec implies, so the
	// spec must hold exactly the node's column count — in the mask, or for
	// a spec of more than 8 (offset, mask) pairs in the mask and its
	// block's tail — and be the spec those positions derive.
	InvDiscriminativeBits
	// InvPartialKeyOrder: sparse partial keys are strictly ascending and
	// entry 0's partial key is zero (the leftmost path takes 0-branches
	// only).
	InvPartialKeyOrder
	// InvCanonical: the sparse partial keys are canonical — every column
	// discriminates at least one BiNode and bits are set exactly on the
	// 1-branch path BiNodes (verified by recanonicalizing).
	InvCanonical
	// InvHeightBound: h(n) ≥ 1 + max subtree height below it (equality
	// holds until deletions leave heights stale, which the paper's
	// deletion design tolerates).
	InvHeightBound
	// InvObsoleteReachable: a node marked obsolete is still reachable (in
	// a quiescent trie, replaced nodes must be unreachable).
	InvObsoleteReachable
	// InvLeafOrder: leaf keys do not enumerate in strictly ascending
	// order.
	InvLeafOrder
	// InvLookup: a stored key does not resolve back to its own leaf.
	InvLookup
	// InvLeafCount: the number of reachable leaves differs from Len().
	InvLeafCount
	// InvNodeClass: a node's class names no block type, or disagrees
	// with its height — a leaf class (bare TIDs, no room for a child) must
	// have height 1, an inner class height ≥ 2.
	InvNodeClass
)

var invariantNames = [...]string{
	InvFanout:             "fanout bound",
	InvDiscriminativeBits: "discriminative-bit monotonicity",
	InvPartialKeyOrder:    "partial-key ordering",
	InvCanonical:          "canonical partial-key encoding",
	InvHeightBound:        "height bound",
	InvObsoleteReachable:  "obsolete-node reachability",
	InvLeafOrder:          "leaf key ordering",
	InvLookup:             "lookup self-consistency",
	InvLeafCount:          "leaf count",
	InvNodeClass:          "node class",
}

// String names the invariant for reports.
func (i Invariant) String() string {
	if int(i) < len(invariantNames) {
		return invariantNames[i]
	}
	return "unknown invariant"
}

// CorruptionError describes the first structural-invariant violation found
// by Verify: which invariant, where in the tree, and what was observed.
type CorruptionError struct {
	// Invariant is the violated invariant.
	Invariant Invariant
	// Path holds the entry index taken at each compound node from the root
	// down to the offending node (empty: the root node itself).
	Path []int
	// Entry is the offending entry index within the node, -1 for
	// node-level violations.
	Entry int
	// Detail describes the observed violation.
	Detail string
}

// Error implements the error interface.
func (e *CorruptionError) Error() string {
	return fmt.Sprintf("hot: corruption: %s at node path %v entry %d: %s",
		e.Invariant, e.Path, e.Entry, e.Detail)
}

// verifier carries the walk state of one verification pass.
type verifier struct {
	t       *tree
	strict  bool // heights must be exact, not just an upper bound
	prevKey []byte
	leaves  int
	path    []int
}

func (v *verifier) corrupt(inv Invariant, entry int, format string, args ...any) *CorruptionError {
	return &CorruptionError{
		Invariant: inv,
		Path:      append([]int(nil), v.path...),
		Entry:     entry,
		Detail:    fmt.Sprintf(format, args...),
	}
}

// verify walks every reachable node and checks the structural invariants.
// strictHeights additionally requires h(n) == 1 + max subtree height
// (valid for insert-only histories; deletions may leave heights stale).
func (t *tree) verify(strictHeights bool) error {
	rb := t.root.Load()
	switch {
	case rb.n == nil && !rb.leaf:
		if n := t.Len(); n != 0 {
			return &CorruptionError{Invariant: InvLeafCount, Entry: -1,
				Detail: fmt.Sprintf("empty tree with Len() = %d", n)}
		}
		return nil
	case rb.leaf:
		if n := t.Len(); n != 1 {
			return &CorruptionError{Invariant: InvLeafCount, Entry: -1,
				Detail: fmt.Sprintf("single-leaf tree with Len() = %d", n)}
		}
		return nil
	}
	v := &verifier{t: t, strict: strictHeights}
	if _, err := v.walk(rb.n, 0); err != nil {
		return err
	}
	if v.leaves != t.Len() {
		return &CorruptionError{Invariant: InvLeafCount, Entry: -1,
			Detail: fmt.Sprintf("walked %d leaves, Len() = %d", v.leaves, t.Len())}
	}
	return nil
}

// walk checks nd and its subtree. minBit bounds the smallest discriminative
// bit nd may use (one past the deepest BiNode on the path leading to nd).
// It returns the subtree height in compound nodes.
func (v *verifier) walk(nd *node, minBit int) (uint8, *CorruptionError) {
	// The class decides the block's layout, so a class no block has, or a
	// leaf class above height 1, is reported before anything past the
	// header is read.
	if int(nd.cls) >= len(classes) || classes[nd.cls].typ == nil {
		return 0, v.corrupt(InvNodeClass, -1, "class %d has no block type", nd.cls)
	}
	if nd.isLeaf() && nd.height != 1 {
		return 0, v.corrupt(InvNodeClass, -1, "leaf class %d at height %d, want 1", nd.cls, nd.height)
	}
	if nd.isObsolete() {
		return 0, v.corrupt(InvObsoleteReachable, -1, "reachable node is marked obsolete")
	}
	n := int(nd.n)
	if n < 2 || n > v.t.k {
		return 0, v.corrupt(InvFanout, -1, "%d entries, want 2..%d", n, v.t.k)
	}
	if ncols := int(nd.ncols); ncols < 1 || ncols > n-1 {
		return 0, v.corrupt(InvDiscriminativeBits, -1,
			"%d discriminative bits for %d entries, want 1..%d", ncols, n, n-1)
	}
	if err := v.checkSpecCount(nd); err != nil {
		return 0, err
	}
	var db [MaxFanout]uint16
	d := nd.dbits(db[:0])
	for i := 1; i < len(d); i++ {
		if d[i-1] >= d[i] {
			return 0, v.corrupt(InvDiscriminativeBits, i,
				"bit positions not strictly ascending: %v", d)
		}
	}
	if int(d[0]) < minBit {
		return 0, v.corrupt(InvDiscriminativeBits, -1,
			"first bit %d below the parent path bound %d", d[0], minBit)
	}
	var spec node
	if spec.setSpec(d); spec.kind != nd.kind || spec.mask != nd.mask || spec.off != nd.off || spec.noff != nd.noff {
		return 0, v.corrupt(InvDiscriminativeBits, -1,
			"spec %v mask %#x off %d, %d pairs, but bits %v derive %v mask %#x off %d, %d pairs",
			nd.kind, nd.mask, nd.off, nd.noff, d, spec.kind, spec.mask, spec.off, spec.noff)
	}

	pks := nd.pks(nil)
	if pks[0] != 0 {
		return 0, v.corrupt(InvPartialKeyOrder, 0, "entry 0 partial key = %#x, want 0", pks[0])
	}
	for i := 1; i < n; i++ {
		if pks[i-1] >= pks[i] {
			return 0, v.corrupt(InvPartialKeyOrder, i,
				"partial keys not strictly ascending: %v", pks)
		}
	}
	cd, cpks := canonicalize(d, pks, nil, nil)
	if !equalU16(cd, d) || !equalU32(cpks, pks) {
		return 0, v.corrupt(InvCanonical, -1,
			"d=%v pks=%v, canonical d=%v pks=%v", d, pks, cd, cpks)
	}

	var maxChild uint8
	for i := 0; i < n; i++ {
		// The smallest discriminative bit a subtree below entry i may use
		// is one past entry i's parent BiNode — the deepest BiNode on its
		// path, which is where it diverges from the nearer of its two
		// neighbor entries (bits grow strictly along every Patricia path,
		// so the deepest divergence is the immediate parent).
		c, stored := nd.entry(i)
		if c != nil {
			v.path = append(v.path, i)
			h, err := v.walk(c, int(d[nd.pathMaxCol(i)])+1)
			v.path = v.path[:len(v.path)-1]
			if err != nil {
				return 0, err
			}
			if h > maxChild {
				maxChild = h
			}
			continue
		}
		v.leaves++
		k := v.t.load(stored, nil)
		if v.prevKey != nil && key.Compare(v.prevKey, k) >= 0 {
			return 0, v.corrupt(InvLeafOrder, i, "%q then %q", v.prevKey, k)
		}
		v.prevKey = append(v.prevKey[:0], k...)
		if tid, ok := v.t.lookup(k, nil); !ok || tid != stored {
			return 0, v.corrupt(InvLookup, i,
				"stored key %q resolves to (%d, %v), want (%d, true)",
				k, tid, ok, stored)
		}
	}
	if v.strict && nd.height != maxChild+1 {
		return 0, v.corrupt(InvHeightBound, -1,
			"height %d, want exactly %d", nd.height, maxChild+1)
	}
	if nd.height < maxChild+1 {
		return 0, v.corrupt(InvHeightBound, -1,
			"height %d below subtree height %d", nd.height, maxChild+1)
	}
	if !nd.isLeaf() && nd.height < 2 {
		return 0, v.corrupt(InvNodeClass, -1, "inner class %d at height %d, want ≥ 2", nd.cls, nd.height)
	}
	return nd.height, nil
}

// checkSpecCount checks that nd's extraction spec holds its ncols
// discriminative bits, so that decoding them reads only nd's block: its
// class is of the family its kind needs (a multi-mask node's block has
// offs), and the bits are all in the mask, or for a multi16 or multi32
// node, which takes a block of the tail family, at least one past the
// mask and no more than the tail holds.
func (v *verifier) checkSpecCount(nd *node) *CorruptionError {
	c := classes[nd.cls]
	room := int(c.tail)
	inMask := mathbits.OnesCount64(nd.mask)
	switch tail := int(nd.ncols) - inMask; {
	case nd.kind.family() != c.fam || (nd.kind != extractSingle && (nd.noff < 2 || nd.noff > 1+moreOffs)):
		return v.corrupt(InvDiscriminativeBits, -1, "extraction kind %d with %d pairs in class %d of block family %d", nd.kind, nd.noff, nd.cls, c.fam)
	case !nd.hasTail() && tail != 0:
		return v.corrupt(InvDiscriminativeBits, -1, "%d discriminative bits, but %d in the mask", nd.ncols, inMask)
	case nd.hasTail() && (tail < 1 || tail > room):
		return v.corrupt(InvDiscriminativeBits, -1,
			"%d discriminative bits, %d in the mask: a tail of %d, want 1..%d", nd.ncols, inMask, tail, room)
	}
	return nil
}

func equalU16(a, b []uint16) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalU32(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Verify checks the trie's structural invariants — fanout and height
// bounds, node classes, discriminative-bit monotonicity, partial-key ordering and
// canonical encoding, leaf key order, obsolete-node reachability and
// lookup self-consistency — returning nil or a *CorruptionError describing
// the first violation. It walks every node and resolves every stored key
// (O(n·height) with key loads), so it is meant for integrity audits,
// tests and chaos harnesses rather than per-operation use. On a
// ConcurrentTrie it should run in a quiescent state (no concurrent
// writers): a mid-flight writer can make a healthy trie look momentarily
// inconsistent.
func (t *tree) Verify() error {
	return t.verify(false)
}
