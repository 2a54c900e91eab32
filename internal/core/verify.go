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
	if nd.obsolete.Load() {
		return 0, v.corrupt(InvObsoleteReachable, -1, "reachable node is marked obsolete")
	}
	n := int(nd.n)
	if n < 2 || n > v.t.k {
		return 0, v.corrupt(InvFanout, -1, "%d entries, want 2..%d", n, v.t.k)
	}
	d := nd.dbits
	if len(d) < 1 || len(d) > n-1 {
		return 0, v.corrupt(InvDiscriminativeBits, -1,
			"%d discriminative bits for %d entries, want 1..%d", len(d), n, n-1)
	}
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
		pathMax := -1
		if i > 0 {
			if b := divergeBit(d, pks[i-1], pks[i]); b > pathMax {
				pathMax = b
			}
		}
		if i < n-1 {
			if b := divergeBit(d, pks[i], pks[i+1]); b > pathMax {
				pathMax = b
			}
		}
		if c := nd.slots[i].loadChild(); c != nil {
			v.path = append(v.path, i)
			h, err := v.walk(c, pathMax+1)
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
		stored := nd.slots[i].loadTID()
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
	return nd.height, nil
}

// divergeBit returns the discriminative bit of the BiNode where the
// adjacent partial keys a < b branch apart: the most significant differing
// column. Columns are ordered most significant first, so column c maps to
// partial-key bit len(d)-1-c.
func divergeBit(d []uint16, a, b uint32) int {
	hb := mathbits.Len32(a^b) - 1
	return int(d[len(d)-1-hb])
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
// bounds, discriminative-bit monotonicity, partial-key ordering and
// canonical encoding, leaf key order, obsolete-node reachability and
// lookup self-consistency — returning nil or a *CorruptionError describing
// the first violation. It walks every node and resolves every stored key
// (O(n·height) with key loads), so it is meant for integrity audits,
// tests and chaos harnesses rather than per-operation use.
func (t *Trie) Verify() error {
	return t.verify(false)
}

// Verify checks the trie's structural invariants like (*Trie).Verify. It
// pins an epoch guard so the walk is safe against concurrent reclamation,
// but it should run in a quiescent state (no concurrent writers): a
// mid-flight writer can make a healthy trie look momentarily inconsistent.
func (t *ConcurrentTrie) Verify() error {
	g := t.gc.Enter()
	defer g.Exit()
	return t.verify(false)
}
