package core

import (
	"sync"

	"github.com/hotindex/hot/internal/key"
)

// Iterator walks the trie's leaves in ascending key order. Entries are
// yielded as TIDs; keys, when needed, are resolved through the loader by
// the caller. An Iterator is a snapshot-ish cursor: on the concurrent trie
// it observes nodes atomically (it may surface a mix of states during
// concurrent writes, like the paper's wait-free readers).
type Iterator struct {
	stack    []pathEntry
	leafTID  TID // single-entry trees have no nodes to stack
	leafOnly bool
	valid    bool
}

// Valid reports whether the iterator is positioned on an entry.
func (it *Iterator) Valid() bool { return it.valid }

// TID returns the entry the iterator is positioned on.
func (it *Iterator) TID() TID {
	if it.leafOnly {
		return it.leafTID
	}
	top := &it.stack[len(it.stack)-1]
	_, tid := top.nd.entry(top.idx)
	return tid
}

// Next advances to the next leaf in key order.
func (it *Iterator) Next() {
	if !it.valid {
		return
	}
	if it.leafOnly {
		it.valid = false
		return
	}
	for len(it.stack) > 0 {
		top := &it.stack[len(it.stack)-1]
		top.idx++
		if top.idx >= int(top.nd.n) {
			it.stack = it.stack[:len(it.stack)-1]
			continue
		}
		it.descendLeftmost()
		return
	}
	it.valid = false
}

// descendLeftmost pushes frames until the top of stack points at a leaf.
// Landing on a leaf node, it starts loading the node the walk reaches
// after it (see prefetchSibling).
func (it *Iterator) descendLeftmost() {
	top := &it.stack[len(it.stack)-1]
	c := top.nd.child(top.idx)
	if c == nil {
		return
	}
	for c != nil {
		c.prefetch()
		it.stack = append(it.stack, pathEntry{c, 0})
		c = c.child(0)
	}
	it.prefetchSibling()
}

// prefetchSibling starts loading the parent's next child when the top of
// stack is in a leaf node: the next leaf in key order, or the inner node
// above it. A scan consuming this leaf's run overlaps that miss instead
// of waiting on it at the leaf boundary. One node ahead suffices: a leaf's
// run (about 20 entries over 1 M keys) outlasts one memory latency.
func (it *Iterator) prefetchSibling() {
	n := len(it.stack)
	if n < 2 || !it.stack[n-1].nd.isLeaf() {
		return
	}
	p := it.stack[n-2]
	if p.idx+1 < int(p.nd.n) {
		if s := p.nd.child(p.idx + 1); s != nil {
			s.prefetch()
		}
	}
}

// Scan hands fn up to max entries in key order from the iterator's
// position, a leaf node's remaining entries in one loop at a time (a leaf
// entry of an inner node is a run of one), stepping to the next leaf with
// one Next. It returns the number of entries handed out and whether fn
// stopped the walk by returning false. A stopped iterator stays on the
// entry fn refused; otherwise it is left on the entry after the last one
// handed out, or invalid when the trie is exhausted. TIDs are read
// atomically, as ROWEX upserts store them in place.
func (it *Iterator) Scan(max int, fn func(TID) bool) (n int, stopped bool) {
	if it.leafOnly {
		if !it.valid || max <= 0 {
			return 0, false
		}
		if !fn(it.leafTID) {
			return 1, true
		}
		it.valid = false
		return 1, false
	}
	for it.valid && n < max {
		top := &it.stack[len(it.stack)-1]
		nd, i := top.nd, top.idx
		end := i + 1
		if nd.isLeaf() {
			end = int(nd.n)
		}
		if r := max - n; end-i > r { // i+(max-n) overflows when max is math.MaxInt
			end = i + r
		}
		for ; i < end; i++ {
			_, tid := nd.entry(i)
			n++
			if !fn(tid) {
				top.idx = i
				return n, true
			}
		}
		top.idx = i - 1
		it.Next()
	}
	return n, false
}

// seek returns an iterator positioned at the first key ≥ start (nil
// start: the smallest key). Single-entry trees are handled by the caller
// (iter), since they have no nodes to stack. buf is scratch for the one
// candidate key load; stack, when non-nil, is reused as the iterator's
// path storage so repositioning a cursor allocates nothing.
func (t *tree) seek(root *node, start, buf []byte, stack []pathEntry) Iterator {
	var it Iterator
	if stack == nil {
		stack = make([]pathEntry, 0, 8)
	}
	it.stack = stack[:0]
	if start == nil {
		it.stack = append(it.stack, pathEntry{root, 0})
		it.descendLeftmost()
		it.valid = true
		return it
	}
	// Find the candidate leaf for start, keeping the path.
	it.stack, _ = descend(root, start, it.stack)
	it.prefetchSibling()
	top := &it.stack[len(it.stack)-1]
	_, cand := top.nd.entry(top.idx)
	mb, differ := key.MismatchBit(t.load(cand, buf), start)
	if !differ {
		it.valid = true
		return it
	}
	// start is not in the trie. The BiNode it would be inserted at splits
	// the affected subtree: when start's bit there is 0, start sorts before
	// the whole subtree (its first leaf is the lower bound); when 1, start
	// sorts after it (the subtree's successor is the lower bound).
	ai, _ := affectedLevel(it.stack, mb)
	a := it.stack[ai]
	pos, _ := a.nd.columnOf(uint16(mb))
	lo, hi := a.nd.prefixRange(a.idx, pos)
	it.stack = it.stack[:ai+1]
	if key.Bit(start, mb) == 0 {
		it.stack[ai].idx = lo
		it.descendLeftmost()
		it.valid = true
		return it
	}
	// Entries [lo, hi] of the affected node are exactly the affected
	// subtree's entries at this level (canonical encoding keeps the comply
	// range contiguous), and every leaf below them sorts before start:
	// they agree with start on all bits above mb and — since no BiNode on
	// start's path discriminates at mb — share bit 0 at mb where start has
	// 1. The lower bound is therefore the subtree's successor. With the
	// stack truncated to level ai and positioned on hi, Next() yields
	// precisely that: it skips (a, hi)'s whole subtree without descending
	// into it, stepping to entry hi+1 (or climbing the retained path when
	// hi is the node's last entry), and invalidates the iterator when
	// start is greater than every stored key. The boundary tests in
	// seek_test.go pin all three cases against a sorted oracle.
	it.stack[ai].idx = hi
	it.valid = true
	it.Next()
	return it
}

// Iter returns an iterator positioned at the first key ≥ start (nil start:
// the smallest key). The iterator must not be used across modifications of
// a single-threaded trie (replaced nodes are recycled); on the concurrent
// trie it behaves like the paper's wait-free readers.
func (t *tree) Iter(start []byte) Iterator {
	return t.iter(start, nil, nil)
}

// SeekIter repositions it at the first key ≥ start (nil start: the
// smallest key), reusing the iterator's stack storage; buf is scratch for
// the seek's one candidate key load (nil: the loader may allocate). With a
// buf that holds the key, repositioning a used iterator allocates nothing.
// The iterator may be zero-valued or previously exhausted.
func (t *tree) SeekIter(it *Iterator, start, buf []byte) {
	*it = t.iter(start, buf, it.stack)
}

// Reset invalidates it and drops its hold on the trie's nodes, keeping its
// stack storage for the next SeekIter.
func (it *Iterator) Reset() {
	clear(it.stack[:cap(it.stack)])
	*it = Iterator{stack: it.stack[:0]}
}

// iter implements Iter with caller-provided scratch: buf for the seek's
// candidate key load and stack for the iterator's path storage (both may
// be nil; Trie threads its reusable buffers, the concurrent trie passes
// nil since its calls may race).
func (t *tree) iter(start, buf []byte, stack []pathEntry) Iterator {
	rb := t.root.Load()
	switch {
	case rb.n == nil && !rb.leaf:
		return Iterator{stack: stack[:0]}
	case rb.leaf:
		if start != nil && key.Compare(t.load(rb.tid, buf), start) < 0 {
			return Iterator{stack: stack[:0]}
		}
		return Iterator{stack: stack[:0], leafOnly: true, leafTID: rb.tid, valid: true}
	}
	return t.seek(rb.n, start, buf, stack)
}

// scanIters recycles scan's iterators with their path stacks, so a scan
// allocates nothing.
var scanIters = sync.Pool{New: func() any { return new(Iterator) }}

// scan invokes fn for up to max entries in ascending key order starting at
// the first key ≥ start, returning the number visited. fn returning false
// stops early. buf is scratch for the seek's key load.
func (t *tree) scan(start []byte, max int, fn func(TID) bool, buf []byte) int {
	if max <= 0 {
		return 0
	}
	it := scanIters.Get().(*Iterator)
	t.SeekIter(it, start, buf)
	n, _ := it.Scan(max, fn)
	it.Reset()
	scanIters.Put(it)
	return n
}
