package core

import "github.com/hotindex/hot/internal/key"

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
	return top.nd.slots[top.idx].loadTID()
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
func (it *Iterator) descendLeftmost() {
	for {
		top := &it.stack[len(it.stack)-1]
		c := top.nd.slots[top.idx].loadChild()
		if c == nil {
			return
		}
		it.stack = append(it.stack, pathEntry{c, 0})
	}
}

// seek returns an iterator positioned at the first key ≥ start (nil
// start: the smallest key). Single-entry trees are handled by the callers
// (scan), since they have no nodes to stack. buf is scratch for the one
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
	top := &it.stack[len(it.stack)-1]
	cand := top.nd.slots[top.idx].loadTID()
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
	lo, hi := affectedRange(a.nd, a.idx, mb)
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

// scan invokes fn for up to max entries in ascending key order starting at
// the first key ≥ start, returning the number visited. fn returning false
// stops early. buf is scratch for key loads.
func (t *tree) scan(start []byte, max int, fn func(TID) bool, buf []byte) int {
	if max <= 0 {
		return 0
	}
	rb := t.root.Load()
	switch {
	case rb.n == nil && !rb.leaf:
		return 0
	case rb.leaf:
		if start != nil && key.Compare(t.load(rb.tid, buf), start) < 0 {
			return 0
		}
		fn(rb.tid)
		return 1
	}
	it := t.seek(rb.n, start, buf, nil)
	n := 0
	for it.Valid() && n < max {
		n++
		if !fn(it.TID()) {
			break
		}
		it.Next()
	}
	return n
}
