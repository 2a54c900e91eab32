package hot

import "github.com/hotindex/hot/internal/core"

// Cursor iterates a tree's entries in ascending key order without
// materializing them, the pull-based counterpart of Scan. Obtain one with
// Tree.Iter or ConcurrentTree.Iter.
type Cursor struct {
	it  core.Iterator
	buf []byte // SeekCursor's scratch for the loader
}

// Valid reports whether the cursor is positioned on an entry.
func (c *Cursor) Valid() bool { return c.it.Valid() }

// TID returns the entry under the cursor. It must only be called while
// Valid reports true.
func (c *Cursor) TID() TID { return c.it.TID() }

// Next advances to the next entry in key order.
func (c *Cursor) Next() { c.it.Next() }

// Iter returns a cursor positioned at the first key ≥ start (nil start:
// the smallest key). The cursor is invalidated by any modification of the
// tree and must not be used afterwards.
func (t *Tree) Iter(start []byte) *Cursor {
	return &Cursor{it: t.t.Iter(start)}
}

// SeekCursor repositions c at the first key ≥ start, reusing the cursor's
// internal storage: repositioning an already-used cursor allocates nothing.
// The cursor may be zero-valued or previously exhausted.
func (t *Tree) SeekCursor(c *Cursor, start []byte) {
	if c.buf == nil {
		c.buf = make([]byte, 0, 64)
	}
	t.t.SeekIter(&c.it, start, c.buf[:0])
}

// Iter returns a cursor positioned at the first key ≥ start. Like the
// paper's wait-free readers, the cursor stays usable while other
// goroutines modify the tree; it observes each node atomically and may
// surface a mix of states across steps.
func (t *ConcurrentTree) Iter(start []byte) *Cursor {
	return &Cursor{it: t.t.Iter(start)}
}
