package core

import (
	"github.com/hotindex/hot/internal/chaos"
	"github.com/hotindex/hot/internal/key"
)

// deleteCase classifies the removal work, mirroring the paper's deletion
// cases (Section 3.2): a normal delete rebuilds the affected node; an
// underflow (node left with one entry) eliminates the node, linking the
// remaining entry directly into the parent.
type deleteCase uint8

const (
	delNormal         deleteCase = iota
	delUnderflowRoot             // 2-entry root node collapses into the root box
	delUnderflowInner            // 2-entry inner node is eliminated via its parent
)

type deletePlan struct {
	stack   []pathEntry
	cand    TID
	what    deleteCase
	lockTop int
	useRoot bool
}

// planDelete analyses the removal of the candidate leaf at the end of stack.
func planDelete(stack []pathEntry, cand TID) deletePlan {
	p := deletePlan{stack: stack, cand: cand}
	last := len(stack) - 1
	if stack[last].nd.n > 2 {
		p.what = delNormal
		p.lockTop = max(last-1, 0)
		p.useRoot = last == 0
		return p
	}
	if last == 0 {
		p.what = delUnderflowRoot
		p.lockTop = 0
		p.useRoot = true
		return p
	}
	p.what = delUnderflowInner
	p.lockTop = max(last-2, 0)
	p.useRoot = last-1 == 0
	return p
}

// execDelete applies plan, appending the replaced nodes to replaced. The
// caller must guarantee exclusive write access to stack levels
// [plan.lockTop, last] and, when plan.useRoot, the root box.
func (t *tree) execDelete(plan deletePlan, replaced []*node) []*node {
	stack := plan.stack
	last := len(stack) - 1
	a := stack[last]
	switch plan.what {
	case delNormal:
		nd2 := a.nd.withoutEntry(a.idx, t.pool)
		t.replaceAt(stack, last, nd2)
		t.size.Add(-1)
		return append(replaced, a.nd)
	case delUnderflowRoot:
		if c, tid := a.nd.entry(1 - a.idx); c != nil {
			t.root.Store(&rootBox{n: c})
		} else {
			t.root.Store(&rootBox{tid: tid, leaf: true})
		}
		t.size.Add(-1)
		return append(replaced, a.nd)
	default: // delUnderflowInner
		c, tid := a.nd.entry(1 - a.idx)
		other := leafSlot(tid)
		if c != nil {
			other = childSlot(c)
		}
		p := stack[last-1]
		p2 := p.nd.withSlotReplaced(p.idx, other, t.pool)
		t.replaceAt(stack, last-1, p2)
		t.size.Add(-1)
		return append(replaced, a.nd, p.nd)
	}
}

// del is the one delete body, shared by every writer exactly like write
// (see there for the latch and the step order). ok=false means the latch
// failed validation: nothing changed and the caller restarts.
func (t *tree) del(k []byte, sc *scratch, latch *ConcurrentTrie) (deleted, ok bool) {
	rb := t.root.Load()
	if rb.n == nil {
		if !rb.leaf {
			return false, true
		}
		if latch != nil {
			if !latch.lockRoot(rb) {
				return false, false
			}
			defer latch.unlock(nil, 0, true)
		}
		if !key.Equal(t.load(rb.tid, sc.buf[:0]), k) {
			return false, true
		}
		t.root.Store(emptyRoot)
		t.size.Add(-1)
		return true, true
	}
	stack, cand := descend(rb.n, k, sc.stack[:0])
	sc.stack = stack[:0]
	chaos.Fire(chaos.RowexAfterTraverse)
	if !key.Equal(t.load(cand, sc.buf[:0]), k) {
		return false, true
	}
	plan := planDelete(stack, cand)
	if latch != nil && !latch.lock(stack, plan.lockTop, plan.useRoot, cand) {
		return false, false
	}
	sc.replaced = t.execDelete(plan, sc.replaced[:0])
	t.retire(sc.replaced)
	if latch != nil {
		latch.unlock(stack, plan.lockTop, plan.useRoot)
	}
	return true, true
}
