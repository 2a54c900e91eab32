package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/hotindex/hot/internal/chaos"
	"github.com/hotindex/hot/internal/key"
)

// rootBox is the immutable root descriptor. A HOT trie with zero or one
// entries has no compound node; the box distinguishes the three shapes.
type rootBox struct {
	n    *node // non-nil: root compound node
	tid  TID   // valid when leaf
	leaf bool  // single-entry tree
}

var emptyRoot = &rootBox{}

// tree holds the state shared by the single-threaded Trie and the
// ConcurrentTrie: the root pointer, the entry count, the TID→key loader and
// the one write body every writer runs (write, del).
type tree struct {
	loader Loader
	root   atomic.Pointer[rootBox]
	size   atomic.Int64
	// pool recycles replaced nodes and is non-nil only for the
	// single-threaded trie, whose replaced nodes no reader can still hold;
	// a concurrent trie leaves them to the garbage collector.
	pool *nodePool
	// sc is the exclusive writer's scratch — Trie's, or a ConcurrentTrie
	// Writer's. ROWEX writers run concurrently and bring their own.
	sc scratch
	// k is the maximum node fanout (the paper's k, default MaxFanout).
	// Smaller values trade tree height for cheaper node operations; the
	// fanout ablation benchmark sweeps it.
	k int
	// ops counts the structure-adaptation cases taken by inserts.
	ops opCounters
}

// opCounters tallies the paper's four insertion cases plus root creations
// (Section 3.2) and the ROWEX writer-path robustness events. Counters are
// atomic so the concurrent trie can share them.
type opCounters struct {
	normal       atomic.Uint64
	pushdown     atomic.Uint64
	pullup       atomic.Uint64
	intermediate atomic.Uint64
	newRoot      atomic.Uint64

	restarts        atomic.Uint64
	backoffs        atomic.Uint64
	validationFails atomic.Uint64
}

func (t *tree) init(loader Loader, k int) {
	if loader == nil {
		panic("core: nil Loader")
	}
	if k < 2 || k > MaxFanout {
		panic(fmt.Sprintf("core: max fanout %d out of range [2, %d]", k, MaxFanout))
	}
	t.loader = loader
	t.k = k
	t.root.Store(emptyRoot)
	t.sc = newScratch()
}

// Len returns the number of keys stored.
func (t *tree) Len() int { return int(t.size.Load()) }

// Height returns the overall tree height in compound nodes: 0 for an empty
// or single-entry tree, otherwise the height of the root node.
func (t *tree) Height() int {
	rb := t.root.Load()
	if rb.n == nil {
		return 0
	}
	return int(rb.n.height)
}

func (t *tree) load(tid TID, buf []byte) []byte { return t.loader(tid, buf) }

func checkKey(k []byte) {
	if len(k) > MaxKeyLen {
		panic(fmt.Sprintf("core: key length %d exceeds MaxKeyLen %d", len(k), MaxKeyLen))
	}
}

func checkTID(tid TID) {
	if tid > MaxTID {
		panic(fmt.Sprintf("core: TID %#x exceeds MaxTID", tid))
	}
}

// pathEntry records one traversal step: the node and the entry index taken.
type pathEntry struct {
	nd  *node
	idx int
}

// descend walks from root to the result candidate leaf for k, appending the
// path to stack and returning it together with the candidate TID. Every
// child is prefetched as soon as its pointer is loaded.
func descend(root *node, k []byte, stack []pathEntry) ([]pathEntry, TID) {
	nd := root
	for {
		idx := nd.search(k)
		stack = append(stack, pathEntry{nd, idx})
		c, tid := nd.entry(idx)
		if c != nil {
			c.prefetch()
			nd = c
			continue
		}
		return stack, tid
	}
}

// lookup returns the TID stored under k. buf is scratch space for the key
// load of the final false-positive check (Listing 2, line 7).
func (t *tree) lookup(k, buf []byte) (TID, bool) {
	rb := t.root.Load()
	switch {
	case rb.n != nil:
		nd := rb.n
		for {
			c, tid := nd.entry(nd.search(k))
			if c != nil {
				c.prefetch()
				nd = c
				continue
			}
			if !key.Equal(t.load(tid, buf), k) {
				return 0, false
			}
			return tid, true
		}
	case rb.leaf:
		if !key.Equal(t.load(rb.tid, buf), k) {
			return 0, false
		}
		return rb.tid, true
	default:
		return 0, false
	}
}

// insertCase classifies what an insert of a new key has to do: one of the
// insertion cases of Section 3.2.
type insertCase uint8

const (
	caseNormal   insertCase = iota // splice into the affected node (may overflow)
	casePushdown                   // new 2-entry node below a leaf slot
)

// insertPlan is the pure outcome of write analysis.
type insertPlan struct {
	stack   []pathEntry
	cand    TID // candidate leaf whose key determined the mismatch
	mb      int // mismatching bit position
	bitv    uint
	ai      int // stack level of the affected node
	what    insertCase
	lockTop int  // shallowest stack level modified by the exec phase
	useRoot bool // exec swaps the root box
}

// affectedLevel locates the compound node containing the mismatching
// BiNode: following the conceptual binary Patricia traversal, that is the
// first BiNode on the path whose bit position exceeds mb, i.e. the first
// stack level whose taken path contains a bit > mb. When mb lies beyond
// every path bit the mismatch is at the candidate leaf itself (pastPath).
func affectedLevel(stack []pathEntry, mb int) (level int, pastPath bool) {
	for i := range stack {
		if stack[i].nd.beforePathMax(stack[i].idx, uint16(mb)) {
			return i, false
		}
	}
	return len(stack) - 1, true
}

// planInsert analyses where and how the new key diverges from the tree
// along stack, for a trie with maximum fanout k. It performs no
// modifications and only reads immutable node state.
func planInsert(stack []pathEntry, cand TID, mb int, bitv uint, k int) insertPlan {
	p := insertPlan{stack: stack, cand: cand, mb: mb, bitv: bitv}
	ai, pastPath := affectedLevel(stack, mb)
	p.ai = ai
	a := stack[ai]

	if pastPath && a.nd.height > 1 {
		// The mismatching BiNode is a leaf entry of an inner node: replace
		// the leaf with a new two-entry node one level down.
		p.what = casePushdown
		p.lockTop = ai
		return p
	}

	p.what = caseNormal
	// Determine how far an overflow would climb, mirroring exec.
	cur := ai
	if int(a.nd.n) < k {
		p.lockTop = max(ai-1, 0)
		p.useRoot = ai == 0
		return p
	}
	oldH := stack[cur].nd.height
	for {
		if cur == 0 {
			p.lockTop = 0
			p.useRoot = true
			return p
		}
		parent := stack[cur-1].nd
		if int(oldH)+1 >= int(parent.height) {
			// Parent pull up.
			if int(parent.n) < k {
				p.lockTop = max(cur-2, 0)
				p.useRoot = cur-1 == 0
				return p
			}
			oldH = parent.height
			cur--
		} else {
			// Intermediate node creation: in-place store into parent.
			p.lockTop = cur - 1
			return p
		}
	}
}

// execInsert applies plan, storing tid as the new leaf. It appends the
// nodes that were replaced by copies (to be marked obsolete / retired) to
// replaced and returns it; an overflow's never-published half goes back to
// spare, the writer's own pool (see spliceAndBuild). The caller must
// guarantee exclusive write access to the nodes at stack levels
// [plan.lockTop, len(stack)-1] and, when plan.useRoot, the root box.
func (t *tree) execInsert(plan insertPlan, tid TID, spare *nodePool, replaced []*node) []*node {
	stack := plan.stack
	a := stack[plan.ai]

	if plan.what == casePushdown {
		_, cand := a.nd.entry(a.idx) // a leaf, stable under the node lock
		existing := leafSlot(cand)
		var c *node
		if plan.bitv == 1 {
			c = nodeFrom2(uint16(plan.mb), existing, leafSlot(tid), t.pool)
		} else {
			c = nodeFrom2(uint16(plan.mb), leafSlot(tid), existing, t.pool)
		}
		a.nd.storeChild(a.idx, c)
		t.size.Add(1)
		t.ops.pushdown.Add(1)
		return replaced
	}
	t.ops.normal.Add(1)

	nd2, left, right, splitBit, overflow := a.nd.spliceAndBuild(spliceOp{
		mb:      uint16(plan.mb),
		newBit:  plan.bitv,
		newSlot: leafSlot(tid),
		refIdx:  a.idx,
	}, t.pool, spare, t.k)
	replaced = append(replaced, a.nd)
	cur := plan.ai
	oldH := a.nd.height
	for overflow {
		if cur == 0 {
			newRoot := nodeFrom2(splitBit, left, right, t.pool)
			t.root.Store(&rootBox{n: newRoot})
			t.size.Add(1)
			t.ops.newRoot.Add(1)
			return replaced
		}
		parent := stack[cur-1]
		if int(oldH)+1 >= int(parent.nd.height) {
			// Parent pull up: the split halves replace the link in the parent.
			t.ops.pullup.Add(1)
			nd2, left, right, splitBit, overflow = parent.nd.spliceAndBuild(spliceOp{
				mb:      splitBit,
				newBit:  1,
				newSlot: right,
				refIdx:  parent.idx,
				pullUp:  true,
				refSlot: left,
			}, t.pool, spare, t.k)
			if !overflow {
				replaced = append(replaced, parent.nd)
				t.replaceAt(stack, cur-1, nd2)
				t.size.Add(1)
				return replaced
			}
			replaced = append(replaced, parent.nd)
			oldH = parent.nd.height
			cur--
			_ = nd2
		} else {
			// Intermediate node creation keeps the overall height unchanged.
			t.ops.intermediate.Add(1)
			m := nodeFrom2(splitBit, left, right, t.pool)
			parent.nd.storeChild(parent.idx, m)
			t.size.Add(1)
			return replaced
		}
	}
	t.replaceAt(stack, plan.ai, nd2)
	t.size.Add(1)
	return replaced
}

// scratch is one writer's reusable working storage.
type scratch struct {
	buf      []byte      // the loader's key buffer
	stack    []pathEntry // the descent path
	replaced []*node     // the nodes the write replaced
	// spare recycles the blocks a write builds and never publishes (an
	// overflow's half before its splice), so it never holds a node a
	// reader can reach: a Trie's pool, or made on the first insert that
	// copies.
	spare *nodePool
}

func newScratch() scratch {
	return scratch{buf: make([]byte, 0, 64), stack: make([]pathEntry, 0, 16)}
}

// scratchPool lends ROWEX writers, which run concurrently, their scratch.
var scratchPool = sync.Pool{New: func() any { sc := newScratch(); return &sc }}

// write is the one insert/upsert body, run by Trie and by a
// ConcurrentTrie's exclusive Writer with a nil latch, and by ROWEX with the
// trie itself as the latch: (a) traverse and plan, (b, c) lock and
// validate through the latch, (d) store a present key's new TID in place,
// or else copy, publish and retire the replaced nodes, (e) unlock.
// Retiring before the unlock matters: a node a racing writer locks next
// must already read as obsolete. ok=false means the
// latch failed validation: nothing changed and the caller restarts. The
// caller has checked k and tid.
func (t *tree) write(k []byte, tid TID, upsert bool, sc *scratch, latch *ConcurrentTrie) (inserted bool, old TID, replaced, ok bool) {
	rb := t.root.Load()
	if rb.n == nil {
		// Empty or single-leaf tree: the root box is all there is.
		if latch != nil {
			if !latch.lockRoot(rb) {
				return false, 0, false, false
			}
			defer latch.unlock(nil, 0, true)
		}
		if !rb.leaf {
			t.root.Store(&rootBox{tid: tid, leaf: true})
			t.size.Add(1)
			return true, 0, false, true
		}
		mb, differ := key.MismatchBit(t.load(rb.tid, sc.buf[:0]), k)
		if !differ {
			if upsert {
				t.root.Store(&rootBox{tid: tid, leaf: true})
				return false, rb.tid, true, true
			}
			return false, 0, false, true
		}
		s0, s1 := leafSlot(tid), leafSlot(rb.tid)
		if key.Bit(k, mb) == 1 {
			s0, s1 = s1, s0
		}
		t.root.Store(&rootBox{n: nodeFrom2(uint16(mb), s0, s1, t.pool)})
		t.size.Add(1)
		return true, 0, false, true
	}

	stack, cand := descend(rb.n, k, sc.stack[:0])
	sc.stack = stack[:0]
	chaos.Fire(chaos.RowexAfterTraverse)
	mb, differ := key.MismatchBit(t.load(cand, sc.buf[:0]), k)
	if !differ {
		if !upsert {
			return false, 0, false, true // duplicate: nothing to lock
		}
		// A present key: store its new TID in its leaf entry. Nothing is
		// copied, published or retired, so the latch locks the leaf's node
		// alone — never its parent or the root box — and its validation is
		// what makes the store safe: the node is not obsolete (no copy of it
		// can lose the store), the entry is still a leaf holding cand (no
		// pushdown races it), and at depth 0 the root box still holds it.
		last := len(stack) - 1
		if latch != nil && !latch.lock(stack, last, false, cand) {
			return false, 0, false, false
		}
		stack[last].nd.storeTID(stack[last].idx, tid)
		if latch != nil {
			latch.unlock(stack, last, false)
		}
		return false, cand, true, true
	}
	plan := planInsert(stack, cand, mb, key.Bit(k, mb), t.k)
	if latch != nil && !latch.lock(stack, plan.lockTop, plan.useRoot, cand) {
		return false, 0, false, false
	}
	if sc.spare == nil {
		sc.spare = &nodePool{}
	}
	sc.replaced = t.execInsert(plan, tid, sc.spare, sc.replaced[:0])
	t.retire(sc.replaced)
	if latch != nil {
		latch.unlock(stack, plan.lockTop, plan.useRoot)
	}
	return true, 0, false, true
}

// retire disposes of the nodes a write replaced: straight into the pool
// when there is one, otherwise marked obsolete — a racing ROWEX writer that
// locks one fails validation — and left to the garbage collector, which
// frees it once no wait-free reader still holds it.
func (t *tree) retire(nodes []*node) {
	for _, nd := range nodes {
		if t.pool != nil {
			t.pool.put(nd)
			continue
		}
		nd.markObsolete()
	}
}

// replaceAt publishes repl in place of the node at stack level: a child
// store in the parent, or a root box swap at level 0.
func (t *tree) replaceAt(stack []pathEntry, level int, repl *node) {
	chaos.Fire(chaos.RowexMidCopy) // replacement built, not yet published
	if level == 0 {
		t.root.Store(&rootBox{n: repl})
		return
	}
	p := stack[level-1]
	p.nd.storeChild(p.idx, repl)
}
