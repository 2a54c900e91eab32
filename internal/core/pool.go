package core

// nodePool recycles retired nodes for the single-threaded trie: every
// copy-on-write modification frees exactly one node of a known class, so
// reusing its block removes most allocator and GC work from the insert
// path (the C++ implementation leans on a fast allocator in the same way).
// The concurrent trie does not use the pool — wait-free readers may hold
// its obsolete nodes arbitrarily long, so they are left to the garbage
// collector, which frees each once no reader can reach it.
// A concurrent trie's writers each keep one more in their scratch
// (scratch.spare) for the blocks a write builds and never publishes; a
// Trie's pool serves as its spare too.
type nodePool struct {
	lists [len(classes)][]*node
}

// poolClassCap bounds each class so class imbalance cannot hoard memory.
const poolClassCap = 32

// get returns a recycled block of class cls, or nil.
func (p *nodePool) get(cls uint16) *node {
	if p == nil {
		return nil
	}
	l := p.lists[cls]
	if len(l) == 0 {
		return nil
	}
	nd := l[len(l)-1]
	p.lists[cls] = l[:len(l)-1]
	return nd
}

// put recycles a retired node. The caller guarantees no reader can still
// observe it.
func (p *nodePool) put(nd *node) {
	if p == nil || nd == nil || len(p.lists[nd.cls]) >= poolClassCap {
		return
	}
	// Drop references so recycled nodes do not retain subtrees; a leaf
	// node holds none.
	if !nd.isLeaf() {
		clear(nd.slots())
	}
	p.lists[nd.cls] = append(p.lists[nd.cls], nd)
}
