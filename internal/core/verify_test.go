package core

import (
	"errors"
	"fmt"
	mathbits "math/bits"
	"strings"
	"testing"
)

// buildCorruptible returns a multi-level trie plus its root node, ready to
// be surgically damaged. Each caller gets a fresh trie: the mutations below
// are irreversible. Beside short keys, whose nodes are single-mask, it holds
// keys that differ in bytes 0 and 20, so one node is multi-mask.
func buildCorruptible(t *testing.T) (*Trie, *node) {
	t.Helper()
	tr, s := newTestTrie()
	for i := 0; i < 2000; i++ {
		k := fmt.Sprintf("key-%04d", i)
		tr.Insert([]byte(k), s.AddString(k))
	}
	for i := 0; i < 12; i++ {
		k := fmt.Sprintf("%c%s%c", 'p'+i%3, strings.Repeat("-", 19), 'a'+i/3)
		tr.Insert([]byte(k), s.AddString(k))
	}
	rb := tr.root.Load()
	if rb.n == nil || rb.n.height < 2 {
		t.Fatal("test trie too shallow to corrupt meaningfully")
	}
	return tr, rb.n
}

// findNode returns the first node below nd, depth first, that match accepts.
func findNode(t *testing.T, nd *node, match func(*node) bool) *node {
	t.Helper()
	var find func(nd *node) *node
	find = func(nd *node) *node {
		if match(nd) {
			return nd
		}
		for i := 0; i < int(nd.n); i++ {
			if c := nd.child(i); c != nil {
				if f := find(c); f != nil {
					return f
				}
			}
		}
		return nil
	}
	if f := find(nd); f != nil {
		return f
	}
	t.Fatal("no node matches")
	return nil
}

func firstChild(t *testing.T, nd *node) *node {
	t.Helper()
	for i := 0; i < int(nd.n); i++ {
		if c := nd.child(i); c != nil {
			return c
		}
	}
	t.Fatal("node has no child")
	return nil
}

// TestVerifyDetectsCorruption damages a healthy trie one invariant at a
// time and checks Verify reports the damage as a typed CorruptionError
// naming that invariant — the detector must detect, not just pass clean
// trees.
func TestVerifyDetectsCorruption(t *testing.T) {
	cases := []struct {
		name    string
		want    Invariant
		corrupt func(t *testing.T, tr *Trie, root *node)
	}{
		{"fanout", InvFanout, func(t *testing.T, tr *Trie, root *node) {
			firstChild(t, root).n = 1
		}},
		{"dbits-order", InvDiscriminativeBits, func(t *testing.T, tr *Trie, root *node) {
			// A multi8 node's key bytes must ascend, or so would not its bits.
			nd := findNode(t, root, func(nd *node) bool { return nd.kind == extractMulti8 })
			nd.offs[0], nd.offs[1] = nd.offs[1], nd.offs[0]
		}},
		{"dbits-path-bound", InvDiscriminativeBits, func(t *testing.T, tr *Trie, root *node) {
			// A window at byte 0 whose mask starts at its top bit puts
			// the child's first bit at 0, at or above every parent bit.
			c := firstChild(t, root)
			if c.kind != extractSingle {
				t.Fatalf("child has a %v spec, want a single mask", c.layout())
			}
			c.offs[0] = 0
			c.mask <<= mathbits.LeadingZeros64(c.mask)
		}},
		{"dbits-count", InvDiscriminativeBits, func(t *testing.T, tr *Trie, root *node) {
			c := firstChild(t, root)
			c.mask &= c.mask - 1 // one column fewer than ncols
		}},
		{"obsolete-reachable", InvObsoleteReachable, func(t *testing.T, tr *Trie, root *node) {
			firstChild(t, root).cold().obsolete.Store(true)
		}},
		{"height-bound", InvHeightBound, func(t *testing.T, tr *Trie, root *node) {
			root.height = 1 // root must sit above its subtrees
		}},
		{"class-swap", InvNodeClass, func(t *testing.T, tr *Trie, root *node) {
			// The root is inner (it has children); its leaf twin has the
			// same entry count and width but no room for a child.
			root.cls += leafClasses
		}},
		{"leaf-count", InvLeafCount, func(t *testing.T, tr *Trie, root *node) {
			tr.size.Add(1)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr, root := buildCorruptible(t)
			if err := tr.Verify(); err != nil {
				t.Fatalf("healthy trie failed verification: %v", err)
			}
			tc.corrupt(t, tr, root)
			err := tr.Verify()
			if err == nil {
				t.Fatal("corruption went undetected")
			}
			var ce *CorruptionError
			if !errors.As(err, &ce) {
				t.Fatalf("error is %T, want *CorruptionError", err)
			}
			if ce.Invariant != tc.want {
				t.Fatalf("reported %v, want %v (%v)", ce.Invariant, tc.want, err)
			}
			if ce.Error() == "" || ce.Invariant.String() == "unknown invariant" {
				t.Fatalf("unhelpful report: %v", err)
			}
			t.Logf("detected: %v", err)
		})
	}
}
