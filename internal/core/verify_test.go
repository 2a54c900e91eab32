package core

import (
	"errors"
	"fmt"
	"testing"
)

// buildCorruptible returns a multi-level trie plus its root node, ready to
// be surgically damaged. Each caller gets a fresh trie: the mutations below
// are irreversible.
func buildCorruptible(t *testing.T) (*Trie, *node) {
	t.Helper()
	tr, s := newTestTrie()
	for i := 0; i < 2000; i++ {
		k := fmt.Sprintf("key-%04d", i)
		tr.Insert([]byte(k), s.AddString(k))
	}
	rb := tr.root.Load()
	if rb.n == nil || rb.n.height < 2 {
		t.Fatal("test trie too shallow to corrupt meaningfully")
	}
	return tr, rb.n
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
			d := firstChild(t, root).dbits()
			if len(d) < 2 {
				t.Skip("child has a single discriminative bit")
			}
			d[0], d[1] = d[1], d[0]
		}},
		{"dbits-path-bound", InvDiscriminativeBits, func(t *testing.T, tr *Trie, root *node) {
			firstChild(t, root).dbits()[0] = 0 // bits must grow along the path
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
