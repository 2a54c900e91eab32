package server

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestKeyMapConcurrent binds and loads overlapping TIDs from 8 goroutines:
// the same key bound twice resolves to one stored copy, a different key is
// refused, exactly one of several racing keys wins a fresh TID, an unbound
// TID loads nil, and every load sees nil or the bound bytes — never a torn
// or foreign key. Its worth is under -race (make race).
func TestKeyMapConcurrent(t *testing.T) {
	const workers, n = 8, 2000
	keyOf := func(tid uint64) []byte { return fmt.Appendf(nil, "key-%06d", tid) }
	var km KeyMap
	// TIDs [0, n) all bind keyOf(tid); TIDs [n, 2n) are contested — every
	// worker offers its own key; TIDs ≥ 2n are never bound.
	stored := make([][][]byte, workers)
	wins := make([]atomic.Int32, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		stored[w] = make([][]byte, n)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < n; j++ {
				tid := uint64((j + w*n/workers) % n) // each worker starts elsewhere
				if got := km.Key(tid, nil); got != nil && !bytes.Equal(got, keyOf(tid)) {
					t.Errorf("Key(%d) = %q before bind, want nil or %q", tid, got, keyOf(tid))
					return
				}
				s, err := km.Bind(keyOf(tid), tid)
				if err != nil || !bytes.Equal(s, keyOf(tid)) {
					t.Errorf("Bind(%q, %d) = (%q, %v)", keyOf(tid), tid, s, err)
					return
				}
				stored[w][tid] = s
				if _, err := km.Bind([]byte("other"), tid); err == nil {
					t.Errorf("rebinding TID %d to a different key was accepted", tid)
					return
				}
				if got := km.Key(tid, nil); !bytes.Equal(got, keyOf(tid)) {
					t.Errorf("Key(%d) = %q after bind, want %q", tid, got, keyOf(tid))
					return
				}
				if _, err := km.Bind(fmt.Appendf(nil, "w%d-%d", w, tid), n+tid); err == nil {
					wins[tid].Add(1)
				}
				if got := km.Key(2*n+tid, nil); got != nil {
					t.Errorf("unbound TID %d loads %q", 2*n+tid, got)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for tid := uint64(0); tid < n; tid++ {
		first := stored[0][tid]
		for w := 1; w < workers; w++ {
			if s := stored[w][tid]; &s[0] != &first[0] || len(s) != len(first) {
				t.Fatalf("TID %d: worker %d got a different copy of the bound key", tid, w)
			}
		}
		if c := wins[tid].Load(); c != 1 {
			t.Fatalf("contested TID %d was bound by %d workers, want 1", n+tid, c)
		}
		got := km.Key(n+tid, nil)
		var owner int
		if _, err := fmt.Sscanf(string(got), "w%d-", &owner); err != nil || !bytes.Equal(got, fmt.Appendf(nil, "w%d-%d", owner, tid)) {
			t.Fatalf("contested TID %d loads %q, no worker's key", n+tid, got)
		}
	}
}

// TestKeyMapBindCopies: the stored key is the map's own copy, so a caller
// reusing its buffer cannot change a binding.
func TestKeyMapBindCopies(t *testing.T) {
	var km KeyMap
	buf := []byte("alpha")
	s, err := km.Bind(buf, 9)
	if err != nil {
		t.Fatal(err)
	}
	copy(buf, "omega")
	if string(s) != "alpha" || string(km.Key(9, nil)) != "alpha" {
		t.Fatalf("binding followed the caller's buffer: stored %q, loads %q", s, km.Key(9, nil))
	}
	if again, err := km.Bind([]byte("alpha"), 9); err != nil || &again[0] != &s[0] {
		t.Fatalf("rebinding the same key = (%p, %v), want the stored copy %p", again, err, s)
	}
}
