package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"github.com/hotindex/hot/internal/key"
	"github.com/hotindex/hot/internal/tidstore"
)

func TestConcurrentBasic(t *testing.T) {
	s := &tidstore.Store{}
	tr := NewConcurrent(s.Key)
	tid := s.AddString("alpha")
	if !tr.Insert([]byte("alpha"), tid) {
		t.Fatal("insert failed")
	}
	if got, ok := tr.Lookup([]byte("alpha")); !ok || got != tid {
		t.Fatal("lookup failed")
	}
	if tr.Insert([]byte("alpha"), tid) {
		t.Fatal("duplicate insert succeeded")
	}
	if !tr.Delete([]byte("alpha")) {
		t.Fatal("delete failed")
	}
	if tr.Len() != 0 {
		t.Fatalf("len = %d", tr.Len())
	}
}

// concurrentKeys generates n distinct 8-byte keys pre-registered in a store.
func concurrentKeys(n int, seed int64) (*tidstore.Store, [][]byte) {
	s := &tidstore.Store{}
	rng := rand.New(rand.NewSource(seed))
	seen := map[uint64]bool{}
	keys := make([][]byte, 0, n)
	for len(keys) < n {
		v := rng.Uint64() >> 1
		if seen[v] {
			continue
		}
		seen[v] = true
		k := make([]byte, 8)
		binary.BigEndian.PutUint64(k, v)
		s.Add(k)
		keys = append(keys, k)
	}
	return s, keys
}

func TestConcurrentInsertDisjoint(t *testing.T) {
	const n = 40000
	s, keys := concurrentKeys(n, 1)
	tr := NewConcurrent(s.Key)
	workers := 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				if !tr.Insert(keys[i], TID(i)) {
					t.Errorf("insert %d failed", i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if tr.Len() != n {
		t.Fatalf("len = %d, want %d", tr.Len(), n)
	}
	for i, k := range keys {
		if tid, ok := tr.Lookup(k); !ok || tid != TID(i) {
			t.Fatalf("lookup %d = (%d,%v)", i, tid, ok)
		}
	}
	// Structure must equal the single-threaded build (order independence).
	st := New(s.Key)
	for i, k := range keys {
		st.Insert(k, TID(i))
	}
	cm, sm := tr.Memory(), st.Memory()
	if cm.Nodes != sm.Nodes || cm.PaperBytes != sm.PaperBytes || tr.Height() != st.Height() {
		t.Errorf("concurrent build differs: %+v vs %+v", cm, sm)
	}
}

func TestConcurrentInsertRacingSameKeys(t *testing.T) {
	// All workers insert the SAME key set; exactly one insert per key may win.
	const n = 5000
	s, keys := concurrentKeys(n, 2)
	tr := NewConcurrent(s.Key)
	var wins atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, k := range keys {
				if tr.Insert(k, TID(i)) {
					wins.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if wins.Load() != n {
		t.Fatalf("%d successful inserts, want %d", wins.Load(), n)
	}
	if tr.Len() != n {
		t.Fatalf("len = %d", tr.Len())
	}
}

// TestConcurrentReadersDuringWrites runs lookups and scans against ROWEX
// writers over two loaders: the tuple store's, which ignores its buffer,
// and the embedded 8-byte one, which writes each candidate key into the
// reader's leased key buffer (keyBufs), which successive readers share.
func TestConcurrentReadersDuringWrites(t *testing.T) {
	const n = 20000
	s, keys := concurrentKeys(n, 3)
	for _, src := range []struct {
		name string
		load Loader
		tid  func(i int) TID
	}{
		{"store", s.Key, func(i int) TID { return TID(i) }},
		{"embedded", tidstore.Uint64Key, func(i int) TID { return binary.BigEndian.Uint64(keys[i]) }},
	} {
		t.Run(src.name, func(t *testing.T) {
			tr := NewConcurrent(src.load)
			// Pre-insert the first half.
			for i := 0; i < n/2; i++ {
				tr.Insert(keys[i], src.tid(i))
			}
			stop := make(chan struct{})
			var readerErr atomic.Value
			var wg sync.WaitGroup
			// Readers: first-half keys must always be visible; second-half keys may
			// appear but must then carry the right TID.
			for r := 0; r < 4; r++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for {
						select {
						case <-stop:
							return
						default:
						}
						i := rng.Intn(n)
						tid, found := tr.Lookup(keys[i])
						if found && tid != src.tid(i) {
							readerErr.Store(fmt.Sprintf("key %d resolved to tid %d", i, tid))
							return
						}
						if !found && i < n/2 {
							readerErr.Store(fmt.Sprintf("pre-inserted key %d vanished", i))
							return
						}
					}
				}(int64(r))
			}
			// Scanners: results must always be in strictly ascending key order.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					var prev []byte
					bad := false
					tr.Scan(nil, 1000, func(tid TID) bool {
						k := src.load(tid, nil)
						if prev != nil && string(prev) >= string(k) {
							bad = true
							return false
						}
						prev = append(prev[:0], k...)
						return true
					})
					if bad {
						readerErr.Store("scan out of order")
						return
					}
				}
			}()
			// Writers insert the second half.
			workers := 4
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := n/2 + w; i < n; i += workers {
						tr.Insert(keys[i], src.tid(i))
					}
				}(w)
			}
			// Wait for writers (they are the last `workers` goroutines); use a
			// separate waitgroup pattern: writers signal via channel.
			done := make(chan struct{})
			go func() {
				// Poll until all keys inserted.
				for tr.Len() < n {
				}
				close(done)
			}()
			<-done
			close(stop)
			wg.Wait()
			if e := readerErr.Load(); e != nil {
				t.Fatal(e)
			}
			for i, k := range keys {
				if tid, ok := tr.Lookup(k); !ok || tid != src.tid(i) {
					t.Fatalf("final lookup %d = (%d,%v)", i, tid, ok)
				}
			}
		})
	}
}

func TestConcurrentMixedOps(t *testing.T) {
	const n = 20000
	s, keys := concurrentKeys(n, 4)
	tr := NewConcurrent(s.Key)
	var wg sync.WaitGroup
	workers := 8
	// Each worker owns a disjoint stripe and repeatedly inserts/deletes it.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for round := 0; round < 3; round++ {
				for i := w; i < n; i += workers {
					tr.Insert(keys[i], TID(i))
				}
				for i := w; i < n; i += workers {
					if rng.Intn(2) == 0 {
						if !tr.Delete(keys[i]) {
							t.Errorf("delete %d failed", i)
							return
						}
					}
				}
				for i := w; i < n; i += workers {
					tr.Upsert(keys[i], TID(i))
				}
			}
		}(w)
	}
	wg.Wait()
	if tr.Len() != n {
		t.Fatalf("len = %d, want %d", tr.Len(), n)
	}
	for i, k := range keys {
		if tid, ok := tr.Lookup(k); !ok || tid != TID(i) {
			t.Fatalf("lookup %d = (%d,%v)", i, tid, ok)
		}
	}
	// ROWEX replaces what it changes copy-on-write, deletes and inserts
	// alike.
	checkCopyOnWrite(t, &tr.tree, keys[0], func() { tr.Delete(keys[0]) })
	checkCopyOnWrite(t, &tr.tree, keys[0], func() { tr.Insert(keys[0], 0) })
}

func TestConcurrentUpsertSameKey(t *testing.T) {
	s := &tidstore.Store{}
	tr := NewConcurrent(s.Key)
	k := []byte("contended")
	base := s.Add(k)
	// Register extra tids for the same key.
	tids := make([]TID, 64)
	for i := range tids {
		tids[i] = s.Add(k)
	}
	tr.Insert(k, base)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				tr.Upsert(k, tids[w*8+i])
			}
		}(w)
	}
	wg.Wait()
	if tr.Len() != 1 {
		t.Fatalf("len = %d", tr.Len())
	}
	got, ok := tr.Lookup(k)
	if !ok {
		t.Fatal("key vanished")
	}
	found := got == base
	for _, tid := range tids {
		if got == tid {
			found = true
		}
	}
	if !found {
		t.Fatalf("lookup returned unknown tid %d", got)
	}
}

func TestConcurrentSmallTreeChurn(t *testing.T) {
	// Hammer the empty/leaf/2-entry root transitions, the trickiest
	// lock-domain handoffs (rootMu vs node locks).
	s := &tidstore.Store{}
	tr := NewConcurrent(s.Key)
	keys := [][]byte{[]byte("a"), []byte("b"), []byte("c")}
	var tids []TID
	for _, k := range keys {
		tids = append(tids, s.Add(k))
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 3000; i++ {
				k := keys[(w+i)%3]
				tr.Insert(k, tids[(w+i)%3])
				tr.Lookup(k)
				tr.Delete(k)
			}
		}(w)
	}
	wg.Wait()
	// The tree must be in a consistent (possibly nonempty) state.
	if tr.Len() < 0 || tr.Len() > 3 {
		t.Fatalf("len = %d", tr.Len())
	}
	for i, k := range keys {
		if tid, ok := tr.Lookup(k); ok && tid != tids[i] {
			t.Fatalf("key %s has foreign tid", k)
		}
	}
}

// TestLockStripes checks the stripe set lock takes: every node's stripe,
// each once, in ascending order — a path that repeats a node, and one
// whose distinct nodes share a stripe, collapse to one entry per stripe.
func TestLockStripes(t *testing.T) {
	a := specNode([]uint16{1})
	if got := stripes([]pathEntry{{nd: a}, {nd: a}, {nd: a}}, nil); len(got) != 1 || got[0] != stripeOf(a) {
		t.Fatalf("one node thrice: stripes %v, want [%d]", got, stripeOf(a))
	}
	// More nodes than stripes: two of them must share one.
	byStripe := map[uint16]*node{}
	var b *node
	for range 1<<lockStripeBits + 1 {
		nd := specNode([]uint16{1})
		if prev := byStripe[stripeOf(nd)]; prev != nil {
			a, b = prev, nd
			break
		}
		byStripe[stripeOf(nd)] = nd
	}
	if b == nil {
		t.Fatal("no two nodes share a stripe")
	}
	rng := rand.New(rand.NewSource(1))
	path := []pathEntry{{nd: b}, {nd: a}}
	for range 12 {
		path = append(path, pathEntry{nd: specNode([]uint16{1})})
	}
	rng.Shuffle(len(path), func(i, j int) { path[i], path[j] = path[j], path[i] })
	want := map[uint16]bool{}
	for _, e := range path {
		want[stripeOf(e.nd)] = true
	}
	got := stripes(path, nil)
	if len(got) != len(want) {
		t.Fatalf("stripes %v: %d of them, want %d distinct", got, len(got), len(want))
	}
	for i, s := range got {
		if !want[s] || (i > 0 && got[i-1] >= s) {
			t.Fatalf("stripes %v: not the path's stripes in strictly ascending order", got)
		}
	}
}

// TestLockRefusesStaleCascade hands lock a stale window: the path an
// insert descended, after that insert's cascaded pull-up replaced the
// window's nodes and copied the node above it too. The old node above
// still links to the window's top node, so only the obsolete word tells
// the window is stale; lock must refuse it.
func TestLockRefusesStaleCascade(t *testing.T) {
	s, keys := concurrentKeys(100000, 7)
	tr := NewConcurrent(s.Key)
	for i, k := range keys {
		var stale []pathEntry
		var cand TID
		var plan insertPlan
		if rb := tr.root.Load(); rb.n != nil {
			stale, cand = descend(rb.n, k, nil)
			mb, _ := key.MismatchBit(s.Key(cand, nil), k)
			plan = planInsert(stale, cand, mb, key.Bit(k, mb), tr.k)
		}
		pullups := tr.ops.pullup.Load()
		tr.Insert(k, TID(i))
		// Two pull-ups: the candidate's node split into its parent, which
		// split into the grandparent, which took the half and was copied.
		if tr.ops.pullup.Load()-pullups != 2 || plan.ai < 2 {
			continue
		}
		lo := plan.ai - 1
		above, top := stale[lo-1], stale[lo]
		if !above.nd.isObsolete() || above.nd.child(above.idx) != top.nd {
			t.Fatalf("insert %d: the node above the window is not a copied-away grandparent that still links to the window", i)
		}
		if tr.lock(stale, lo, false, cand) {
			tr.unlock(stale, lo, false)
			t.Fatalf("insert %d: lock took a window of levels %d..%d that a cascaded pull-up replaced", i, lo, len(stale)-1)
		}
		// The refusal released every stripe: a fresh path locks.
		fresh, c := descend(tr.root.Load().n, k, nil)
		if !tr.lock(fresh, 0, true, c) {
			t.Fatal("lock refused a fresh path")
		}
		tr.unlock(fresh, 0, true)
		return
	}
	t.Fatal("no insert cascaded two pull-ups")
}

// TestLockTableBytes checks that a trie only its exclusive Writer writes
// never allocates a lock table, and that a ROWEX write's table is counted
// in GoBytes once allocated.
func TestLockTableBytes(t *testing.T) {
	s, keys := concurrentKeys(2000, 3)
	tr := NewConcurrent(s.Key)
	w := tr.Writer()
	for i, k := range keys[:1000] {
		w.Insert(k, TID(i))
	}
	w.Delete(keys[0])
	w.Upsert(keys[1], 1)
	if tr.HasLockTable() {
		t.Fatal("Writer allocated a lock table")
	}
	nodes := tr.tree.Memory().GoBytes
	if got := tr.Memory().GoBytes; got != nodes {
		t.Fatalf("GoBytes %d without a lock table, want the nodes' %d", got, nodes)
	}
	tr.Insert(keys[1000], 1000)
	if !tr.HasLockTable() {
		t.Fatal("a ROWEX insert left no lock table")
	}
	nodes = tr.tree.Memory().GoBytes
	if got, want := tr.Memory().GoBytes, nodes+int(unsafe.Sizeof(lockTable{})); got != want {
		t.Fatalf("GoBytes %d with a lock table, want %d", got, want)
	}
}
