package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

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
// reader's epoch pin-slot buffer that successive readers share.
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
	freed, pending := tr.ReclaimStats()
	if freed+uint64(pending) == 0 {
		t.Error("no nodes were retired despite copy-on-write churn")
	}
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
