package core

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hotindex/hot/internal/tidstore"
)

// walkEntries collects a walk's (key, TID) stream.
func walkEntries(walk func(func(key []byte, tid TID) bool) int) (keys [][]byte, tids []TID) {
	walk(func(k []byte, tid TID) bool {
		keys = append(keys, append([]byte(nil), k...))
		tids = append(tids, tid)
		return true
	})
	return keys, tids
}

// TestWriter checks that a ConcurrentTrie's exclusive Writer and the
// single-threaded Trie — the same write body, one retiring to the epoch
// manager and one recycling into its pool — answer one op sequence
// identically and end in the same trie, while a reader goroutine looks
// keys up in the concurrent trie throughout (run it under -race). The
// sequence starts and ends empty, so it crosses the empty and single-leaf
// root shapes as well as every insertion and deletion case.
func TestWriter(t *testing.T) {
	const n = 20000
	s, keys := concurrentKeys(n, 21)
	// A second TID per key, so an upsert can change what a key resolves to.
	alt := make([]TID, n)
	for i, k := range keys {
		alt[i] = s.Add(k)
	}
	st := New(s.Key)
	ct := NewConcurrent(s.Key)
	w := ct.Writer()

	stop := make(chan struct{})
	var readerErr atomic.Value
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		for {
			select {
			case <-stop:
				return
			default:
			}
			i := rng.Intn(n)
			if tid, ok := ct.Lookup(keys[i]); ok && tid != TID(i) && tid != alt[i] {
				readerErr.Store(tid)
				return
			}
		}
	}()

	rng := rand.New(rand.NewSource(2))
	op := func(i int) {
		tid := TID(i)
		if rng.Intn(2) == 0 {
			tid = alt[i]
		}
		switch c := rng.Intn(3); c {
		case 0:
			if a, b := st.Insert(keys[i], tid), w.Insert(keys[i], tid); a != b {
				t.Fatalf("Insert(%d): Trie %v, Writer %v", i, a, b)
			}
		case 1:
			ao, ar := st.Upsert(keys[i], tid)
			bo, br := w.Upsert(keys[i], tid)
			if ao != bo || ar != br {
				t.Fatalf("Upsert(%d): Trie (%d, %v), Writer (%d, %v)", i, ao, ar, bo, br)
			}
		default:
			if a, b := st.Delete(keys[i]), w.Delete(keys[i]); a != b {
				t.Fatalf("Delete(%d): Trie %v, Writer %v", i, a, b)
			}
		}
		if st.Len() != ct.Len() || st.Height() != ct.Height() {
			t.Fatalf("after op on %d: Len %d/%d, Height %d/%d", i, st.Len(), ct.Len(), st.Height(), ct.Height())
		}
	}
	for i := 0; i < 2000; i++ {
		op(rng.Intn(3)) // the root shapes: at most three keys
	}
	for i := 0; i < 100000; i++ {
		op(rng.Intn(n))
	}

	if err := st.Verify(); err != nil {
		t.Fatalf("Trie: %v", err)
	}
	if err := ct.Verify(); err != nil {
		t.Fatalf("Writer: %v", err)
	}
	sk, stids := walkEntries(st.Walk)
	ck, ctids := walkEntries(ct.SnapshotWalk)
	if len(sk) != len(ck) {
		t.Fatalf("walks differ in length: Trie %d, Writer %d", len(sk), len(ck))
	}
	for i := range sk {
		if !bytes.Equal(sk[i], ck[i]) || stids[i] != ctids[i] {
			t.Fatalf("walk entry %d: Trie (%x, %d), Writer (%x, %d)", i, sk[i], stids[i], ck[i], ctids[i])
		}
	}
	for i := range keys {
		if a, b := st.Delete(keys[i]), w.Delete(keys[i]); a != b {
			t.Fatalf("final Delete(%d): Trie %v, Writer %v", i, a, b)
		}
	}
	close(stop)
	wg.Wait()
	if tid := readerErr.Load(); tid != nil {
		t.Fatalf("reader saw a foreign TID %d", tid)
	}
	if st.Len() != 0 || ct.Len() != 0 || ct.Height() != 0 {
		t.Fatalf("not empty after deleting every key: Len %d/%d", st.Len(), ct.Len())
	}
	if o := ct.OpStats(); o.Restarts != 0 || o.ValidationFails != 0 {
		t.Fatalf("the exclusive writer restarted: %s", o)
	}
	if freed, pending := ct.ReclaimStats(); freed+uint64(pending) == 0 {
		t.Fatal("the exclusive writer retired no nodes")
	}
}

// TestROWEXInterleavedInsertsProgress turns a ROWEX livelock into a
// failure instead of a hang: two writers interleave 500 k integer inserts
// into one trie, contending for the same nodes throughout, and a watchdog
// fails the test with the writer-path counters if no insert completes for
// 10 s. A latch that unlocks before the replaced nodes read as obsolete
// lets a racing writer validate a node that is already unreachable and
// then mark a reachable one obsolete: every later write through it fails
// validation and restarts forever, and a run that still finishes fails
// Verify (obsolete-node reachability) or loses keys.
func TestROWEXInterleavedInsertsProgress(t *testing.T) {
	const n, writers = 500000, 2
	// Consecutive integers, each writer taking the next one from a shared
	// counter: both insert at the trie's right edge, into the same leaf node
	// almost every time.
	s := &tidstore.Store{}
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = binary.BigEndian.AppendUint64(nil, uint64(i))
		s.Add(keys[i])
	}
	tr := NewConcurrent(s.Key)
	var next, done atomic.Int64
	finished := make(chan struct{})
	var wg sync.WaitGroup
	for range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				if !tr.Insert(keys[i], TID(i)) {
					t.Errorf("insert %d rejected", i)
					return
				}
				done.Add(1)
			}
		}()
	}
	go func() {
		wg.Wait()
		close(finished)
	}()
	const stall = 10 * time.Second
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	last, lastMove := done.Load(), time.Now()
	for {
		select {
		case <-finished:
			if t.Failed() {
				return
			}
			if err := tr.Verify(); err != nil {
				t.Fatal(err)
			}
			for i, k := range keys {
				if tid, ok := tr.Lookup(k); !ok || tid != TID(i) {
					t.Fatalf("key %d lost: Lookup = (%d, %v); %s", i, tid, ok, tr.OpStats())
				}
			}
			return
		case now := <-tick.C:
			if cur := done.Load(); cur != last {
				last, lastMove = cur, now
			} else if now.Sub(lastMove) >= stall {
				t.Fatalf("no insert completed for %v after %d of %d: %s", stall, cur, n, tr.OpStats())
			}
		}
	}
}
