package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
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
// single-threaded Trie — the same write body, one marking replaced nodes
// obsolete and one recycling them into its pool — answer one op sequence
// identically and end in the same trie, while a reader goroutine looks
// keys up in the concurrent trie throughout (run it under -race). The
// sequence starts and ends empty, so it crosses the empty and single-leaf
// root shapes as well as every insertion and deletion case. Midway, one
// insert and one delete must replace nodes copy-on-write.
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
	// do runs op c on key i on both tries: 0 insert, 1 upsert, 2 delete.
	do := func(c, i int, tid TID) {
		switch c {
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
	op := func(i int) {
		tid := TID(i)
		if rng.Intn(2) == 0 {
			tid = alt[i]
		}
		do(rng.Intn(3), i, tid)
	}
	for i := 0; i < 2000; i++ {
		op(rng.Intn(3)) // the root shapes: at most three keys
	}
	for i := 0; i < 100000; i++ {
		op(rng.Intn(n))
	}

	for i := range keys {
		if _, ok := ct.Lookup(keys[i]); !ok {
			checkCopyOnWrite(t, &ct.tree, keys[i], func() { do(0, i, TID(i)) })
			checkCopyOnWrite(t, &ct.tree, keys[i], func() { do(2, i, TID(i)) })
			break
		}
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
}

// checkCopyOnWrite runs write, which must change what k's descent in tr
// reaches, and checks that it replaced at least one node on k's path by a
// copy: the replaced node is marked obsolete, off k's path and unchanged
// along it, so a reader that still holds it reads what it read before.
// No reader pins such a node; the garbage collector keeps it.
func checkCopyOnWrite(t *testing.T, tr *tree, k []byte, write func()) {
	t.Helper()
	path, _ := descend(tr.root.Load().n, k, nil)
	type link struct {
		c   *node
		tid TID
	}
	was := make([]link, len(path))
	for l, e := range path {
		was[l].c, was[l].tid = e.nd.entry(e.idx)
	}
	write()
	now := map[*node]bool{}
	if rb := tr.root.Load(); rb.n != nil {
		p, _ := descend(rb.n, k, nil)
		for _, e := range p {
			now[e.nd] = true
		}
	}
	replaced := 0
	for l, e := range path {
		if !e.nd.isObsolete() {
			continue
		}
		replaced++
		if now[e.nd] {
			t.Fatalf("depth %d: an obsolete node is still on the key's path", l)
		}
		if c, tid := e.nd.entry(e.idx); c != was[l].c || tid != was[l].tid {
			t.Fatalf("depth %d: the replaced node changed under its readers", l)
		}
	}
	if replaced == 0 {
		t.Fatal("the write replaced no node on the key's path")
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

// TestUpsertInPlace checks, for each of the three writers, that an upsert
// of a present key stores its TID in place: it allocates nothing, replaces
// no node (every node on every key's path stays), and leaves Len, Height and
// the in-order key walk unchanged, while Lookup, LookupBatch and Iter
// return the new TID. On the concurrent trie a reader goroutine runs
// Lookup, LookupBatch and Scan while the writer flips every key between
// two TIDs of that key (run it under -race): it must always see one of the
// two, never a miss.
func TestUpsertInPlace(t *testing.T) {
	const n = 5000
	s, keys := concurrentKeys(n, 31)
	alt := make([]TID, n) // a second TID per key, resolving to the same key
	for i, k := range keys {
		alt[i] = s.Add(k)
	}
	st := New(s.Key)
	ct, rt := NewConcurrent(s.Key), NewConcurrent(s.Key)
	w := ct.Writer()
	for _, c := range []struct {
		name   string
		tr     *tree
		insert func([]byte, TID) bool
		upsert func([]byte, TID) (TID, bool)
		read   interface {
			Lookup([]byte) (TID, bool)
			LookupBatch([][]byte, []TID) []bool
			Iter([]byte) Iterator
			Verify() error
		}
		walk func(func([]byte, TID) bool) int
		ct   *ConcurrentTrie // nil for Trie: no concurrent reader
	}{
		{"Trie", &st.tree, st.Insert, st.Upsert, st, st.Walk, nil},
		{"Writer", &ct.tree, w.Insert, w.Upsert, ct, ct.SnapshotWalk, ct},
		{"ROWEX", &rt.tree, rt.Insert, rt.Upsert, rt, rt.SnapshotWalk, rt},
	} {
		t.Run(c.name, func(t *testing.T) {
			cur := make([]TID, n) // the TID each key holds
			for i, k := range keys {
				cur[i] = TID(i)
				c.insert(k, cur[i])
			}
			flip := func(i int) {
				next := TID(i)
				if cur[i] == next {
					next = alt[i]
				}
				if old, ok := c.upsert(keys[i], next); !ok || old != cur[i] {
					t.Fatalf("Upsert(%d) = (%d, %v), want (%d, true)", i, old, ok, cur[i])
				}
				cur[i] = next
			}
			wantLen, wantHeight := c.tr.Len(), c.tr.Height()
			wantKeys, _ := walkEntries(c.walk)
			paths := make([][]pathEntry, n)
			for i, k := range keys {
				paths[i], _ = descend(c.tr.root.Load().n, k, nil)
			}
			next := 0
			allocs := testing.AllocsPerRun(500, func() {
				flip(next % n)
				next++
			})
			// Under -race, sync.Pool drops a share of ROWEX's scratch Puts.
			if allocs != 0 && !(raceEnabled && c.name == "ROWEX") {
				t.Errorf("an upsert of a present key allocates %v per call, want 0", allocs)
			}

			stop := make(chan struct{})
			readErr := make(chan error, 1)
			if c.ct != nil {
				go func() { readErr <- readFlips(c.ct, s, keys, alt, stop) }()
			} else {
				readErr <- nil
			}
			for round := 0; round < 4; round++ {
				for i := range keys {
					flip(i)
				}
			}
			close(stop)
			if err := <-readErr; err != nil {
				t.Fatal(err)
			}

			if c.tr.Len() != wantLen || c.tr.Height() != wantHeight {
				t.Fatalf("Len %d, Height %d after upserts; want %d, %d", c.tr.Len(), c.tr.Height(), wantLen, wantHeight)
			}
			gotKeys, gotTIDs := walkEntries(c.walk)
			if len(gotKeys) != len(wantKeys) {
				t.Fatalf("walk has %d entries after upserts, want %d", len(gotKeys), len(wantKeys))
			}
			for j := range gotKeys {
				i := int(gotTIDs[j]) % n
				if !bytes.Equal(gotKeys[j], wantKeys[j]) || gotTIDs[j] != cur[i] {
					t.Fatalf("walk entry %d: (%x, %d), want key %x holding %d", j, gotKeys[j], gotTIDs[j], wantKeys[j], cur[i])
				}
			}
			out := make([]TID, n)
			found := c.read.LookupBatch(keys, out)
			for i, k := range keys {
				path, _ := descend(c.tr.root.Load().n, k, nil)
				for l := range path {
					if l >= len(paths[i]) || path[l].nd != paths[i][l].nd {
						t.Fatalf("key %d: node at depth %d replaced by an upsert", i, l)
					}
				}
				if tid, ok := c.read.Lookup(k); !ok || tid != cur[i] {
					t.Fatalf("Lookup(%d) = (%d, %v), want (%d, true)", i, tid, ok, cur[i])
				}
				if !found[i] || out[i] != cur[i] {
					t.Fatalf("LookupBatch[%d] = (%d, %v), want (%d, true)", i, out[i], found[i], cur[i])
				}
				if it := c.read.Iter(k); !it.Valid() || it.TID() != cur[i] {
					t.Fatalf("Iter(%d) = (%d, %v), want (%d, true)", i, it.TID(), it.Valid(), cur[i])
				}
			}
			if err := c.read.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// readFlips is TestUpsertInPlace's reader. Every key is present throughout
// and holds either TID(i) or alt[i]; until stop closes it checks that
// Lookup, LookupBatch and an 8-entry Scan from a key resolve each key they
// reach to one of its two TIDs and skip none.
func readFlips(tr *ConcurrentTrie, s *tidstore.Store, keys [][]byte, alt []TID, stop <-chan struct{}) error {
	n := len(keys)
	holds := func(i int, tid TID) bool { return tid == TID(i) || tid == alt[i] }
	order := make([]int, n) // key indices in ascending key order
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return bytes.Compare(keys[order[a]], keys[order[b]]) < 0 })
	out := make([]TID, batchLanes)
	rng := rand.New(rand.NewSource(3))
	for {
		select {
		case <-stop:
			return nil
		default:
		}
		i := rng.Intn(n)
		if tid, ok := tr.Lookup(keys[i]); !ok || !holds(i, tid) {
			return fmt.Errorf("Lookup(%d) = (%d, %v) during upserts", i, tid, ok)
		}
		b := rng.Intn(n - batchLanes)
		found := tr.LookupBatch(keys[b:b+batchLanes], out)
		for j, tid := range out {
			if !found[j] || !holds(b+j, tid) {
				return fmt.Errorf("LookupBatch[%d] = (%d, %v) during upserts", b+j, tid, found[j])
			}
		}
		p := rng.Intn(n - 8)
		var err error
		seen := 0
		tr.Scan(keys[order[p]], 8, func(tid TID) bool {
			if want := order[p+seen]; !holds(want, tid) {
				err = fmt.Errorf("Scan entry %d from key %d: TID %d (key %x), want key %d", seen, order[p], tid, s.Key(tid, nil), want)
				return false
			}
			seen++
			return true
		})
		if err != nil {
			return err
		}
		if seen != 8 {
			return fmt.Errorf("Scan from key %d visited %d entries, want 8", order[p], seen)
		}
	}
}
