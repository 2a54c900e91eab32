package core

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hotindex/hot/internal/chaos"
)

// armChaos arms reg for the duration of the test. Chaos tests must not run
// in parallel with each other (the registry is process-wide); Go runs tests
// within a package sequentially unless t.Parallel is called, which these
// tests never do.
func armChaos(t *testing.T, reg *chaos.Registry) {
	t.Helper()
	reg.Arm()
	t.Cleanup(chaos.Disarm)
}

// TestChaosRestartStorm widens every writer-protocol window with injected
// yields while eight writers hammer the same key set with overlapping
// upserts and deletes, forcing step-(c) validation failures and restarts,
// and flip a set of keys nobody deletes between two TIDs each, so in-place
// upserts of present keys run under every lock window too. The trie must
// come out structurally intact with every key resolving.
func TestChaosRestartStorm(t *testing.T) {
	reg := chaos.New(1)
	reg.On(chaos.RowexAfterTraverse, 0.5, chaos.Yield(4))
	reg.On(chaos.RowexBetweenLocks, 0.25, chaos.Yield(2))
	reg.On(chaos.RowexBeforeValidate, 0.25, chaos.Yield(2))
	reg.On(chaos.RowexMidCopy, 0.1, chaos.Yield(1))
	reg.On(chaos.RowexBeforeUnlock, 0.1, chaos.Yield(1))
	armChaos(t, reg)

	const n, stable = 1500, 300
	s, keys := concurrentKeys(n+stable, 11)
	// keys[n:] stay present throughout; alt holds a second TID for each.
	alt := make([]TID, stable)
	tr := NewConcurrent(s.Key)
	for j := range alt {
		alt[j] = s.Add(keys[n+j])
		tr.Insert(keys[n+j], TID(n+j))
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i := 0; i < n; i++ {
					tr.Upsert(keys[i], TID(i))
				}
				// Overlapping deletes across workers maximize contention on
				// the same nodes.
				for i := w % 2; i < n; i += 2 {
					tr.Delete(keys[i])
				}
				for j := range alt {
					tid := alt[j]
					if (w+round+j)%2 == 0 {
						tid = TID(n + j)
					}
					if _, ok := tr.Upsert(keys[n+j], tid); !ok {
						t.Errorf("stable key %d was absent", j)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		tr.Upsert(keys[i], TID(i))
	}

	st := tr.OpStats()
	if st.Restarts == 0 || st.ValidationFails == 0 {
		t.Errorf("storm forced no restarts: %s", st)
	}
	if err := tr.Verify(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != n+stable {
		t.Fatalf("len = %d, want %d", tr.Len(), n+stable)
	}
	for i, k := range keys {
		if tid, ok := tr.Lookup(k); !ok || tid != TID(i) && (i < n || tid != alt[i-n]) {
			t.Fatalf("lookup %d = (%d, %v)", i, tid, ok)
		}
	}
	t.Logf("stats: %s; injected faults survived: %d", st, reg.FiredTotal())
}

// TestChaosROWEXUpsertNotLost races in-place upserts against structural
// changes of the same nodes. Goroutine A upserts its keys round after round
// with increasing TIDs, while goroutine B inserts and deletes the key next
// to each of them — so the nodes holding A's leaves are copied, split,
// pushed down and eliminated under A — with the lock window widened at
// rowex/between-locks and before-validate. An upsert that stored into a
// node a copy had already replaced would be lost: A's next upsert of that
// key would return an older TID, and the final lookup would too. Once B is
// done, each in-place upsert must hit between-locks exactly once: it locks
// the leaf's node alone.
func TestChaosROWEXUpsertNotLost(t *testing.T) {
	reg := chaos.New(4)
	reg.On(chaos.RowexBetweenLocks, 0.5, chaos.Yield(2))
	reg.On(chaos.RowexBeforeValidate, 0.5, chaos.Yield(2))
	armChaos(t, reg)

	// Key v is 8 big-endian bytes; a TID's low 16 bits are a version, so
	// every round's TID resolves to the same key.
	const n, rounds, version = 600, 12, 16
	loader := func(tid TID, buf []byte) []byte { return binary.BigEndian.AppendUint64(buf, tid>>version) }
	key := func(v uint64) []byte { return binary.BigEndian.AppendUint64(nil, v) }
	tid := func(v uint64, round int) TID { return v<<version | TID(round) }
	tr := NewConcurrent(loader)
	for i := uint64(0); i < n; i++ {
		tr.Insert(key(4*i), tid(4*i, 0)) // A's keys
	}

	var aDone atomic.Bool
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // A
		defer wg.Done()
		defer aDone.Store(true)
		for r := 1; r <= rounds; r++ {
			for i := uint64(0); i < n; i++ {
				if old, ok := tr.Upsert(key(4*i), tid(4*i, r)); !ok || old != tid(4*i, r-1) {
					t.Errorf("round %d: Upsert(%d) replaced (%#x, %v), want (%#x, true): an upsert was lost",
						r, 4*i, old, ok, tid(4*i, r-1))
					return
				}
			}
		}
	}()
	go func() { // B
		defer wg.Done()
		for !aDone.Load() {
			for i := uint64(0); i < n && !aDone.Load(); i++ {
				v := 4*i + 1 + i%3 // A's neighbour: 4i+1 pushes A's leaf down
				if !tr.Insert(key(v), tid(v, 0)) || !tr.Delete(key(v)) {
					t.Errorf("B's insert/delete of its own key %d failed", v)
					return
				}
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	if st := tr.OpStats(); st.ValidationFails == 0 {
		t.Errorf("A and B never raced: %s", st)
	}

	before := tr.OpStats().Restarts
	for i := uint64(0); i < n; i++ {
		h := reg.Hits(chaos.RowexBetweenLocks)
		tr.Upsert(key(4*i), tid(4*i, rounds+1))
		if got := reg.Hits(chaos.RowexBetweenLocks) - h; got != 1 {
			t.Fatalf("an in-place upsert locked %d nodes, want 1", got)
		}
	}
	if after := tr.OpStats().Restarts; after != before {
		t.Fatalf("an uncontended upsert restarted %d times", after-before)
	}
	if err := tr.Verify(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != n {
		t.Fatalf("len = %d, want %d", tr.Len(), n)
	}
	for i := uint64(0); i < n; i++ {
		if got, ok := tr.Lookup(key(4 * i)); !ok || got != tid(4*i, rounds+1) {
			t.Fatalf("key %d holds (%#x, %v), want %#x", 4*i, got, ok, tid(4*i, rounds+1))
		}
	}
	t.Logf("stats: %s; injected faults survived: %d", tr.OpStats(), reg.FiredTotal())
}

// TestChaosSlotExhaustion leases every reader key-buffer slot, as that many
// reads in flight at once would, while four writers insert under injected
// contention and four readers look the keys up and scan them. No operation
// may wait for a slot: the readers read with a nil buffer and must still
// see every key its writer has inserted under its own TID. Once the slots
// are back, the trie must verify and hold every key.
func TestChaosSlotExhaustion(t *testing.T) {
	reg := chaos.New(2)
	reg.On(chaos.RowexAfterTraverse, 0.2, chaos.Yield(1))
	reg.On(chaos.RowexBetweenLocks, 0.2, chaos.Yield(1))
	armChaos(t, reg)

	const n = 2048
	s, keys := concurrentKeys(n, 12)
	tr := NewConcurrent(s.Key)

	var held []*keyBuf
	for b := tr.leaseKeyBuf(); b != nil; b = tr.leaseKeyBuf() {
		held = append(held, b)
	}
	if len(held) != keyBufSlots {
		t.Fatalf("leased %d slots, want %d", len(held), keyBufSlots)
	}
	var writers, readers sync.WaitGroup
	var written atomic.Bool
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := w; i < n; i += 4 {
				tr.Insert(keys[i], TID(i))
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for !written.Load() {
				for i := r; i < n; i += 4 {
					if tid, ok := tr.Lookup(keys[i]); ok && tid != TID(i) {
						t.Errorf("Lookup key %d = %d", i, tid)
						return
					}
				}
				tr.Scan(nil, 64, func(tid TID) bool {
					if tid >= n {
						t.Errorf("Scan returned TID %d, never inserted", tid)
						return false
					}
					return true
				})
			}
		}(r)
	}
	done := make(chan struct{})
	go func() {
		writers.Wait()
		written.Store(true)
		readers.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("an operation waited for a key buffer")
	}
	for _, b := range held {
		b.release()
	}
	if err := tr.Verify(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != n {
		t.Fatalf("len = %d, want %d", tr.Len(), n)
	}
	for i, k := range keys {
		if tid, ok := tr.Lookup(k); !ok || tid != TID(i) {
			t.Fatalf("Lookup key %d = (%d, %v)", i, tid, ok)
		}
	}
	t.Logf("stats: %s; injected faults survived: %d", tr.OpStats(), reg.FiredTotal())
}
