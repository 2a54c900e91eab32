package server

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	hot "github.com/hotindex/hot"
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

// runKeyMapOps drives a KeyMap with the op sequence ops, picking operands
// from a rand.Rand seeded with seed, against a map[uint64][]byte model. An
// op byte's low two bits choose Bind, a run of 32 fresh Binds (which walks
// the slot array through its doublings and fills arena chunks), Key, or a
// Keys batch; its other bits pick the TID and the key. TIDs come from 0,
// MaxTID, just above MaxTID, a dense range that gets rebound, and fresh
// values; keys are empty, MaxKeyLen or one longer, or up to 64 random bytes,
// written into one reused buffer so a binding that kept the caller's bytes
// would show. Every call is checked against the model: a rebind to another
// key and an out-of-range TID or key are refused, an unbound TID loads nil,
// a bound empty key loads non-nil, and at the end every slice Bind ever
// returned still holds its key.
func runKeyMapOps(t *testing.T, seed int64, ops []byte) *KeyMap {
	r := rand.New(rand.NewSource(seed))
	var km KeyMap
	model := map[uint64][]byte{}
	type bound struct {
		tid    uint64
		stable []byte
	}
	var stables []bound
	fresh := uint64(1 << 20)
	buf := make([]byte, hot.MaxKeyLen+1)
	tidOf := func(b byte) uint64 {
		switch b % 8 {
		case 0:
			return 0
		case 1:
			return hot.MaxTID
		case 2:
			return hot.MaxTID + 1 + uint64(r.Intn(2))*hot.MaxTID // MaxTID+1 or 1<<64-1
		case 3, 4:
			return uint64(r.Intn(64))
		default:
			fresh++
			return fresh
		}
	}
	keyOf := func(b byte) []byte {
		var n int
		switch b % 6 {
		case 0:
			n = 0
		case 1:
			n = hot.MaxKeyLen
		case 2:
			n = hot.MaxKeyLen + 1
		default:
			n = 1 + r.Intn(64)
		}
		r.Read(buf[:n])
		buf[0] = byte(r.Intn(4)) // dense TIDs see their own key again
		return buf[:n:n]
	}
	bind := func(key []byte, tid uint64) {
		got, err := km.Bind(key, tid)
		want, ok := model[tid]
		switch {
		case tid > hot.MaxTID || len(key) > hot.MaxKeyLen:
			if err == nil {
				t.Fatalf("Bind(%d-byte key, %d) accepted", len(key), tid)
			}
		case ok && !bytes.Equal(want, key):
			if err == nil {
				t.Fatalf("rebinding TID %d from %q to %q accepted", tid, want, key)
			}
		default:
			if err != nil || !bytes.Equal(got, key) || got == nil {
				t.Fatalf("Bind(%q, %d) = (%q, %v)", key, tid, got, err)
			}
			if !ok {
				model[tid] = bytes.Clone(key)
			}
			stables = append(stables, bound{tid, got})
		}
	}
	check := func(tid uint64, got []byte) {
		want, ok := model[tid]
		if ok != (got != nil) || !bytes.Equal(got, want) {
			t.Fatalf("TID %d loads %q (nil %v), want %q (bound %v)", tid, got, got == nil, want, ok)
		}
	}
	urlPrefix := []byte("http://www.example.org/articles/")
	var tids []uint64
	var out [][]byte
	for _, op := range ops {
		switch op % 4 {
		case 0:
			if op>>7 == 1 && len(stables) > 0 {
				b := stables[r.Intn(len(stables))]
				bind(bytes.Clone(b.stable), b.tid) // the same key again
			} else {
				tid, key := tidOf(op>>5), keyOf(op>>2)
				if tid < 64 && len(key) > 64 {
					key = key[:64] // keeps the refused rebinds' messages short
				}
				bind(key, tid)
			}
		case 1:
			for i := 0; i < 32; i++ {
				fresh++
				bind(strconv.AppendUint(urlPrefix, fresh, 16), fresh)
			}
		case 2:
			tid := tidOf(op >> 2)
			check(tid, km.Key(tid, nil))
		case 3:
			tids = tids[:0]
			for i := 0; i < int(op>>2)%51; i++ {
				tid := tidOf(byte(r.Intn(256)))
				if i%2 == 0 && len(stables) > 0 {
					tid = stables[r.Intn(len(stables))].tid
				}
				tids = append(tids, tid)
			}
			out = append(out[:0], make([][]byte, len(tids))...)
			km.Keys(tids, out)
			for i, tid := range tids {
				check(tid, out[i])
			}
		}
	}
	for _, b := range stables {
		if !bytes.Equal(b.stable, model[b.tid]) {
			t.Fatalf("TID %d: the slice Bind returned now holds %q, want %q", b.tid, b.stable, model[b.tid])
		}
		check(b.tid, km.Key(b.tid, nil))
	}
	if km.Len() != len(model) {
		t.Fatalf("Len() = %d, model holds %d", km.Len(), len(model))
	}
	return &km
}

// TestKeyMapModel runs one long seeded sequence through runKeyMapOps and
// checks that it reached what the model check is for: several slot-array
// doublings and several arena chunks.
func TestKeyMapModel(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	ops := make([]byte, 3000)
	for i := range ops {
		ops[i] = byte(r.Intn(256))
		if i%20 == 0 {
			ops[i] = 1 // a run of fresh binds
		}
	}
	km := runKeyMapOps(t, 4, ops)
	if len(km.chunks) < 4 || len(km.slots)/2 < 16*minSlots {
		t.Fatalf("the run reached %d chunks and %d slots; want ≥ 4 and ≥ %d", len(km.chunks), len(km.slots)/2, 16*minSlots)
	}
	if km.Bytes() < len(km.chunks)*chunkSize {
		t.Fatalf("Bytes() = %d, below its %d chunks", km.Bytes(), len(km.chunks))
	}
}

// FuzzKeyMap is runKeyMapOps over arbitrary seeds and op sequences.
func FuzzKeyMap(f *testing.F) {
	f.Add(int64(1), []byte{0, 2, 3, 4, 8, 12, 16, 0x20, 0x40, 0x80, 0xfc, 0xff})
	f.Add(int64(2), bytes.Repeat([]byte{1, 0, 4, 2, 3, 0x27, 0xcb}, 40))
	f.Add(int64(3), bytes.Repeat([]byte{0x04, 0x24, 0x44, 0x64, 0x84, 0xa4, 0xc4, 0xe4, 0x1f}, 30))
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 128 {
			return
		}
		runKeyMapOps(t, seed, ops)
	})
}
