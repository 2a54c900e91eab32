package shard

import "sync/atomic"

// This file is the write-submission substrate of the sharded async path: a
// fixed-capacity multi-producer single-consumer ring into which any worker
// can deposit an insert/upsert/delete op for a shard whose writer is busy.
// Whichever goroutine holds the shard's writer token is the single consumer
// and drains the ring in batches before releasing the token (the combining
// discipline lives in the hot package; the ring only promises MPSC safety).
//
// The design is the classic bounded sequence-number ring (Vyukov): every
// slot carries a sequence counter that encodes whose turn the slot is on.
// Producers claim a slot by CASing the tail cursor and publish the op by
// storing seq = tail+1; the consumer accepts a slot only once that store is
// visible and frees it for the next lap by storing seq = head+capacity.
// Both sides are lock-free; a full ring fails the push instead of blocking,
// which is what lets the submitting worker go steal work elsewhere.

// OpKind discriminates the write operations a submission queue carries.
// The values are the write-ahead log's record codes (persist.WalInsert..
// WalDelete; the hot package pins the equality at compile time), so an op
// is logged and replayed by conversion, and the zero Op is "no operation".
type OpKind uint8

const (
	// OpInsert is an Insert: a no-op (counted as rejected) when the key
	// already exists.
	OpInsert OpKind = iota + 1
	// OpUpsert is an Upsert: inserts or overwrites, never rejected.
	OpUpsert
	// OpDelete is a Delete: a no-op (counted as rejected) when the key is
	// absent.
	OpDelete
)

// Op is one queued write submission. The Key slice is not copied: it must
// remain valid and immutable until the op has been applied (Flush on the
// sharded index is the completion barrier).
type Op struct {
	Key  []byte
	TID  uint64
	Kind OpKind
}

type qslot struct {
	seq atomic.Uint64
	op  Op
}

// Queue is a bounded multi-producer single-consumer ring of write
// submissions. Any number of goroutines may TryPush concurrently; TryPop
// must only be called by the single goroutine currently holding the owning
// shard's writer token. Len and Cap are safe from anywhere.
type Queue struct {
	cap   uint64 // logical capacity: TryPush fails at this depth
	mask  uint64
	slots []qslot
	head  atomic.Uint64 // consumer cursor: next slot to drain
	tail  atomic.Uint64 // producer cursor: next slot to claim
}

// NewQueue returns an empty ring holding exactly capacity ops (minimum 1).
// The physical slot array is the next power of two and never below two —
// the sequence-number protocol needs a published slot's seq (tail+1) to
// stay distinct from its next-lap free seq (tail+len) — but the full check
// enforces the logical capacity exactly, so a capacity-1 queue really
// rejects a second deposit.
func NewQueue(capacity int) *Queue {
	if capacity < 1 {
		capacity = 1
	}
	c := 2
	for c < capacity {
		c <<= 1
	}
	q := &Queue{cap: uint64(capacity), mask: uint64(c - 1), slots: make([]qslot, c)}
	for i := range q.slots {
		q.slots[i].seq.Store(uint64(i))
	}
	return q
}

// Cap returns the ring's fixed logical capacity.
func (q *Queue) Cap() int { return int(q.cap) }

// Len returns the number of queued ops. Under concurrent pushes the value
// is a point-in-time approximation (it may briefly count a claimed slot
// whose op is not yet published).
func (q *Queue) Len() int {
	t, h := q.tail.Load(), q.head.Load()
	if t <= h {
		return 0
	}
	return int(t - h)
}

// Empty reports whether the ring currently holds no ops (same caveat as
// Len).
func (q *Queue) Empty() bool { return q.Len() == 0 }

// TryPush deposits op, reporting false when the ring is full (the slot a
// lap ahead has not been drained yet). Safe for concurrent producers.
func (q *Queue) TryPush(op Op) bool {
	for {
		tail := q.tail.Load()
		if tail-q.head.Load() >= q.cap {
			return false // at logical capacity
		}
		s := &q.slots[tail&q.mask]
		switch dif := int64(s.seq.Load()) - int64(tail); {
		case dif == 0: // the slot is free for this lap: claim it
			if q.tail.CompareAndSwap(tail, tail+1) {
				s.op = op
				s.seq.Store(tail + 1) // publish: visible to TryPop
				return true
			}
		case dif < 0: // still holds last lap's undrained op: full
			return false
		}
		// dif > 0: another producer claimed this slot first; reload tail.
	}
}

// TryPop removes the oldest op, reporting false when the ring is empty (or
// the oldest claimed slot is not yet published, which callers must treat as
// empty — the publisher's post-push token re-check guarantees the op is
// still drained). Single consumer only.
func (q *Queue) TryPop() (Op, bool) {
	head := q.head.Load()
	s := &q.slots[head&q.mask]
	if s.seq.Load() != head+1 {
		return Op{}, false
	}
	op := s.op
	s.op = Op{} // release the key reference to the GC
	s.seq.Store(head + uint64(len(q.slots)))
	q.head.Store(head + 1)
	return op, true
}
