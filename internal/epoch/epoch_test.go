package epoch

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRetireReclaimAfterTwoAdvances(t *testing.T) {
	var m Manager
	var freed atomic.Int32
	m.Retire(func() { freed.Add(1) })
	if m.Pending() != 1 {
		t.Fatalf("pending = %d", m.Pending())
	}
	// One advance must not reclaim (grace period is two epochs).
	if !m.TryAdvance() {
		t.Fatal("advance 1 failed")
	}
	if freed.Load() != 0 {
		t.Fatal("reclaimed after a single advance")
	}
	if !m.TryAdvance() {
		t.Fatal("advance 2 failed")
	}
	if freed.Load() != 1 || m.Freed() != 1 || m.Pending() != 0 {
		t.Fatalf("freed=%d Freed=%d Pending=%d", freed.Load(), m.Freed(), m.Pending())
	}
}

func TestPinBlocksAdvance(t *testing.T) {
	var m Manager
	g := m.Enter()
	if !m.TryAdvance() {
		t.Fatal("advance with same-epoch pin must succeed")
	}
	// g is now pinned at an old epoch: no further advance.
	if m.TryAdvance() {
		t.Fatal("advance succeeded despite old-epoch pin")
	}
	g.Exit()
	if !m.TryAdvance() {
		t.Fatal("advance after exit failed")
	}
}

func TestGuardProtectsRetiredObject(t *testing.T) {
	var m Manager
	g := m.Enter() // reader enters before retirement
	var freed atomic.Bool
	m.Retire(func() { freed.Store(true) })
	m.TryAdvance()
	m.TryAdvance()
	m.TryAdvance()
	if freed.Load() {
		t.Fatal("object reclaimed while a pre-existing guard was held")
	}
	g.Exit()
	m.Flush()
	if !freed.Load() {
		t.Fatal("object not reclaimed after guard exit")
	}
}

func TestFlush(t *testing.T) {
	var m Manager
	n := 0
	for i := 0; i < 10; i++ {
		m.Retire(func() { n++ })
	}
	m.Flush()
	if n != 10 {
		t.Fatalf("flushed %d of 10", n)
	}
}

func TestConcurrentGuards(t *testing.T) {
	var m Manager
	var wg sync.WaitGroup
	var reclaimed atomic.Int64
	const workers = 32
	const opsPerWorker = 2000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < opsPerWorker; i++ {
				g := m.Enter()
				if i%7 == 0 {
					m.Retire(func() { reclaimed.Add(1) })
				}
				g.Exit()
				if i%64 == 0 {
					m.TryAdvance()
				}
			}
		}(w)
	}
	wg.Wait()
	m.Flush()
	m.Flush()
	want := int64(workers * ((opsPerWorker + 6) / 7))
	if got := reclaimed.Load(); got != want {
		t.Fatalf("reclaimed %d, want %d (pending %d)", got, want, m.Pending())
	}
	if m.Pending() != 0 {
		t.Fatalf("pending %d after flush", m.Pending())
	}
}

// TestEnterSlotExhaustion pins every slot and checks that a further Enter
// degrades gracefully: it counts contended sweeps (and yields rather than
// busy-spinning) until a slot frees up, then succeeds.
func TestEnterSlotExhaustion(t *testing.T) {
	var m Manager
	guards := make([]Guard, 0, Slots)
	for i := 0; i < Slots; i++ {
		guards = append(guards, m.Enter())
	}
	if m.Contended() != 0 {
		t.Fatalf("contended = %d before exhaustion", m.Contended())
	}
	acquired := make(chan Guard)
	go func() { acquired <- m.Enter() }()
	deadline := time.Now().Add(5 * time.Second)
	for m.Contended() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("exhausted Enter never counted a contended sweep")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-acquired:
		t.Fatal("Enter returned while every slot was pinned")
	default:
	}
	guards[Slots/2].Exit()
	g := <-acquired
	g.Exit()
	for i, gd := range guards {
		if i != Slots/2 {
			gd.Exit()
		}
	}
	if m.Contended() == 0 {
		t.Fatal("contention not counted")
	}
}

func TestNilRetire(t *testing.T) {
	var m Manager
	m.Retire(nil)
	m.Flush()
	if m.Freed() != 1 {
		t.Fatalf("Freed = %d", m.Freed())
	}
}

// TestScratchPerSlot: two pinned operations get buffers that do not alias,
// a slot's next holder gets its buffer back empty, and pinning a reader
// and using its buffer allocates nothing.
func TestScratchPerSlot(t *testing.T) {
	var m Manager
	g1, g2 := m.Enter(), m.Enter()
	b1 := append(g1.Scratch(), "one"...)
	b2 := append(g2.Scratch(), "two"...)
	if string(b1) != "one" || string(b2) != "two" || cap(b1) != scratchBytes {
		t.Fatalf("pinned buffers %q (cap %d) and %q share storage", b1, cap(b1), b2)
	}
	g2.Exit()
	g1.Exit()
	if allocs := testing.AllocsPerRun(100, func() {
		g := m.Enter()
		if b := g.Scratch(); len(b) != 0 || cap(b) != scratchBytes {
			t.Fatalf("reused buffer has len %d, cap %d", len(b), cap(b))
		}
		g.Exit()
	}); allocs != 0 {
		t.Fatalf("Enter, Scratch, Exit allocates %v", allocs)
	}
}

func BenchmarkEnterExit(b *testing.B) {
	var m Manager
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			m.Enter().Exit()
		}
	})
}
