// Package epoch implements epoch-based memory reclamation, the strategy
// HOT's ROWEX synchronization uses to free obsolete copy-on-write nodes
// once no reader or writer can still observe them (Section 5 of the paper,
// citing Fraser's epoch scheme).
//
// Note on Go: the garbage collector already guarantees that wait-free
// readers can never observe freed memory, so unlike the C++ original this
// manager is not needed for safety. It faithfully reproduces the paper's
// reclamation protocol — deferred destruction after a grace period of two
// epoch advances — and gives the benchmarks deterministic "reclaimed node"
// accounting.
package epoch

import (
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/hotindex/hot/internal/chaos"
)

const (
	// Slots bounds the number of concurrently pinned operations. Must be a
	// power of two.
	Slots = 256

	slots = Slots

	// idle marks an unpinned slot. Pinned slots store epoch+1 so the zero
	// value of Manager is ready to use.
	idle = uint64(0)
)

// Manager tracks a global epoch and per-operation pins. The zero value is
// ready to use.
type Manager struct {
	global atomic.Uint64
	pins   [slots]paddedPin

	mu      sync.Mutex
	retired [3][]func() // retire lists for epochs e, e-1, e-2 (mod 3)
	counts  [3]int
	freed   atomic.Uint64
	pending atomic.Int64

	// contended counts Enter sweeps that found every pin slot taken
	// (including injected contention) — slot exhaustion observability.
	contended atomic.Uint64
}

type paddedPin struct {
	epoch   atomic.Uint64      // idle or the epoch the operation entered at
	scratch [scratchBytes]byte // the pinned operation's buffer (Guard.Scratch)
}

// scratchBytes pads a pin to a 64-byte cache line, so neighbouring pins do
// not share one; the pad is the pin's scratch buffer.
const scratchBytes = 56

// Guard represents one pinned operation (a reader or writer critical
// section). It must be released exactly once.
type Guard struct {
	m    *Manager
	slot int
}

// Enter pins the calling operation to the current epoch. Operations from
// any goroutine may enter concurrently. In the unlikely case that all pin
// slots are taken, Enter degrades gracefully: each failed sweep is counted
// (see Contended) and yields the processor instead of busy-spinning.
func (m *Manager) Enter() Guard {
	if chaos.Fire(chaos.EpochEnter) {
		// Injected slot contention: account and yield as if a sweep failed.
		m.contended.Add(1)
		runtime.Gosched()
	}
	for {
		e := m.global.Load()
		i := int(e) & (slots - 1)
		for j := 0; j < slots; j++ {
			s := (i + j) & (slots - 1)
			if m.pins[s].epoch.Load() == idle && m.pins[s].epoch.CompareAndSwap(idle, e+1) {
				return Guard{m: m, slot: s}
			}
		}
		m.contended.Add(1)
		runtime.Gosched()
	}
}

// Exit releases the guard.
func (g Guard) Exit() {
	g.m.pins[g.slot].epoch.Store(idle)
}

// Scratch returns the guard's pin-slot buffer, empty, with room for a key
// of up to scratchBytes (a longer one makes the caller's append allocate).
// The slot is the guard's alone until Exit, so a pinned reader has a key
// buffer without allocating and without a lock. The buffer must not be
// used after Exit.
func (g Guard) Scratch() []byte {
	return g.m.pins[g.slot].scratch[:0]
}

// Retire schedules free to run once two epoch advances have passed, i.e.
// once every operation that might still observe the retired object has
// exited. free may be nil (accounting-only retirement).
func (m *Manager) Retire(free func()) {
	e := m.global.Load()
	m.mu.Lock()
	idx := int(e % 3)
	if free != nil {
		m.retired[idx] = append(m.retired[idx], free)
	}
	m.counts[idx]++
	m.mu.Unlock()
	m.pending.Add(1)
}

// TryAdvance advances the global epoch if every pinned operation has
// entered at the current epoch, then reclaims the list that is two epochs
// old. It returns whether the epoch advanced. Callers typically invoke it
// periodically (e.g. every N retirements).
func (m *Manager) TryAdvance() bool {
	chaos.Fire(chaos.EpochAdvance)
	e := m.global.Load()
	for i := range m.pins {
		pe := m.pins[i].epoch.Load()
		if pe != idle && pe != e+1 {
			return false
		}
	}
	if !m.global.CompareAndSwap(e, e+1) {
		return false // someone else advanced
	}
	// Epoch e+1 is current; lists from epoch e-1 (== (e+2) mod 3) are now
	// unobservable: every pin is at e or later.
	m.mu.Lock()
	idx := int((e + 2) % 3)
	list := m.retired[idx]
	n := m.counts[idx]
	m.retired[idx] = nil
	m.counts[idx] = 0
	m.mu.Unlock()
	for _, f := range list {
		f()
	}
	m.freed.Add(uint64(n))
	m.pending.Add(int64(-n))
	return true
}

// Flush advances epochs until all retirements at the time of the call have
// been reclaimed. It must only be called while no operation is pinned.
func (m *Manager) Flush() {
	for i := 0; i < 3; i++ {
		if !m.TryAdvance() {
			return
		}
	}
}

// Freed returns the number of reclaimed retirements.
func (m *Manager) Freed() uint64 { return m.freed.Load() }

// Pending returns the number of not-yet-reclaimed retirements.
func (m *Manager) Pending() int64 { return m.pending.Load() }

// Contended returns the number of Enter sweeps that found every pin slot
// taken. A nonzero value means operations had to wait for a slot.
func (m *Manager) Contended() uint64 { return m.contended.Load() }

// Epoch returns the current global epoch (for tests and stats).
func (m *Manager) Epoch() uint64 { return m.global.Load() }
