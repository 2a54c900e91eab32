// Package chaos is a deterministic, seedable fault-injection registry for
// stress-testing the ROWEX writer protocol under adversarial
// interleavings and the persistence layer under I/O faults.
//
// Production code threads named injection points (Fire calls) into the
// steps of the writer discipline — after traversal, between lock
// acquisitions, before validation, mid copy-on-write, before unlock — and
// into the persist writers' I/O steps (header, block, fsync, rename),
// where armed points inject write errors, short "torn tail" writes, or
// simulated process crashes (Exit). By default no registry is armed and
// every Fire is a single predictable-branch atomic load, so the
// points cost nothing on the hot path. Tests and the hot-chaos driver arm
// a Registry that fires seeded-random actions (yields, parked sleeps) at
// chosen points to force restart storms and ABA-style races,
// deterministically enough to reproduce with the same seed.
package chaos

import (
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Point names one injection site threaded into production code. The
// catalog mirrors the ROWEX writer steps (Section 5 of the paper) plus the
// persistence layer's I/O steps.
type Point uint8

const (
	// RowexAfterTraverse fires after step (a): the writer has determined
	// the affected-node set but holds no locks yet — delaying here lets
	// concurrent writers invalidate the traversal and forces restarts.
	RowexAfterTraverse Point = iota
	// RowexBetweenLocks fires between the bottom-up lock acquisitions of
	// step (b), widening the partial-lock window.
	RowexBetweenLocks
	// RowexBeforeValidate fires after all locks are held, before the
	// obsolete/link validation of step (c).
	RowexBeforeValidate
	// RowexMidCopy fires during step (d), after a replacement node has
	// been built but before it is published.
	RowexMidCopy
	// RowexBeforeUnlock fires before the top-down unlock of step (e).
	RowexBeforeUnlock

	// Snapshot-persistence I/O fault points (internal/persist). An armed
	// point with a nil action makes the persist writer fail that I/O step
	// with persist.ErrInjected; an action of Exit simulates a process
	// crash at exactly that step (the crash-matrix test drives both).

	// SnapWriteHeader fires before the snapshot header is written: a fault
	// here leaves a zero-length or absent temp file.
	SnapWriteHeader
	// SnapWriteBlock fires before each data block is written: a fault here
	// leaves a snapshot whose tail block is missing entirely.
	SnapWriteBlock
	// SnapTornWrite fires after the first half of a data block has reached
	// the file but before the rest: a short write, leaving a torn tail
	// whose partial block must be detected by the per-block CRC.
	SnapTornWrite
	// SnapSync fires after the temp file's contents are complete but
	// before it is fsynced — the window in which a crash may leave any
	// prefix of the data durable.
	SnapSync
	// SnapRename fires after the temp file is durable but before the
	// atomic rename: a crash here must leave the previous snapshot intact.
	SnapRename
	// SnapDirSync fires after the rename but before the directory fsync:
	// the new snapshot is complete, its directory entry possibly not yet
	// durable.
	SnapDirSync
	// SnapClose fires after the temp file is fsynced but before it is
	// closed: a fault here must still remove the temp file and leave the
	// previous snapshot intact (close-after-fsync errors are real on
	// networked filesystems and must not be swallowed).
	SnapClose

	// Write-ahead-log I/O fault points (internal/persist WAL). Like the
	// snap/* points, a nil action injects persist.ErrInjected and an Exit
	// action simulates a process crash at exactly that I/O step; the WAL
	// crash matrix drives both.

	// WalAppend fires before buffered log records are written to the log
	// file: a crash here loses every record since the last append, all of
	// them unacknowledged.
	WalAppend
	// WalTornWrite fires after the first half of an append has reached the
	// log file but before the rest: a short write leaving a torn tail
	// record that replay must detect by its CRC and cut off.
	WalTornWrite
	// WalSync fires after appended records are fully written but before
	// the group-commit fsync — the window in which a crash may leave any
	// prefix of the appended records durable.
	WalSync
	// WalRotate fires after a checkpoint's replacement log is durable but
	// before it is renamed over the old log: a crash here must leave the
	// old log (whose records the just-written snapshot already covers)
	// intact and replayable.
	WalRotate
	// WalTruncate fires during recovery, before a torn tail is truncated
	// off the log: a crash here must leave recovery re-runnable (the same
	// valid prefix salvages again).
	WalTruncate
	// WalExtend fires after a commit has written the zero chunk that grows
	// the log file but before it writes its records: a crash here leaves a
	// longer file whose new bytes are all zeros, which replay must read as
	// the log's clean end.
	WalExtend

	// NumPoints is the number of named injection points.
	NumPoints = int(iota)
)

var pointNames = [NumPoints]string{
	"rowex/after-traverse",
	"rowex/between-locks",
	"rowex/before-validate",
	"rowex/mid-copy",
	"rowex/before-unlock",
	"snap/write-header",
	"snap/write-block",
	"snap/torn-write",
	"snap/sync",
	"snap/rename",
	"snap/dir-sync",
	"snap/close",
	"wal/append",
	"wal/torn-write",
	"wal/sync",
	"wal/rotate",
	"wal/truncate",
	"wal/extend",
}

// String returns the point's catalog name.
func (p Point) String() string {
	if int(p) < NumPoints {
		return pointNames[p]
	}
	return "chaos/unknown"
}

// Points lists every named injection point, in catalog order.
func Points() []Point {
	ps := make([]Point, NumPoints)
	for i := range ps {
		ps[i] = Point(i)
	}
	return ps
}

var (
	enabled atomic.Bool
	armed   atomic.Pointer[Registry]
)

// Fire is the production-side hook: it invokes the armed registry's action
// for p and reports whether an injected action ran. With no registry armed
// it is a no-op costing one atomic load.
func Fire(p Point) bool {
	if !enabled.Load() {
		return false
	}
	r := armed.Load()
	if r == nil {
		return false
	}
	return r.fire(p)
}

// Armed reports whether a registry is currently armed.
func Armed() bool { return enabled.Load() }

// Registry holds per-point injected actions and counters. Decisions are
// drawn from a seeded PRNG, so a single-goroutine hit sequence fires
// identically across runs; under concurrency the draw order follows the
// interleaving but remains fully determined by it and the seed.
type Registry struct {
	mu    sync.Mutex
	rng   *rand.Rand
	acts  [NumPoints]action
	hits  [NumPoints]atomic.Uint64
	fired [NumPoints]atomic.Uint64
}

type action struct {
	prob float64
	skip uint64
	fn   func()
}

// New returns a registry whose fire decisions derive from seed.
func New(seed int64) *Registry {
	return &Registry{rng: rand.New(rand.NewSource(seed))}
}

// On installs fn at point p, firing with probability prob per hit
// (prob ≥ 1 fires on every hit; prob ≤ 0 disables the point). fn may be
// nil to count fires without acting.
func (r *Registry) On(p Point, prob float64, fn func()) {
	r.mu.Lock()
	r.acts[p] = action{prob: prob, fn: fn}
	r.mu.Unlock()
}

// OnAfter is On with a dormancy budget: the point's first skip hits never
// fire, hit skip+1 onward fires with probability prob. It aims a fault at
// the k-th occurrence of a point — the middle shard of a multi-shard log
// rotation, the second fsync of a run — which a probability alone cannot
// target deterministically.
func (r *Registry) OnAfter(p Point, skip uint64, prob float64, fn func()) {
	r.mu.Lock()
	r.acts[p] = action{prob: prob, skip: skip, fn: fn}
	r.mu.Unlock()
}

// Arm installs r as the process-wide registry receiving Fire calls. Only
// one registry may be armed at a time; Arm panics if another is.
func (r *Registry) Arm() {
	if !armed.CompareAndSwap(nil, r) {
		panic("chaos: another registry is already armed")
	}
	enabled.Store(true)
}

// Disarm removes the armed registry, returning every injection point to
// its zero-cost no-op state.
func Disarm() {
	enabled.Store(false)
	armed.Store(nil)
}

func (r *Registry) fire(p Point) bool {
	n := r.hits[p].Add(1)
	r.mu.Lock()
	a := r.acts[p]
	run := a.prob > 0 && n > a.skip && (a.prob >= 1 || r.rng.Float64() < a.prob)
	r.mu.Unlock()
	if !run {
		return false
	}
	r.fired[p].Add(1)
	if a.fn != nil {
		a.fn()
	}
	return true
}

// Hits returns how many times point p was reached while armed.
func (r *Registry) Hits(p Point) uint64 { return r.hits[p].Load() }

// Fired returns how many times point p's action actually ran.
func (r *Registry) Fired(p Point) uint64 { return r.fired[p].Load() }

// FiredTotal returns the number of injected faults across all points — the
// "survived faults" count when the structure verifies clean afterwards.
func (r *Registry) FiredTotal() uint64 {
	var n uint64
	for i := 0; i < NumPoints; i++ {
		n += r.fired[i].Load()
	}
	return n
}

// Yield returns an action that yields the processor n times, widening the
// race window at its injection point without burning wall-clock time.
func Yield(n int) func() {
	return func() {
		for i := 0; i < n; i++ {
			runtime.Gosched()
		}
	}
}

// Sleep returns an action that parks the goroutine for d — long enough for
// concurrent writers to commit whole operations inside the window.
func Sleep(d time.Duration) func() {
	return func() { time.Sleep(d) }
}

// Exit returns an action that terminates the process immediately with the
// given exit code — a simulated crash at the injection point, used by the
// snapshot crash-matrix subprocess test. Unlike a panic it runs no deferred
// cleanup, so whatever bytes the writer had issued are exactly what a real
// power cut at that step would leave behind.
func Exit(code int) func() {
	return func() { os.Exit(code) }
}
