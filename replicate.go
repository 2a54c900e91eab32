package hot

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"github.com/hotindex/hot/internal/persist"
	"github.com/hotindex/hot/internal/shard"
	"github.com/hotindex/hot/internal/wire"
)

// Streaming follower replication. A leader streams its state to a follower
// in two phases over one ordered byte stream (see the wire package for the
// framing):
//
//  1. Bootstrap: the shard manifest, then one complete snapshot section per
//     shard. Each section is preceded by a SECTION frame carrying the
//     shard's log cut — the shard's last assigned LSN, read under the
//     shard's writer lock immediately before the section is walked. The
//     writer-lock invariant (a shard's {log append, trie apply} pair is
//     atomic under its lock, see durable_sharded.go) makes the cut a lower
//     bound: every operation with LSN ≤ cut is applied before the walk
//     starts, so the section contains at least the state at the cut, and
//     replaying records above the cut over it converges by the same
//     last-record-wins argument recovery relies on. The stream is flushed
//     at every section boundary, so a follower that has read through
//     section i serves shards ≤ i while section i+1 is still in flight.
//  2. Tail: the leader tails each shard's write-ahead log (WALTailer) and
//     streams every record with LSN > cut as a TAIL frame, continuously.
//
// A follower is only ever sent durable records: a section's cut is
// committed before the section is streamed, and the tail ships only records
// a completed fsync covers. Every LSN a follower counts as applied is
// therefore one its leader would recover after a crash — a follower is
// never ahead of its leader's log, which is what makes its applied-LSN
// vector a safe resume offer. (A section walked while writers run may
// additionally show records above its cut, as it always could; each
// arrives again on the tail once it is durable.) Async leader writes are
// durable only at a barrier (see durable.go), so the session is one itself:
// each tail pass syncs the logs before it reads them, and a leader that
// takes nothing but un-flushed async writes still feeds its followers.
//
// The session holds the store's checkpoint lock for its whole life, so no
// cut (Checkpoint or demotion) can rotate a log out from under the tailers
// and no Close can invalidate them. The flip side: ShardedTree.Close
// blocks until every replication session is closed — a server must tear
// down its sessions (close their connections) before closing the tree.
//
// A follower that already completed a bootstrap can skip phase 1 on
// reconnect: it presents its per-shard applied-LSN vector
// (Follower.AppliedLSNs) and the leader, under the same checkpoint lock,
// checks each shard's log retention — resumable exactly when
// base ≤ appliedLSN ≤ lastLSN for every shard, i.e. no cut has rotated
// a needed record away and the follower is not ahead of the
// leader (a diverged history). On success the session tails from the
// follower's own cuts (NewReplicationSessionFrom); otherwise it degrades
// to the full two-phase stream on the same connection.

// ErrNotReady reports a follower read that landed in a shard whose
// bootstrap section has not fully arrived yet.
var ErrNotReady = errors.New("hot: follower shard not yet replicated")

// ReplicationSession streams one leader's state to one follower. Sessions
// require a durable tree (the tail phase is the write-ahead log). Multiple
// sessions are serialized by the store's checkpoint lock — a second
// NewReplicationSession blocks until the first is closed.
type ReplicationSession struct {
	t       *ShardedTree
	d       *durableState
	raw     io.Writer
	bw      *bufio.Writer
	cuts    []uint64
	scratch []byte
	locked  bool
	resumed bool

	// PingEvery is how long the tail may stay idle before the session
	// emits a PING frame so the follower's read deadline does not mistake
	// a quiet leader for a dead connection. Zero means the 1s default;
	// negative disables pings. Set before Run.
	PingEvery time.Duration
}

// defaultPingEvery is the idle-tail keepalive interval. It must be
// comfortably below any follower read deadline (ReplicaOptions.ReadTimeout
// defaults to 15s).
const defaultPingEvery = time.Second

// NewReplicationSession starts a replication session writing to w. It
// blocks while a Checkpoint, Close or another session is in progress, then
// holds the checkpoint lock until Close — callers must Close the session
// (and must close the tree only after). When w implements Flush() error
// (a *bufio.Writer does not propagate to the connection beneath it; pass
// the connection itself or a flushing wrapper), the session flushes it at
// every section boundary so the follower sees complete sections early.
func (t *ShardedTree) NewReplicationSession(w io.Writer) (*ReplicationSession, error) {
	d := t.dur
	if d == nil {
		return nil, errNotDurable
	}
	d.ckpt.Lock()
	if d.closed.Load() {
		d.ckpt.Unlock()
		return nil, ErrClosed
	}
	return &ReplicationSession{
		t:      t,
		d:      d,
		raw:    w,
		bw:     bufio.NewWriterSize(w, 64<<10),
		cuts:   make([]uint64, len(t.shards)),
		locked: true,
	}, nil
}

// NewReplicationSessionFrom starts a session that resumes from applied,
// the follower's per-shard frontier, when every shard's write-ahead log
// still retains the records past it: base ≤ applied[i] ≤ lastLSN for each
// shard i, checked under the checkpoint lock the session just took (so no
// rotation can race the decision). resumed reports the outcome: true means
// Run skips the snapshot phase and tails from the follower's cuts; false
// means the logs rotated past the frontier (or the vector does not match
// the shard layout) and Run degrades to the full bootstrap stream.
func (t *ShardedTree) NewReplicationSessionFrom(w io.Writer, applied []uint64) (s *ReplicationSession, resumed bool, err error) {
	s, err = t.NewReplicationSession(w)
	if err != nil {
		return nil, false, err
	}
	resumed = len(applied) == len(t.shards)
	for i := 0; resumed && i < len(applied); i++ {
		if applied[i] < s.d.wals[i].Base() || applied[i] > s.d.wals[i].LastLSN() {
			resumed = false
		}
	}
	if resumed {
		copy(s.cuts, applied)
		s.resumed = true
	}
	return s, resumed, nil
}

// flusher is the optional flush surface of a session's transport (a
// *bufio.Writer over a network connection, a compressing writer).
type flusher interface{ Flush() error }

// flush pushes buffered frames to the transport, propagating to the raw
// writer's own Flush when it has one (a section boundary must reach the
// follower, not sit in a second buffer).
func (s *ReplicationSession) flush() error {
	if err := s.bw.Flush(); err != nil {
		return err
	}
	if fl, ok := s.raw.(flusher); ok {
		return fl.Flush()
	}
	return nil
}

// StreamSnapshot runs the bootstrap phase: manifest, then every shard's
// section with its log cut, each flushed as it completes, ending with a
// TAILSTART frame. The snapshot is wait-free for leader writers — each
// section pins its shard's root under an epoch guard; only the per-shard
// cut read takes (and immediately releases) that shard's writer lock. The
// cut is committed, outside the lock, before its section is streamed: the
// section shows every record up to the cut, owed async ones included, and
// a follower must not hold what the leader could still lose.
func (s *ReplicationSession) StreamSnapshot() error {
	if err := wire.WriteFrame(s.bw, wire.RepManifest, nil); err != nil {
		return err
	}
	if err := s.t.writeManifest(s.bw); err != nil {
		return err
	}
	if err := s.flush(); err != nil {
		return err
	}
	for i := range s.cuts {
		w := &s.t.async.ws[i]
		w.mu.Lock()
		s.cuts[i] = s.d.wals[i].LastLSN()
		w.mu.Unlock()
		if err := s.d.wals[i].Commit(s.cuts[i]); err != nil {
			return fmt.Errorf("hot: syncing shard %d log to its cut: %w", i, err)
		}
		s.scratch = wire.AppendSection(s.scratch[:0], uint32(i), s.cuts[i])
		if err := wire.WriteFrame(s.bw, wire.RepSection, s.scratch); err != nil {
			return err
		}
		if err := s.t.writeShard(s.bw, i); err != nil {
			return err
		}
		if err := s.flush(); err != nil {
			return err
		}
	}
	if err := wire.WriteFrame(s.bw, wire.RepTailStart, nil); err != nil {
		return err
	}
	return s.flush()
}

// StreamTail runs the tail phase until stop is closed or the transport
// fails: it polls each shard's log and streams every durable record above
// that shard's cut, in per-shard LSN order. Each pass first syncs the log —
// a no-op unless async writes left an fsync owed — and then parses only
// bytes below its Size(), which advances exactly at group-commit
// completion, so the tailer never races an in-flight append and never
// ships a record the leader could lose. When stop is already closed
// StreamTail still drains everything appended so far (exactly one pass)
// before returning.
func (s *ReplicationSession) StreamTail(stop <-chan struct{}) error {
	tailers := make([]*persist.WALTailer, len(s.d.wals))
	for i, w := range s.d.wals {
		tl, err := persist.OpenWALTailer(w.Path())
		if err != nil {
			for _, t := range tailers[:i] {
				t.Close()
			}
			return fmt.Errorf("hot: tailing shard %d log: %w", i, err)
		}
		tailers[i] = tl
	}
	defer func() {
		for _, t := range tailers {
			t.Close()
		}
	}()
	pingEvery := s.PingEvery
	if pingEvery == 0 {
		pingEvery = defaultPingEvery
	}
	lastActive := time.Now()
	for {
		sent := false
		for i, tl := range tailers {
			if err := s.d.wals[i].Sync(); err != nil {
				return fmt.Errorf("hot: syncing shard %d log: %w", i, err)
			}
			limit := s.d.wals[i].Size()
			for {
				op, key, tid, lsn, ok, err := tl.Next(limit)
				if err != nil {
					return fmt.Errorf("hot: tailing shard %d log: %w", i, err)
				}
				if !ok {
					break
				}
				if lsn <= s.cuts[i] {
					continue
				}
				s.scratch = wire.AppendTail(s.scratch[:0], uint32(i), byte(op), lsn, tid, key)
				if werr := wire.WriteFrame(s.bw, wire.RepTail, s.scratch); werr != nil {
					return werr
				}
				sent = true
			}
		}
		if sent {
			if err := s.flush(); err != nil {
				return err
			}
			lastActive = time.Now()
		}
		select {
		case <-stop:
			return nil
		case <-time.After(2 * time.Millisecond):
		}
		// Idle keepalive: emitted only after the poll slept, so a stop
		// that was already closed drains exactly one pass with no pings
		// (the drain-once contract above). The write doubles as the
		// liveness probe — a wedged consumer fails it at the transport's
		// write deadline instead of holding the checkpoint lock forever.
		if pingEvery > 0 && time.Since(lastActive) >= pingEvery {
			if err := wire.WriteFrame(s.bw, wire.RepPing, nil); err != nil {
				return err
			}
			if err := s.flush(); err != nil {
				return err
			}
			lastActive = time.Now()
		}
	}
}

// Run streams the bootstrap (or, for a resumed session, just the
// RESUME/TAILSTART acknowledgement) and then tails until stop is closed or
// the transport fails.
func (s *ReplicationSession) Run(stop <-chan struct{}) error {
	if s.resumed {
		if err := wire.WriteFrame(s.bw, wire.RepResume, nil); err != nil {
			return err
		}
		if err := wire.WriteFrame(s.bw, wire.RepTailStart, nil); err != nil {
			return err
		}
		if err := s.flush(); err != nil {
			return err
		}
	} else if err := s.StreamSnapshot(); err != nil {
		return err
	}
	return s.StreamTail(stop)
}

// Close releases the store's checkpoint lock. It is idempotent and must be
// called exactly when the session ends, whatever Run returned.
func (s *ReplicationSession) Close() {
	if s.locked {
		s.locked = false
		s.d.ckpt.Unlock()
	}
}

// Follower consumes a replication stream and serves reads from the shard
// prefix that has fully arrived. One goroutine runs Feed; any number of
// goroutines read concurrently — a read routed to a shard at or beyond the
// ready prefix returns ErrNotReady rather than a wrong answer. If the
// stream dies mid-bootstrap, Feed returns the error and the follower keeps
// serving the sections that completed (the salvaged prefix).
//
// Feed may be called again after the stream dies: a stream opening with
// MANIFEST replaces the follower's state with a fresh bootstrap (reads
// briefly degrade to the new stream's growing prefix), while a stream
// opening with RESUME continues the tail over the state already held —
// which is only legal after a complete bootstrap. ReplicaClient drives
// exactly this loop.
type Follower struct {
	fl      flavor // of every tree a bootstrap builds; check is onEntry
	tree    atomic.Pointer[ShardedTree]
	ready   atomic.Int32
	tailed  atomic.Uint64
	boots   atomic.Uint64
	resumes atomic.Uint64
	cuts    []uint64
	lsns    []uint64
}

// NewFollower creates a follower resolving TIDs through loader. When
// onEntry is non-nil it receives every replicated key/TID pair — bootstrap
// entries and tail inserts/upserts — before it is applied, exactly like
// DurableOptions.RecoverEntry; an error rejects the entry and kills the
// feed. Servers use it to mirror the leader's TID→key table.
func NewFollower(loader Loader, onEntry func(key []byte, tid TID) error) *Follower {
	fl := treeFlavor(loader)
	fl.check = onEntry
	return &Follower{fl: fl}
}

// feedErr wraps a framing-level problem with its phase for diagnosis.
func feedErr(phase string, err error) error {
	return fmt.Errorf("hot: replication stream (%s): %w", phase, err)
}

// Feed consumes the replication stream from r until it ends. It returns
// nil on a clean end-of-stream at a frame boundary after the bootstrap
// completed (the leader hung up), and an error for anything else —
// including a stream cut mid-bootstrap, after which the completed shard
// prefix remains readable. The stream's first frame selects the mode:
// MANIFEST starts a (re-)bootstrap, RESUME continues the tail from the
// follower's applied frontier (only legal after a complete bootstrap —
// the leader grants it exactly when the follower offered its own
// AppliedLSNs vector).
func (f *Follower) Feed(r io.Reader) error {
	br := bufio.NewReaderSize(r, 64<<10)
	var fbuf []byte

	op, body, err := wire.ReadFrame(br, fbuf)
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return feedErr("manifest", err)
	}
	fbuf = body
	if op == wire.RepResume {
		if len(body) != 0 {
			return feedErr("resume", fmt.Errorf("non-empty RESUME frame"))
		}
		t, ready := f.snapshot()
		if t == nil || ready != len(t.shards) {
			return feedErr("resume", fmt.Errorf("leader resumed a follower with no complete bootstrap"))
		}
		op, body, err = wire.ReadFrame(br, fbuf)
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return feedErr("resume", err)
		}
		fbuf = body
		if op != wire.RepTailStart || len(body) != 0 {
			return feedErr("resume", fmt.Errorf("unexpected frame %#x", op))
		}
		f.resumes.Add(1)
		return f.feedTail(br, t, fbuf)
	}
	if op != wire.RepManifest || len(body) != 0 {
		return feedErr("manifest", fmt.Errorf("unexpected frame %#x", op))
	}
	t, err := readManifest(br, f.fl)
	if err != nil {
		return feedErr("manifest", err)
	}
	// A fresh bootstrap invalidates whatever was held before (a full
	// resync after the leader's logs rotated past our frontier). Ready
	// drops to zero before the new tree is visible, so concurrent reads
	// degrade to ErrNotReady — never to answers mixing two streams — and
	// grow back section by section.
	f.ready.Store(0)
	f.cuts = make([]uint64, len(t.shards))
	f.lsns = make([]uint64, len(t.shards))
	f.tree.Store(t)

	for i := range t.shards {
		op, body, err := wire.ReadFrame(br, fbuf)
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return feedErr("section", err)
		}
		fbuf = body
		if op != wire.RepSection {
			return feedErr("section", fmt.Errorf("unexpected frame %#x", op))
		}
		sh, cut, ok := wire.Section(body)
		if !ok || int(sh) != i {
			return feedErr("section", fmt.Errorf("section frame for shard %d, want %d", sh, i))
		}
		f.cuts[i] = cut
		if _, err = persist.Read(br, t.kind, t.load(i, t.shards[i].Load().delta.Load())); err != nil {
			return feedErr("section", err)
		}
		f.ready.Store(int32(i + 1))
	}
	f.boots.Add(1)

	op, body, err = wire.ReadFrame(br, fbuf)
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return feedErr("tail", err)
	}
	fbuf = body
	if op != wire.RepTailStart {
		return feedErr("tail", fmt.Errorf("unexpected frame %#x", op))
	}
	return f.feedTail(br, t, fbuf)
}

// feedTail applies TAIL records until the stream ends, enforcing per-shard
// LSN continuity against the follower's applied frontier. PING frames (the
// leader's idle keepalive) are consumed and dropped.
func (f *Follower) feedTail(br *bufio.Reader, t *ShardedTree, fbuf []byte) error {
	for {
		op, body, err := wire.ReadFrame(br, fbuf)
		if err != nil {
			if err == io.EOF {
				return nil // clean hang-up after bootstrap
			}
			return feedErr("tail", err)
		}
		fbuf = body
		if op == wire.RepPing {
			continue
		}
		if op != wire.RepTail {
			return feedErr("tail", fmt.Errorf("unexpected frame %#x", op))
		}
		sh, wop, lsn, tid, key, ok := wire.Tail(body)
		if !ok || int(sh) >= len(t.shards) {
			return feedErr("tail", fmt.Errorf("malformed tail frame"))
		}
		if wop < byte(shard.OpInsert) || wop > byte(shard.OpDelete) {
			return feedErr("tail", fmt.Errorf("tail op %#x", wop))
		}
		s := int(sh)
		want := f.lsns[s]
		if want == 0 {
			want = f.cuts[s]
		}
		if lsn != want+1 {
			return feedErr("tail", fmt.Errorf("shard %d LSN %d after %d", s, lsn, want))
		}
		if len(key) == 0 || len(key) > MaxKeyLen || tid > MaxTID {
			return feedErr("tail", fmt.Errorf("shard %d record out of range", s))
		}
		if rerr := t.replay(s, shard.Op{Key: key, TID: tid, Kind: shard.OpKind(wop)}); rerr != nil {
			return feedErr("tail", rerr)
		}
		f.lsns[s] = lsn
		f.tailed.Add(1)
	}
}

// snapshot pairs the current tree with a ready count clamped to its shard
// count. Tree and ready are separate atomics; during a re-bootstrap a
// reader can observe the previous tree alongside the new stream's counter,
// so the clamp keeps every index in bounds (the answer is then a complete
// prefix of whichever bootstrap it came from).
func (f *Follower) snapshot() (*ShardedTree, int) {
	t := f.tree.Load()
	if t == nil {
		return nil, 0
	}
	ready := int(f.ready.Load())
	if ready > len(t.shards) {
		ready = len(t.shards)
	}
	return t, ready
}

// Shards returns the follower's shard count, 0 before the manifest arrives.
func (f *Follower) Shards() int {
	if t := f.tree.Load(); t != nil {
		return len(t.shards)
	}
	return 0
}

// Ready returns the number of leading shards fully bootstrapped and open
// for reads. It grows one completed section at a time, and drops to zero
// when a full resync replaces the bootstrap.
func (f *Follower) Ready() int { return int(f.ready.Load()) }

// Bootstrapped reports whether a bootstrap has fully completed, making
// every shard readable (and a resume offer legal on reconnect).
func (f *Follower) Bootstrapped() bool {
	t, ready := f.snapshot()
	return t != nil && ready == len(t.shards)
}

// Bootstraps returns the number of complete bootstraps consumed. Anything
// past the first was a full resync — a reconnect whose resume offer the
// leader declined.
func (f *Follower) Bootstraps() uint64 { return f.boots.Load() }

// Resumes returns the number of streams continued from the follower's
// applied frontier without a snapshot phase.
func (f *Follower) Resumes() uint64 { return f.resumes.Load() }

// TailRecords returns the number of tail records applied since bootstrap.
func (f *Follower) TailRecords() uint64 { return f.tailed.Load() }

// AppliedLSNs returns the follower's per-shard applied frontier: the LSN
// of the last tail record applied to each shard, or the shard's bootstrap
// cut when no tail record has arrived for it. It is the vector a
// reconnecting client offers the leader in a RESUME request, and is only
// meaningful after Bootstrapped; it must not be called while a Feed is
// running (ReplicaClient reads it strictly between attempts).
func (f *Follower) AppliedLSNs() []uint64 {
	t, ready := f.snapshot()
	if t == nil || ready != len(t.shards) {
		return nil
	}
	out := make([]uint64, len(t.shards))
	for i := range out {
		if out[i] = f.lsns[i]; out[i] == 0 {
			out[i] = f.cuts[i]
		}
	}
	return out
}

// Len returns the number of keys stored in the ready shard prefix.
func (f *Follower) Len() int {
	t, ready := f.snapshot()
	n := 0
	for i := 0; i < ready; i++ {
		n += t.ShardLen(i)
	}
	return n
}

// Stats snapshots the store's STATS rows as a follower has them: the keys
// of the ready shard prefix and the shard count; a follower is neither
// durable nor tiered and queues no writes.
func (f *Follower) Stats() wire.Stats {
	s := storeStats{len: f.Len(), shards: f.Shards()}
	return wire.AppendRows(nil, storeRows[:], &s)
}

// Lookup returns the TID stored under key, or ErrNotReady when key's shard
// has not fully arrived yet.
func (f *Follower) Lookup(key []byte) (TID, bool, error) {
	t, ready := f.snapshot()
	if t == nil {
		return 0, false, ErrNotReady
	}
	s := shard.Find(t.bounds, key)
	if s >= ready {
		return 0, false, ErrNotReady
	}
	tid, ok := t.Lookup(key)
	return tid, ok, nil
}

// Scan streams entries with key ≥ start in global key order out of the
// ready shard prefix, up to max, stopping early when fn returns false. It
// returns ErrNotReady only when start's own shard is not ready — a scan
// beginning in ready territory serves what is ready and stops at the
// frontier (the follower guarantee: complete answers over a shard prefix,
// never partial answers within a shard). The key slice passed to fn is
// only valid for that call.
func (f *Follower) Scan(start []byte, max int, fn func(key []byte, tid TID) bool) (int, error) {
	t, ready := f.snapshot()
	if t == nil {
		return 0, ErrNotReady
	}
	if shard.Find(t.bounds, start) >= ready {
		return 0, ErrNotReady
	}
	return t.scanN(start, max, ready, func(c *ShardedCursor) bool { return fn(c.Key(), c.TID()) }), nil
}

// Verify runs structural invariant checks over the ready shard prefix.
func (f *Follower) Verify() error {
	t, ready := f.snapshot()
	for i := 0; i < ready; i++ {
		if err := t.shards[i].Load().delta.Load().Verify(); err != nil {
			return fmt.Errorf("hot: follower shard %d: %w", i, err)
		}
	}
	return nil
}
