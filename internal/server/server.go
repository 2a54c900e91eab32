// Package server is hot-server's network front end: a TCP listener
// multiplexing any number of client connections onto one sharded HOT
// index over the wire package's length-prefixed protocol. Reads run
// straight on the epoch-protected shards (wait-free, no server-side
// locks); writes go through the index's async submission path, so a
// connection can pipeline writes back to back — each is applied, and
// readable, as it arrives — and use FLUSH as its completion barrier and, on
// a durable server, its durability point: writes no FLUSH has covered yet
// are not promised to survive a crash. A server is either a leader (owns the
// index, optionally durable) or a follower (bootstraps from a leader's
// replication stream and serves reads from the replicated shard prefix).
package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	hot "github.com/hotindex/hot"
	"github.com/hotindex/hot/internal/wire"
)

// Options configures a server.
type Options struct {
	// Shards is the range-partition count for a fresh index (default 8).
	Shards int
	// Dir, when non-empty, opens the index in durable (write-ahead logged)
	// mode in that directory. Required to serve replication streams.
	Dir string
	// Sample seeds the shard boundaries of a fresh index (see
	// hot.NewShardedTree); ignored when Dir already holds a snapshot.
	Sample [][]byte
	// GroupCommitDelay is the durable mode's fsync accumulation window.
	GroupCommitDelay time.Duration
	// Follow, when non-empty, makes this server a read-only follower of
	// the leader at that address: it dials, bootstraps over the leader's
	// replication stream, and serves reads from the ready shard prefix
	// while the rest streams. The replication client reconnects on
	// failure, resuming the tail from the applied frontier when the
	// leader's logs allow it. Dir must be empty.
	Follow string
	// MaxConns caps concurrently served connections. An accept past the
	// cap is answered with a typed busy ERR frame and closed immediately —
	// clients get a fast, explicit signal instead of a stalled socket.
	// 0 means unlimited.
	MaxConns int
	// IdleTimeout closes a connection whose next request does not arrive
	// in time (a dead or leaked client must not hold a connection slot
	// forever). It never applies to replication streams, which are
	// legitimately read-silent. 0 means the 5m default; negative disables.
	IdleTimeout time.Duration
	// WriteTimeout bounds every write to a connection. Its critical job is
	// evicting a wedged replication consumer: a session write that cannot
	// make progress fails here, the session dies, and the checkpoint lock
	// is released instead of being held hostage. 0 means the 30s default;
	// negative disables.
	WriteTimeout time.Duration
	// DialTimeout bounds a follower's connection attempts to its leader.
	// 0 means the replication client's own default (10s).
	DialTimeout time.Duration
	// ReconnectMin and ReconnectMax override the follower's reconnect
	// backoff bounds (mainly for tests; zero keeps the defaults).
	ReconnectMin time.Duration
	ReconnectMax time.Duration
	// MemoryBudget, when positive, enables the pager-backed cold tier:
	// once the resident tries exceed the budget, the least-recently-
	// written shards are demoted to per-shard section files and served
	// through an LRU page cache (see hot.EnableColdTier). Requires Dir
	// (the cold sections live in the durable directory).
	MemoryBudget int64
	// CacheBytes bounds the cold tier's page cache — blocks as stored plus
	// their restart tables; zero selects MemoryBudget/8, floored at 8 MiB.
	CacheBytes int64
}

const (
	defaultIdleTimeout  = 5 * time.Minute
	defaultWriteTimeout = 30 * time.Second
)

// Server serves the hot wire protocol over TCP.
type Server struct {
	opts Options
	km   *KeyMap
	tree *hot.ShardedTree   // leader mode
	fol  *hot.Follower      // follower mode
	rc   *hot.ReplicaClient // follower mode: the reconnecting feed

	idleTimeout  time.Duration // resolved (0 = disabled)
	writeTimeout time.Duration // resolved (0 = disabled)

	ln     net.Listener
	stop   chan struct{}
	closed atomic.Bool
	wg     sync.WaitGroup
	mu     sync.Mutex
	conns  map[net.Conn]struct{}

	active         atomic.Int64  // connections currently served
	rejected       atomic.Uint64 // accepts refused at MaxConns
	deadlineCloses atomic.Uint64 // connections closed by a deadline
	resumeSessions atomic.Uint64 // leader: resumed replication sessions
	fullResyncs    atomic.Uint64 // leader: resume offers declined
}

// New builds a server. A follower (opts.Follow set) starts its
// replication client immediately — it keeps dialing the leader with
// backoff until it connects, and reconnects (resuming the tail) whenever
// the stream dies; poll Follower().Ready() to watch the readable shard
// prefix grow.
func New(opts Options) (*Server, error) {
	if opts.Shards <= 0 {
		opts.Shards = 8
	}
	s := &Server{opts: opts, km: &KeyMap{}, stop: make(chan struct{}), conns: make(map[net.Conn]struct{})}
	s.idleTimeout = opts.IdleTimeout
	if s.idleTimeout == 0 {
		s.idleTimeout = defaultIdleTimeout
	} else if s.idleTimeout < 0 {
		s.idleTimeout = 0
	}
	s.writeTimeout = opts.WriteTimeout
	if s.writeTimeout == 0 {
		s.writeTimeout = defaultWriteTimeout
	} else if s.writeTimeout < 0 {
		s.writeTimeout = 0
	}
	bind := func(key []byte, tid hot.TID) error {
		_, err := s.km.Bind(key, tid)
		return err
	}
	switch {
	case opts.Follow != "":
		if opts.Dir != "" {
			return nil, fmt.Errorf("hot-server: a follower cannot also be durable (Dir and Follow both set)")
		}
		s.rc = hot.NewReplicaClient(opts.Follow, s.km.Key, bind, hot.ReplicaOptions{
			DialTimeout: opts.DialTimeout,
			MinBackoff:  opts.ReconnectMin,
			MaxBackoff:  opts.ReconnectMax,
		})
		s.fol = s.rc.Follower()
	case opts.Dir != "":
		dopts := hot.DurableOptions{GroupCommitDelay: opts.GroupCommitDelay, RecoverEntry: bind}
		if opts.MemoryBudget > 0 {
			dopts.ColdTier = &hot.ColdTierConfig{MemoryBudget: opts.MemoryBudget, CacheBytes: opts.CacheBytes}
		}
		tree, _, err := hot.OpenDurableShardedTree(opts.Dir, s.km.Key, opts.Shards, opts.Sample, dopts)
		if err != nil {
			return nil, err
		}
		s.tree = tree
	default:
		if opts.MemoryBudget > 0 {
			return nil, fmt.Errorf("hot-server: MemoryBudget requires Dir (cold sections live in the durable directory)")
		}
		s.tree = hot.NewShardedTree(s.km.Key, opts.Shards, opts.Sample)
	}
	return s, nil
}

// Tree returns the leader's index, nil on a follower.
func (s *Server) Tree() *hot.ShardedTree { return s.tree }

// Follower returns the follower state, nil on a leader.
func (s *Server) Follower() *hot.Follower { return s.fol }

// Replica returns the follower's replication client, nil on a leader.
func (s *Server) Replica() *hot.ReplicaClient { return s.rc }

// FeedErr returns the error that ended a follower's most recent
// replication attempt, nil while the stream is healthy. The client keeps
// reconnecting either way — this is diagnostic.
func (s *Server) FeedErr() error {
	if s.rc == nil {
		return nil
	}
	return s.rc.LastErr()
}

// Listen binds addr (":0" for an ephemeral port) and starts accepting
// connections. It returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			if s.opts.MaxConns > 0 && int(s.active.Load()) >= s.opts.MaxConns {
				// Reject explicitly rather than accept-and-stall: a client
				// at the limit gets a typed busy ERR it can back off on,
				// not a socket that hangs until something times out.
				s.rejected.Add(1)
				go rejectBusy(conn, s.opts.MaxConns)
				continue
			}
			s.track(conn)
			s.active.Add(1)
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				defer s.active.Add(-1)
				defer s.untrack(conn)
				s.ServeConn(conn)
			}()
		}
	}()
	return ln.Addr().String(), nil
}

// BusyPrefix starts the ERR message sent to a connection refused at the
// MaxConns limit; clients match on it (hotclient.IsBusy) to distinguish
// overload from real protocol errors.
const BusyPrefix = "busy: "

// rejectBusy answers an over-limit accept with the typed busy ERR and
// closes it. Best-effort with a short write deadline — the peer may
// already be gone.
func rejectBusy(conn net.Conn, limit int) {
	conn.SetWriteDeadline(time.Now().Add(time.Second))
	wire.WriteFrame(conn, wire.RepErr, fmt.Appendf(nil, "%sconnection limit %d reached", BusyPrefix, limit))
	conn.Close()
}

func (s *Server) track(c net.Conn) {
	s.mu.Lock()
	s.conns[c] = struct{}{}
	s.mu.Unlock()
}

func (s *Server) untrack(c net.Conn) {
	c.Close()
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// Close shuts the server down immediately: stop serving, sever every
// connection (replication sessions hold the index's checkpoint lock, so
// they MUST be torn down before the index is closed — closing the index
// first would deadlock), wait for the handlers, then close the index.
// Idempotent. For a drain that lets in-flight requests finish, use
// Shutdown.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return s.Shutdown(ctx)
}

// Shutdown drains the server gracefully: the listener closes (no new
// connections), replication sessions are told to stop after their current
// pass, and connection handlers finish the requests already buffered —
// each handler's blocked read is woken so it notices the drain, flushes
// its replies, and exits. When ctx expires before the drain completes,
// every remaining connection is severed, Close-style. The index closes
// last, after all handlers are gone. Idempotent; concurrent calls share
// the first one's outcome only in that both wait for the same teardown.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.closed.Swap(true) {
		return nil
	}
	close(s.stop)
	if s.ln != nil {
		s.ln.Close()
	}
	if s.rc != nil {
		s.rc.Close()
	}
	// Wake every handler blocked in a read: an expired read deadline
	// surfaces as a timeout error, the handler sees the server draining
	// and exits after flushing. Requests already buffered still complete.
	s.mu.Lock()
	for c := range s.conns {
		c.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
	}
	if s.tree != nil {
		return s.tree.Close()
	}
	return nil
}

// keyOK validates a client-supplied key before it reaches the index (the
// index panics on contract violations; the server must reject them as
// protocol errors instead).
func keyOK(key []byte) bool { return len(key) > 0 && len(key) <= hot.MaxKeyLen }

func writeErr(bw *bufio.Writer, msg string) error {
	return wire.WriteFrame(bw, wire.RepErr, []byte(msg))
}

// deadlineRW arms per-connection deadlines around a transport that has
// them (a net.Conn); in-memory test/fuzz streams pass through untouched.
// Reads get the idle timeout — disabled once the connection enters
// replication mode, whose consumer is legitimately read-silent — and every
// write gets the write timeout, which is what evicts a wedged replication
// consumer. The first deadline expiry on a connection is counted.
type deadlineRW struct {
	rw       io.ReadWriter
	conn     net.Conn // nil: no deadline support
	srv      *Server
	repl     bool // replication mode: no idle read deadline
	timedOut bool // this connection already counted a deadline close
}

func (d *deadlineRW) Read(p []byte) (int, error) {
	if d.conn != nil && d.srv.idleTimeout > 0 && !d.repl {
		d.conn.SetReadDeadline(time.Now().Add(d.srv.idleTimeout))
		// Shutdown marks the server closed, then expires every read
		// deadline; arming ours after its pass would undo the wake-up.
		if d.srv.closed.Load() {
			d.conn.SetReadDeadline(time.Now())
		}
	}
	n, err := d.rw.Read(p)
	d.note(err)
	return n, err
}

func (d *deadlineRW) Write(p []byte) (int, error) {
	if d.conn != nil && d.srv.writeTimeout > 0 {
		d.conn.SetWriteDeadline(time.Now().Add(d.srv.writeTimeout))
	}
	n, err := d.rw.Write(p)
	d.note(err)
	return n, err
}

// note counts the first deadline expiry on this connection. A read woken
// by Shutdown also surfaces as a timeout; the draining check keeps it out
// of the eviction count.
func (d *deadlineRW) note(err error) {
	if err == nil || d.timedOut || d.srv.closed.Load() {
		return
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		d.timedOut = true
		d.srv.deadlineCloses.Add(1)
	}
}

// ServeConn runs one connection's request loop until the peer hangs up, a
// protocol violation forces a close, or the transport fails. It is exported
// on io.ReadWriter (not net.Conn) so tests and the fuzzer can drive it with
// in-memory streams. Replies to pipelined requests are buffered and flushed
// when the read side would block, so a burst of GETs costs one writev.
//
// Error discipline: a malformed reply-bearing request (GET, SCAN, BATCH,
// FLUSH, STATS) gets an ERR reply and the connection lives on. A malformed
// fire-and-forget write (SET, ADD, DEL) cannot be reported in-band without
// desynchronizing the reply stream, so it gets an ERR frame and the
// connection closes.
func (s *Server) ServeConn(rw io.ReadWriter) {
	d := &deadlineRW{rw: rw, srv: s}
	if c, ok := rw.(net.Conn); ok {
		d.conn = c
	}
	br := bufio.NewReaderSize(d, 64<<10)
	bw := bufio.NewWriterSize(d, 64<<10)
	defer bw.Flush()
	var rbuf, wbuf []byte
	var tids []hot.TID // a leader's BATCH lookups and SCAN entries land here
	var keys [][]byte  // and a leader's SCAN keys, resolved in one batch
	collect := func(tid hot.TID) bool { tids = append(tids, tid); return true }
	for {
		if br.Buffered() == 0 {
			if err := bw.Flush(); err != nil {
				return
			}
		}
		op, body, err := wire.ReadFrame(br, rbuf)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				// Idle deadline (or a Shutdown wake-up): tell the peer why
				// before closing, best-effort.
				writeErr(bw, "connection closed: idle timeout")
			} else if err != io.EOF && err != io.ErrUnexpectedEOF {
				writeErr(bw, err.Error())
			}
			return
		}
		rbuf = body

		switch op {
		case wire.OpGet:
			if !keyOK(body) {
				writeErr(bw, "GET: bad key")
				continue
			}
			var tid hot.TID
			var found bool
			if s.fol != nil {
				var lerr error
				tid, found, lerr = s.fol.Lookup(body)
				if lerr != nil {
					writeErr(bw, lerr.Error())
					continue
				}
			} else {
				tid, found = s.tree.Lookup(body)
			}
			if found {
				wbuf = wire.AppendUint64(wbuf[:0], tid)
				wire.WriteFrame(bw, wire.RepValue, wbuf)
			} else {
				wire.WriteFrame(bw, wire.RepMissing, nil)
			}

		case wire.OpSet, wire.OpAdd:
			key, tid, ok := wire.KeyTID(body)
			if !ok || !keyOK(key) || tid > hot.MaxTID {
				writeErr(bw, "SET/ADD: bad key or TID")
				return
			}
			if s.fol != nil {
				writeErr(bw, "follower is read-only")
				return
			}
			stable, berr := s.km.Bind(key, tid)
			if berr != nil {
				writeErr(bw, berr.Error())
				return
			}
			if op == wire.OpSet {
				s.tree.UpsertAsync(stable, tid)
			} else {
				s.tree.InsertAsync(stable, tid)
			}

		case wire.OpDel:
			if !keyOK(body) || s.fol != nil {
				writeErr(bw, "DEL: bad key or read-only follower")
				return
			}
			// The async path needs the key until the op is applied; body
			// aliases the reusable read buffer, so copy.
			s.tree.DeleteAsync(append([]byte(nil), body...))

		case wire.OpScan:
			start, max, ok := wire.Scan(body)
			if !ok || len(start) > hot.MaxKeyLen {
				writeErr(bw, "SCAN: bad request")
				continue
			}
			if max > wire.MaxScan {
				max = wire.MaxScan
			}
			wbuf = wire.AppendUint32(wbuf[:0], 0)
			n := 0
			add := func(key []byte, tid hot.TID) bool {
				if len(wbuf)+10+len(key) > wire.MaxFrame {
					return false
				}
				wbuf = wire.AppendUint64(wbuf, tid)
				wbuf = binary.LittleEndian.AppendUint16(wbuf, uint16(len(key)))
				wbuf = append(wbuf, key...)
				n++
				return true
			}
			if s.fol != nil {
				if _, serr := s.fol.Scan(start, int(max), add); serr != nil {
					writeErr(bw, serr.Error())
					continue
				}
			} else {
				// Collect the TIDs first and resolve their keys in one
				// KeyMap call, whose misses overlap, instead of one tuple
				// load per entry. Every TID the scan yields is bound —
				// cold sections' TIDs too, by the durable open's
				// RecoverEntry walk — so the keys are the scan's own.
				tids = tids[:0]
				s.tree.Scan(start, int(max), collect)
				if cap(keys) < len(tids) {
					keys = make([][]byte, len(tids))
				}
				keys = keys[:len(tids)]
				s.km.Keys(tids, keys)
				for i, key := range keys {
					if !add(key, tids[i]) {
						break
					}
				}
			}
			binary.LittleEndian.PutUint32(wbuf[:4], uint32(n))
			wire.WriteFrame(bw, wire.RepEntries, wbuf)

		case wire.OpBatch:
			keys, ok := wire.BatchKeys(body)
			if ok {
				for _, k := range keys {
					if !keyOK(k) {
						ok = false
						break
					}
				}
			}
			if !ok {
				writeErr(bw, "BATCH: bad request")
				continue
			}
			wbuf = wire.AppendUint32(wbuf[:0], uint32(len(keys)))
			if s.fol != nil {
				bad := false
				for _, k := range keys {
					tid, found, lerr := s.fol.Lookup(k)
					if lerr != nil {
						writeErr(bw, lerr.Error())
						bad = true
						break
					}
					wbuf = appendBatchHit(wbuf, found, tid)
				}
				if bad {
					continue
				}
			} else {
				if cap(tids) < len(keys) {
					tids = make([]hot.TID, len(keys))
				}
				found := s.tree.LookupBatch(keys, tids[:len(keys)])
				for i := range keys {
					wbuf = appendBatchHit(wbuf, found[i], tids[i])
				}
			}
			wire.WriteFrame(bw, wire.RepBatch, wbuf)

		case wire.OpFlush:
			if s.fol != nil {
				writeErr(bw, "follower is read-only")
				continue
			}
			// The acknowledgement: every write this connection sent before
			// the FLUSH is applied and, on a durable server, on disk.
			applied, rejected := s.tree.Flush()
			wbuf = wire.AppendUint64(wbuf[:0], applied)
			wbuf = wire.AppendUint64(wbuf, rejected)
			wire.WriteFrame(bw, wire.RepFlushed, wbuf)

		case wire.OpStats:
			wire.WriteFrame(bw, wire.RepStats, wire.MarshalStats(s.Stats()))

		case wire.OpRepl, wire.OpReplResume:
			if s.fol != nil || !s.tree.Durable() {
				writeErr(bw, "replication needs a durable leader")
				return
			}
			var applied []uint64
			if op == wire.OpReplResume {
				var ok bool
				if applied, ok = wire.Resume(body); !ok {
					writeErr(bw, "RESUME: bad LSN vector")
					return
				}
			}
			if err := bw.Flush(); err != nil {
				return
			}
			// The session writes through its own buffer straight to the
			// transport (via the deadline wrapper, so a wedged consumer
			// trips the write timeout and frees the checkpoint lock); this
			// handler's reply buffer is out of the loop from here on. The
			// idle read deadline is off: a replication peer sends nothing,
			// and the dead-detector read below must block indefinitely.
			// Run ends when the peer hangs up or the server stops.
			d.repl = true
			var sess *hot.ReplicationSession
			var serr error
			if op == wire.OpReplResume {
				var resumed bool
				sess, resumed, serr = s.tree.NewReplicationSessionFrom(d, applied)
				if serr == nil {
					if resumed {
						s.resumeSessions.Add(1)
					} else {
						s.fullResyncs.Add(1)
					}
				}
			} else {
				sess, serr = s.tree.NewReplicationSession(d)
			}
			if serr != nil {
				writeErr(bw, serr.Error())
				return
			}
			// The peer sends nothing after REPL, so a blocking read completes
			// only when the connection dies. An idle tail writes nothing and
			// would never notice the hang-up on its own — while holding the
			// store's checkpoint lock — so fold connection death into the
			// session's stop signal.
			dead := make(chan struct{})
			go func() {
				defer close(dead)
				var b [1]byte
				for {
					if _, rerr := br.Read(b[:]); rerr != nil {
						return
					}
				}
			}()
			stop := make(chan struct{})
			go func() {
				defer close(stop)
				select {
				case <-s.stop:
				case <-dead:
				}
			}()
			sess.Run(stop)
			sess.Close()
			return

		default:
			writeErr(bw, fmt.Sprintf("unknown opcode %#x", op))
			return
		}
	}
}

func appendBatchHit(b []byte, found bool, tid hot.TID) []byte {
	if found {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	return wire.AppendUint64(b, tid)
}

// serverRows are the server's own STATS rows, after the store's: a
// follower's replication feed (on a leader every shard is ready and the
// feed's rows read 0), then the connections, then the tuple table.
// TestServerRowsCoverEveryCounter fails when a counter of Server, Follower
// or ReplicaClient has no row.
var serverRows = [...]wire.Row[*Server]{
	{Name: "ready", Unit: "shards", Gauge: true, Read: role(func(s *Server) uint64 { return uint64(s.tree.Shards()) },
		func(rc *hot.ReplicaClient) uint64 { return uint64(rc.Follower().Ready()) })},
	{Name: "follower", Unit: "bool", Gauge: true, Read: func(s *Server) uint64 { return wire.Flag(s.fol != nil) }},
	{Name: "tail_records", Unit: "records", Read: role(zero, func(rc *hot.ReplicaClient) uint64 { return rc.Follower().TailRecords() })},
	{Name: "bootstraps", Unit: "count", Read: role(zero, func(rc *hot.ReplicaClient) uint64 { return rc.Follower().Bootstraps() })},
	{Name: "reconnects", Unit: "conns", Read: role(zero, (*hot.ReplicaClient).Reconnects)},
	{Name: "conns", Unit: "conns", Gauge: true, Read: func(s *Server) uint64 { return uint64(s.active.Load()) }},
	{Name: "rejected_conns", Unit: "conns", Read: func(s *Server) uint64 { return s.rejected.Load() }},
	{Name: "deadline_closes", Unit: "conns", Read: func(s *Server) uint64 { return s.deadlineCloses.Load() }},
	// A leader counts the sessions it resumed and the resume offers it
	// declined; a follower the sessions it consumed and its re-bootstraps.
	{Name: "resumes", Unit: "count", Read: role(func(s *Server) uint64 { return s.resumeSessions.Load() }, (*hot.ReplicaClient).Resumes)},
	{Name: "full_resyncs", Unit: "count", Read: role(func(s *Server) uint64 { return s.fullResyncs.Load() }, (*hot.ReplicaClient).FullResyncs)},
	// The tuple table, on both roles: its bound TIDs, and its arena chunks
	// plus slot array. Not part of the index's Memory().
	{Name: "keymap_keys", Unit: "keys", Gauge: true, Read: func(s *Server) uint64 { return uint64(s.km.Len()) }},
	{Name: "keymap_bytes", Unit: "bytes", Gauge: true, Read: func(s *Server) uint64 { return uint64(s.km.Bytes()) }},
}

// role reads a row from the leader, or on a follower from its feed.
func role(leader func(*Server) uint64, follower func(*hot.ReplicaClient) uint64) func(*Server) uint64 {
	return func(s *Server) uint64 {
		if s.rc != nil {
			return follower(s.rc)
		}
		return leader(s)
	}
}

func zero(*Server) uint64 { return 0 }

// Stats snapshots the server's rows: the store's (hot.ShardedTree.Stats,
// or the follower's), then serverRows. It is the reply STATS serves,
// available in-process (hot-server prints it at shutdown).
func (s *Server) Stats() wire.Stats {
	var st wire.Stats
	if s.fol != nil {
		st = s.fol.Stats()
	} else {
		st = s.tree.Stats()
	}
	return wire.AppendRows(st, serverRows[:], s)
}
