package server

// Network-chaos e2e suite (`make net-chaos`): the leader, the follower's
// reconnecting replication client, and the retrying request clients are
// driven through a fault-injecting TCP proxy (internal/chaos) and through
// deliberately wedged in-memory connections. Every test name starts with
// TestNetChaos so the Makefile tier can select the suite with -run.

import (
	"context"
	"math/rand"
	"net"
	"testing"
	"time"

	hot "github.com/hotindex/hot"
	"github.com/hotindex/hot/internal/chaos"
	"github.com/hotindex/hot/internal/hotclient"
	"github.com/hotindex/hot/internal/wire"
)

// newChaosFollower builds a follower server that reaches its leader
// through addr (normally a chaos proxy) with test-friendly fast reconnect.
func newChaosFollower(t *testing.T, addr string) *Server {
	t.Helper()
	fol, err := New(Options{
		Follow:       addr,
		DialTimeout:  2 * time.Second,
		ReconnectMin: 2 * time.Millisecond,
		ReconnectMax: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fol.Close() })
	return fol
}

// loadRange writes keys [from, to) with TID i+1 through the wire and runs
// the flush barrier, using a fresh connection (tests with aggressive idle
// timeouts would evict a long-lived one between phases).
func loadRange(t *testing.T, addr string, from, to int) {
	t.Helper()
	c, err := hotclient.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := from; i < to; i++ {
		if err := c.Set(testKey(i), uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := c.Flush(); err != nil {
		t.Fatal(err)
	}
}

func waitFollowerLen(t *testing.T, f *hot.Follower, want int) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		if f.Bootstrapped() && f.Len() == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at Len=%d (ready %d), want %d", f.Len(), f.Ready(), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestNetChaosPartitionHealResume is the tentpole scenario: a mid-tail
// partition heals and the follower catches up by LSN resume — zero full
// resyncs — while serving reads throughout. The leader runs a 300ms idle
// timeout the whole time, so the test also proves replication streams are
// exempt from idle eviction (a non-exempt stream would be killed during
// every quiet phase and the bootstrap counter would climb).
func TestNetChaosPartitionHealResume(t *testing.T) {
	const n = 500
	leader, err := New(Options{Shards: 4, Dir: t.TempDir(), IdleTimeout: 300 * time.Millisecond,
		Sample: func() (s [][]byte) {
			for i := 0; i < n; i++ {
				s = append(s, testKey(i))
			}
			return
		}()})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	laddr, err := leader.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	loadRange(t, laddr, 0, n)

	// Chunk the proxied stream into small fragments: bootstrap and tail
	// must survive arbitrary read boundaries.
	proxy, err := chaos.NewProxy(laddr, chaos.ProxyOptions{Chunk: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	fol := newChaosFollower(t, proxy.Addr())
	waitReady(t, fol, 4)
	rc := fol.Replica()

	// Tail before the fault: writes stream through the proxy.
	loadRange(t, laddr, n, n+200)
	waitFollowerLen(t, fol.Follower(), n+200)

	proxy.Partition()
	for deadline := time.Now().Add(10 * time.Second); rc.Connected(); {
		if time.Now().After(deadline) {
			t.Fatal("client never noticed the partition")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Reads keep working from the last replicated state while disconnected.
	if tid, found, lerr := fol.Follower().Lookup(testKey(123)); lerr != nil || !found || tid != 124 {
		t.Fatalf("read during partition = (%d, %v, %v)", tid, found, lerr)
	}

	// The leader moves on during the partition; these writes are exactly
	// what the resume must deliver.
	loadRange(t, laddr, n+200, n+400)

	proxy.Heal()
	waitFollowerLen(t, fol.Follower(), n+400)

	if got := rc.FullResyncs(); got != 0 {
		t.Fatalf("converged via %d full resyncs, want pure LSN resume", got)
	}
	if rc.Resumes() == 0 {
		t.Fatal("no resumed stream recorded")
	}
	if rc.Reconnects() == 0 {
		t.Fatal("no reconnect recorded")
	}
	if got := fol.Follower().Bootstraps(); got != 1 {
		t.Fatalf("follower bootstrapped %d times, want 1", got)
	}
	if err := fol.Follower().Verify(); err != nil {
		t.Fatal(err)
	}

	// The resilience counters travel the wire: STATS on the follower's own
	// listener reports the reconnect/resume history.
	faddr, err := fol.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fc, err := hotclient.Dial(faddr)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	st, err := fc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stat(t, st, "follower") == 0 || stat(t, st, "reconnects") == 0 || stat(t, st, "resumes") == 0 || stat(t, st, "full_resyncs") != 0 {
		t.Fatalf("follower STATS = %v, want reconnects>0 resumes>0 full_resyncs=0", st)
	}
}

// TestNetChaosCheckpointFallback partitions a follower, then checkpoints
// the leader so log rotation discards the follower's resume window. On
// heal the resume offer must be declined and the follower must converge
// through a clean full re-bootstrap.
func TestNetChaosCheckpointFallback(t *testing.T) {
	const n = 400
	leader, laddr := newLeader(t, true, 4, n)

	proxy, err := chaos.NewProxy(laddr, chaos.ProxyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	fol := newChaosFollower(t, proxy.Addr())
	waitReady(t, fol, 4)
	waitFollowerLen(t, fol.Follower(), n)

	proxy.Partition()
	loadRange(t, laddr, n, n+300)
	// Rotation moves every shard's log base past the follower's applied
	// frontier: the retention check must refuse the resume.
	if err := leader.Tree().Checkpoint(); err != nil {
		t.Fatal(err)
	}
	proxy.Heal()

	waitFollowerLen(t, fol.Follower(), n+300)
	if got := fol.Replica().FullResyncs(); got == 0 {
		t.Fatal("follower converged without a full resync across a rotation")
	}
	if got := fol.Follower().Bootstraps(); got < 2 {
		t.Fatalf("follower bootstrapped %d times, want ≥ 2", got)
	}
	if got := leader.fullResyncs.Load(); got == 0 {
		t.Fatal("leader never recorded the declined resume")
	}
	if err := fol.Follower().Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestNetChaosWedgedConsumerEviction wedges a replication consumer — it
// requests the stream and then never reads a byte — and requires the write
// timeout to evict it so the checkpoint lock it holds comes free. Without
// eviction, Checkpoint would block forever behind the dead session.
func TestNetChaosWedgedConsumerEviction(t *testing.T) {
	// No listener: the wedged consumer is driven straight through
	// ServeConn on an unbuffered pipe, and the data is loaded in-process.
	leader, err := New(Options{Shards: 4, Dir: t.TempDir(), WriteTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	for i := 0; i < 500; i++ {
		stable, err := leader.km.Bind(testKey(i), uint64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		leader.Tree().UpsertAsync(stable, uint64(i+1))
	}
	leader.Tree().Flush()

	client, srv := net.Pipe()
	defer client.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		leader.ServeConn(srv)
		srv.Close()
	}()

	if err := wire.WriteFrame(client, wire.OpRepl, nil); err != nil {
		t.Fatal(err)
	}
	// Read one byte so the session is provably live (holding the
	// checkpoint lock, mid-write) — then stop consuming. net.Pipe has no
	// buffer, so the session's next write blocks immediately.
	client.SetReadDeadline(time.Now().Add(5 * time.Second))
	var b [1]byte
	if _, err := client.Read(b[:]); err != nil {
		t.Fatal(err)
	}

	ckpt := make(chan error, 1)
	go func() { ckpt <- leader.Tree().Checkpoint() }()
	select {
	case err := <-ckpt:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Checkpoint starved by a wedged replication consumer")
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("wedged consumer's handler never exited")
	}
	if leader.deadlineCloses.Load() == 0 {
		t.Fatal("eviction not counted in deadlineCloses")
	}
}

// TestNetChaosReconnectStorm churns partitions across several followers
// while the leader keeps writing, then heals everything and requires every
// follower to converge and verify. Runs under -race in the net-chaos tier:
// the interesting failures here are ordering races between Feed teardown,
// reconnect, and concurrent reads.
func TestNetChaosReconnectStorm(t *testing.T) {
	const base = 300
	const extra = 400
	const followers = 5
	leader, laddr := newLeader(t, true, 4, base)

	type replica struct {
		proxy *chaos.Proxy
		km    *KeyMap
		rc    *hot.ReplicaClient
	}
	reps := make([]*replica, followers)
	for i := range reps {
		proxy, err := chaos.NewProxy(laddr, chaos.ProxyOptions{})
		if err != nil {
			t.Fatal(err)
		}
		km := &KeyMap{}
		bind := func(key []byte, tid hot.TID) error {
			_, err := km.Bind(key, tid)
			return err
		}
		rc := hot.NewReplicaClient(proxy.Addr(), km.Key, bind, hot.ReplicaOptions{
			DialTimeout: 2 * time.Second,
			ReadTimeout: 5 * time.Second,
			MinBackoff:  2 * time.Millisecond,
			MaxBackoff:  20 * time.Millisecond,
		})
		reps[i] = &replica{proxy: proxy, km: km, rc: rc}
		t.Cleanup(func() { rc.Close(); proxy.Close() })
	}

	// Writer: extend the keyspace through the wire while the storm rages.
	writerDone := make(chan error, 1)
	go func() {
		c, err := hotclient.Dial(laddr)
		if err != nil {
			writerDone <- err
			return
		}
		defer c.Close()
		for i := base; i < base+extra; i++ {
			if err := c.Set(testKey(i), uint64(i+1)); err != nil {
				writerDone <- err
				return
			}
			if i%50 == 0 {
				if _, _, err := c.Flush(); err != nil {
					writerDone <- err
					return
				}
				time.Sleep(time.Millisecond)
			}
		}
		_, _, err = c.Flush()
		writerDone <- err
	}()

	// Storm: seeded random partition/heal flips across the fleet.
	rng := rand.New(rand.NewSource(8))
	stormEnd := time.Now().Add(1200 * time.Millisecond)
	for time.Now().Before(stormEnd) {
		r := reps[rng.Intn(followers)]
		if r.proxy.Partitioned() {
			r.proxy.Heal()
		} else {
			r.proxy.Partition()
		}
		time.Sleep(time.Duration(5+rng.Intn(25)) * time.Millisecond)
	}
	for _, r := range reps {
		r.proxy.Heal()
	}
	if err := <-writerDone; err != nil {
		t.Fatalf("leader writer died mid-storm: %v", err)
	}

	want := leader.Tree().Len()
	for i, r := range reps {
		waitFollowerLen(t, r.rc.Follower(), want)
		if err := r.rc.Follower().Verify(); err != nil {
			t.Fatalf("follower %d after storm: %v", i, err)
		}
		t.Logf("follower %d: reconnects=%d resumes=%d fullResyncs=%d",
			i, r.rc.Reconnects(), r.rc.Resumes(), r.rc.FullResyncs())
	}
}

// TestNetChaosOverloadBusy fills the connection limit and requires the
// next client to get the typed busy rejection immediately — then a freed
// slot to become usable again.
func TestNetChaosOverloadBusy(t *testing.T) {
	s, err := New(Options{Shards: 2, MaxConns: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	c1, err := hotclient.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if err := c1.Set([]byte("a"), 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c1.Flush(); err != nil {
		t.Fatal(err)
	}
	c2, err := hotclient.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c2.Get([]byte("a")); err != nil {
		t.Fatal(err)
	}

	// Both slots taken: the third connection is told "busy", typed so the
	// client can tell overload from a protocol error.
	c3, err := hotclient.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = c3.Get([]byte("a"))
	c3.Close()
	if !hotclient.IsBusy(err) {
		t.Fatalf("over-limit op error = %v, want busy rejection", err)
	}

	st, err := c1.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if conns, rejected := stat(t, st, "conns"), stat(t, st, "rejected_conns"); rejected == 0 || conns != 2 {
		t.Fatalf("stats = conns %d rejected %d, want 2 and ≥1", conns, rejected)
	}

	// Freeing a slot re-admits new clients (the accept loop re-checks the
	// gauge, so poll briefly while the closed handler unwinds).
	c2.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c4, err := hotclient.Dial(addr)
		if err == nil {
			_, _, err = c4.Get([]byte("a"))
			c4.Close()
			if err == nil {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestNetChaosIdleEviction leaves a client silent past the idle timeout
// and requires the server to close it (and count the eviction). The round
// trips around the silence — the setup's SET and FLUSH, the STATS read —
// can themselves outlast the 100 ms window on a loaded host; an eviction
// there only adds to deadline_closes, so they redial (dialPastEvictions),
// and the count is checked against its value when the silence began.
func TestNetChaosIdleEviction(t *testing.T) {
	s, err := New(Options{Shards: 2, IdleTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	c := dialPastEvictions(t, s, addr, func(c *hotclient.Client) error {
		if err := c.Set([]byte("a"), 1); err != nil {
			return err
		}
		_, _, err := c.Flush()
		return err
	})
	defer c.Close()
	before := stat(t, s.Stats(), "deadline_closes")

	time.Sleep(500 * time.Millisecond)
	if _, _, err := c.Get([]byte("a")); err == nil {
		t.Fatal("connection survived 5× the idle timeout")
	}

	var st wire.Stats
	c2 := dialPastEvictions(t, s, addr, func(c *hotclient.Client) (err error) {
		st, err = c.Stats()
		return err
	})
	defer c2.Close()
	if stat(t, st, "deadline_closes") <= before {
		t.Fatal("idle eviction not counted")
	}
}

// dialPastEvictions dials addr and runs op's round trips on the new client,
// dialing again when op fails and s counted an idle eviction meanwhile —
// the host stalled past the idle timeout — and failing on any other error.
func dialPastEvictions(t *testing.T, s *Server, addr string, op func(*hotclient.Client) error) *hotclient.Client {
	t.Helper()
	for attempt := 1; ; attempt++ {
		closes := stat(t, s.Stats(), "deadline_closes")
		c, err := hotclient.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		if err = op(c); err == nil {
			return c
		}
		c.Close()
		if attempt == 10 || stat(t, s.Stats(), "deadline_closes") == closes {
			t.Fatalf("attempt %d: %v", attempt, err)
		}
	}
}

// TestNetChaosGracefulShutdown requires Shutdown to return promptly while
// connections sit idle-blocked in reads (the drain must wake them, not
// wait out their timeouts), and to refuse new work afterwards.
func TestNetChaosGracefulShutdown(t *testing.T) {
	s, addr := newLeader(t, false, 2, 50)

	c, err := hotclient.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, found, err := c.Get(testKey(3)); err != nil || !found {
		t.Fatalf("pre-shutdown Get = (%v, %v)", found, err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("drain of an idle connection took %v", d)
	}
	if _, err := hotclient.DialTimeout(addr, time.Second); err == nil {
		t.Fatal("listener still accepting after Shutdown")
	}
}
