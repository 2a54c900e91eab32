package server

import (
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"github.com/hotindex/hot/internal/hotclient"
	"github.com/hotindex/hot/internal/wire"
)

func testKey(i int) []byte { return []byte(fmt.Sprintf("key-%05d", i)) }

// stat reads the STATS row named name; a reply without it fails the test.
func stat(t *testing.T, st wire.Stats, name string) uint64 {
	t.Helper()
	v, ok := st.Get(name)
	if !ok {
		t.Fatalf("STATS has no %q row: %v", name, st)
	}
	return v
}

func newLeader(t *testing.T, durable bool, shards, n int) (*Server, string) {
	t.Helper()
	opts := Options{Shards: shards}
	if durable {
		opts.Dir = t.TempDir()
	}
	if n > 0 {
		// Seed the shard boundaries with the keys the test will write, so
		// every shard actually holds data.
		for i := 0; i < n; i++ {
			opts.Sample = append(opts.Sample, testKey(i))
		}
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if n > 0 {
		c, err := hotclient.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for i := 0; i < n; i++ {
			if err := c.Set(testKey(i), uint64(i+1)); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	return s, addr
}

func TestServerRoundTrips(t *testing.T) {
	_, addr := newLeader(t, false, 4, 0)
	c, err := hotclient.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 500
	for i := 0; i < n; i++ {
		if err := c.Add(testKey(i), uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	applied, rejected, err := c.Flush()
	if err != nil || applied != n || rejected != 0 {
		t.Fatalf("Flush = (%d, %d, %v), want (%d, 0, nil)", applied, rejected, err, n)
	}

	tid, found, err := c.Get(testKey(7))
	if err != nil || !found || tid != 8 {
		t.Fatalf("Get = (%d, %v, %v), want (8, true, nil)", tid, found, err)
	}
	if _, found, err := c.Get([]byte("nope")); err != nil || found {
		t.Fatalf("Get(miss) = (%v, %v)", found, err)
	}

	// Upsert overwrites, delete removes, both acknowledged by the barrier.
	if err := c.Set(testKey(7), 700); err != nil {
		t.Fatal(err)
	}
	if err := c.Del(testKey(8)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if tid, _, _ := c.Get(testKey(7)); tid != 700 {
		t.Fatalf("after upsert: tid = %d, want 700", tid)
	}
	if _, found, _ := c.Get(testKey(8)); found {
		t.Fatal("deleted key still visible")
	}

	entries, err := c.Scan(testKey(100), 10)
	if err != nil || len(entries) != 10 {
		t.Fatalf("Scan = %d entries (err %v), want 10", len(entries), err)
	}
	for i, e := range entries {
		if string(e.Key) != string(testKey(100+i)) || e.TID != uint64(101+i) {
			t.Fatalf("scan entry %d = (%q, %d)", i, e.Key, e.TID)
		}
	}

	keys := [][]byte{testKey(1), []byte("absent"), testKey(3)}
	out := make([]uint64, len(keys))
	foundMask, err := c.GetBatch(keys, out)
	if err != nil || !foundMask[0] || foundMask[1] || !foundMask[2] || out[0] != 2 || out[2] != 4 {
		t.Fatalf("GetBatch = %v %v (err %v)", foundMask, out, err)
	}

	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stat(t, st, "len") != n-1 || stat(t, st, "shards") != 4 || stat(t, st, "ready") != 4 ||
		stat(t, st, "durable") != 0 || stat(t, st, "follower") != 0 {
		t.Fatalf("Stats = %v", st)
	}
}

// TestServerRejectsTIDRebinding: rebinding a live TID to a different key
// would poison the TID→key table the whole index resolves through, so the
// server must refuse and drop the connection (fire-and-forget writes have
// no reply slot for the error).
func TestServerRejectsTIDRebinding(t *testing.T) {
	_, addr := newLeader(t, false, 2, 0)
	c, err := hotclient.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Set([]byte("first"), 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := c.Set([]byte("second"), 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Flush(); err == nil {
		t.Fatal("rebinding TID 1 was not rejected")
	}
	// The connection is gone; a fresh one still serves the original binding.
	c2, err := hotclient.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if tid, found, err := c2.Get([]byte("first")); err != nil || !found || tid != 1 {
		t.Fatalf("binding damaged: (%d, %v, %v)", tid, found, err)
	}
}

func TestServerDurableRestartServesSameData(t *testing.T) {
	dir := t.TempDir()
	const n = 300
	open := func() (*Server, string) {
		s, err := New(Options{Shards: 4, Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		addr, err := s.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		return s, addr
	}
	s, addr := open()
	c, err := hotclient.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := c.Set(testKey(i), uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the KeyMap must rebuild purely from recovery (snapshot +
	// log replay both carry key and TID), with no side persistence.
	s2, addr2 := open()
	defer s2.Close()
	c2, err := hotclient.Dial(addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	for _, i := range []int{0, n / 3, n - 1} {
		tid, found, err := c2.Get(testKey(i))
		if err != nil || !found || tid != uint64(i+1) {
			t.Fatalf("after restart: Get(%d) = (%d, %v, %v)", i, tid, found, err)
		}
	}
	entries, err := c2.Scan(nil, n)
	if err != nil || len(entries) != n {
		t.Fatalf("after restart: scan %d entries (err %v), want %d", len(entries), err, n)
	}
}

func waitReady(t *testing.T, s *Server, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.Follower().Ready() < want {
		if err := s.FeedErr(); err != nil {
			t.Fatalf("replication feed died: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at %d/%d shards", s.Follower().Ready(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestServerFollowerBootstrapAndTail(t *testing.T) {
	const n = 1000
	_, laddr := newLeader(t, true, 4, n)

	fol, err := New(Options{Follow: laddr})
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()
	waitReady(t, fol, 4)
	if err := fol.Follower().Verify(); err != nil {
		t.Fatal(err)
	}
	if got := fol.Follower().Len(); got != n {
		t.Fatalf("follower Len = %d, want %d", got, n)
	}

	// The follower serves the wire protocol read-only.
	faddr, err := fol.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fc, err := hotclient.Dial(faddr)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	if tid, found, err := fc.Get(testKey(123)); err != nil || !found || tid != 124 {
		t.Fatalf("follower Get = (%d, %v, %v)", tid, found, err)
	}
	entries, err := fc.Scan(testKey(10), 3)
	if err != nil || len(entries) != 3 || string(entries[0].Key) != string(testKey(10)) {
		t.Fatalf("follower Scan = %v (err %v)", entries, err)
	}
	if _, _, err := fc.Flush(); err == nil {
		t.Fatal("follower accepted a FLUSH barrier")
	}

	// Writes on the leader after bootstrap arrive via the streaming tail.
	lc, err := hotclient.Dial(laddr)
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	if err := lc.Set([]byte("tail-key"), 99999); err != nil {
		t.Fatal(err)
	}
	if _, _, err := lc.Flush(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		tid, found, err := fol.Follower().Lookup([]byte("tail-key"))
		if err != nil {
			t.Fatal(err)
		}
		if found && tid == 99999 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("tail write never reached the follower")
		}
		time.Sleep(time.Millisecond)
	}
	if fol.Follower().TailRecords() == 0 {
		t.Fatal("TailRecords did not advance")
	}
}

// relay proxies one follower connection to the leader, forwarding the
// upstream direction untouched and cutting the downstream direction after
// budget bytes — a leader dying mid-stream, as observed by the follower.
func relay(t *testing.T, leaderAddr string, budget int64) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		down, err := ln.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", leaderAddr)
		if err != nil {
			down.Close()
			return
		}
		go io.Copy(up, down)
		io.CopyN(down, up, budget)
		up.Close()
		down.Close()
	}()
	return ln.Addr().String()
}

// TestServerFollowerLeaderDiesMidStream kills the leader's stream at
// increasing byte budgets over real TCP and checks the salvaged prefix
// contract end to end: the follower always survives with a Verify-clean
// prefix, the prefix never shrinks as the budget grows, and it steps
// through every intermediate shard count on its way to full bootstrap.
func TestServerFollowerLeaderDiesMidStream(t *testing.T) {
	const n, shards = 2000, 4
	leader, laddr := newLeader(t, true, shards, n)

	// Learn the full bootstrap size by counting one complete stream.
	probe, err := New(Options{Follow: laddr})
	if err != nil {
		t.Fatal(err)
	}
	waitReady(t, probe, shards)
	probe.Close()

	perShard := make([]int, shards)
	for i := 0; i < shards; i++ {
		perShard[i] = leader.Tree().ShardLen(i)
	}

	var budgets []int64
	for b := int64(256); b < 1<<22; b *= 2 {
		budgets = append(budgets, b)
	}
	lastReady := 0
	seen := map[int]bool{}
	for _, budget := range budgets {
		raddr := relay(t, laddr, budget)
		fol, err := New(Options{Follow: raddr})
		if err != nil {
			t.Fatal(err)
		}
		// Wait for the cut stream to run dry: the feed goroutine exits
		// when the relay closes the connection.
		deadline := time.Now().Add(10 * time.Second)
		for fol.FeedErr() == nil && fol.Follower().Ready() < shards {
			if time.Now().After(deadline) {
				t.Fatalf("budget %d: feed neither died nor completed", budget)
			}
			time.Sleep(time.Millisecond)
		}
		f := fol.Follower()
		ready := f.Ready()
		if ready < lastReady {
			t.Fatalf("budget %d: salvaged prefix shrank %d -> %d", budget, lastReady, ready)
		}
		lastReady = ready
		seen[ready] = true
		if err := f.Verify(); err != nil {
			t.Fatalf("budget %d: salvaged prefix corrupt: %v", budget, err)
		}
		wantLen := 0
		for i := 0; i < ready; i++ {
			wantLen += perShard[i]
		}
		if got := f.Len(); got != wantLen {
			t.Fatalf("budget %d: ready %d shards hold %d keys, want %d", budget, ready, got, wantLen)
		}
		fol.Close()
		if ready == shards {
			break
		}
	}
	if lastReady != shards {
		t.Fatalf("largest budget still incomplete: %d/%d shards", lastReady, shards)
	}
	// The sweep must actually exercise partial salvage, not just 0 and all.
	partial := false
	for r := range seen {
		if r > 0 && r < shards {
			partial = true
		}
	}
	if !partial {
		t.Fatalf("byte budgets %v never produced a partial prefix (saw %v); tighten the sweep", budgets, seen)
	}
}
