package hotclient_test

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/hotindex/hot/internal/hotclient"
	"github.com/hotindex/hot/internal/server"
)

func newTestServer(t *testing.T) (*server.Server, string) {
	t.Helper()
	s, err := server.New(server.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, addr
}

func TestPoolBasic(t *testing.T) {
	_, addr := newTestServer(t)
	p := hotclient.NewPool(addr, hotclient.PoolOptions{Conns: 3, OpTimeout: 5 * time.Second})
	defer p.Close()

	const n = 200
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += 4 {
				key := fmt.Appendf(nil, "key-%04d", i)
				if err := p.Set(key, uint64(i)+1); err != nil {
					t.Errorf("Set %s: %v", key, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	for i := 0; i < n; i++ {
		key := fmt.Appendf(nil, "key-%04d", i)
		tid, found, err := p.Get(key)
		if err != nil || !found || tid != uint64(i)+1 {
			t.Fatalf("Get %s = (%d, %v, %v), want (%d, true, nil)", key, tid, found, err, i+1)
		}
	}

	// Add on an existing key is rejected (visible via the unchanged value),
	// and Add on a fresh key lands.
	if err := p.Add([]byte("key-0000"), 999); err != nil {
		t.Fatal(err)
	}
	if tid, _, _ := p.Get([]byte("key-0000")); tid != 1 {
		t.Fatalf("duplicate Add overwrote: tid = %d, want 1", tid)
	}
	if err := p.Add([]byte("fresh"), 4242); err != nil {
		t.Fatal(err)
	}
	if tid, found, _ := p.Get([]byte("fresh")); !found || tid != 4242 {
		t.Fatalf("fresh Add missing: (%d, %v)", tid, found)
	}

	if err := p.Del([]byte("key-0000")); err != nil {
		t.Fatal(err)
	}
	if _, found, _ := p.Get([]byte("key-0000")); found {
		t.Fatal("deleted key still found")
	}

	ents, err := p.Scan([]byte("key-"), 10)
	if err != nil || len(ents) != 10 {
		t.Fatalf("Scan = (%d entries, %v)", len(ents), err)
	}

	keys := [][]byte{[]byte("key-0001"), []byte("key-0000")}
	out := make([]uint64, 2)
	found, err := p.GetBatch(keys, out)
	if err != nil || !found[0] || found[1] {
		t.Fatalf("GetBatch = (%v, %v)", found, err)
	}

	st, err := p.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if n, ok := st.Get("len"); !ok || n == 0 {
		t.Fatalf("Stats len = (%d, %v) after load, want a nonzero row", n, ok)
	}
	if p.Retries() != 0 {
		t.Fatalf("healthy pool made %d retries", p.Retries())
	}
}

// flakyListener accepts connections, immediately closing the first `drop`
// of them to simulate transport failures, and serving the rest normally.
func flakyListener(t *testing.T, s *server.Server, drop int) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		n := 0
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			n++
			if n <= drop {
				conn.Close()
				continue
			}
			go func() {
				defer conn.Close()
				s.ServeConn(conn)
			}()
		}
	}()
	return ln.Addr().String()
}

func TestPoolRetriesIdempotentOps(t *testing.T) {
	s, err := server.New(server.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	addr := flakyListener(t, s, 2)

	p := hotclient.NewPool(addr, hotclient.PoolOptions{
		Conns: 1, Retries: 3, RetryBackoff: time.Millisecond,
	})
	defer p.Close()

	// The first two dials land on connections the listener kills; the
	// retry loop must dial fresh ones and succeed.
	if err := p.Set([]byte("k"), 7); err != nil {
		t.Fatalf("Set through flaky transport: %v", err)
	}
	tid, found, err := p.Get([]byte("k"))
	if err != nil || !found || tid != 7 {
		t.Fatalf("Get = (%d, %v, %v)", tid, found, err)
	}
	if p.Retries() == 0 {
		t.Fatal("expected transport retries, counter is 0")
	}
}

func TestPoolDoesNotRetryAdd(t *testing.T) {
	s, err := server.New(server.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	addr := flakyListener(t, s, 1)

	p := hotclient.NewPool(addr, hotclient.PoolOptions{
		Conns: 1, Retries: 3, RetryBackoff: time.Millisecond,
	})
	defer p.Close()

	// The first connection dies mid-op: ADD must surface the transport
	// error rather than retry (a retried ADD can misreport a win as a
	// duplicate rejection).
	if err := p.Add([]byte("k"), 1); err == nil {
		t.Fatal("Add over severed connection returned nil error")
	}
	if p.Retries() != 0 {
		t.Fatalf("Add was retried %d times", p.Retries())
	}

	// The pool recovers: the next op dials a fresh conn.
	if err := p.Add([]byte("k"), 1); err != nil {
		t.Fatalf("Add after recovery: %v", err)
	}
}

func TestPoolServerErrorNotRetried(t *testing.T) {
	_, addr := newTestServer(t)
	p := hotclient.NewPool(addr, hotclient.PoolOptions{Conns: 1, RetryBackoff: time.Millisecond})
	defer p.Close()

	// An empty key draws an ERR reply: a ServerError, returned as-is with
	// no retry, and the connection stays usable.
	_, _, err := p.Get(nil)
	var se *hotclient.ServerError
	if !errors.As(err, &se) {
		t.Fatalf("Get(nil) error = %v, want *ServerError", err)
	}
	if p.Retries() != 0 {
		t.Fatalf("ServerError drew %d retries", p.Retries())
	}
	if err := p.Set([]byte("ok"), 1); err != nil {
		t.Fatalf("connection unusable after ServerError: %v", err)
	}
}

func TestIsBusy(t *testing.T) {
	busy := &hotclient.ServerError{Msg: server.BusyPrefix + "connection limit 2 reached"}
	if !hotclient.IsBusy(busy) {
		t.Fatal("IsBusy(busy rejection) = false")
	}
	if hotclient.IsBusy(&hotclient.ServerError{Msg: "GET: bad key"}) {
		t.Fatal("IsBusy(ordinary ERR) = true")
	}
	if hotclient.IsBusy(errors.New("dial tcp: timeout")) {
		t.Fatal("IsBusy(transport error) = true")
	}
}

func TestDialTimeoutFailsFast(t *testing.T) {
	// A listener that never accepts doesn't model connect timeouts well on
	// loopback; an unroutable port refused immediately still proves the
	// plumbing, and a tiny timeout bounds the worst case.
	start := time.Now()
	_, err := hotclient.DialTimeout("10.255.255.1:9", 50*time.Millisecond)
	if err == nil {
		t.Skip("unexpectedly connected")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("DialTimeout took %v with a 50ms budget", d)
	}
}
