// hot-server serves a sharded HOT index over TCP (see the internal/wire
// package for the protocol and internal/server for the semantics).
//
//	hot-server -addr :7070 -shards 8                 # in-memory leader
//	hot-server -addr :7070 -dir /data/hot            # durable leader
//	hot-server -addr :7071 -follow leader:7070       # read-only follower
//	hot-server -smoke                                # self-contained smoke test
//
// A durable leader serves replication streams: a follower dials it,
// bootstraps from a streaming snapshot — opening each shard for reads as
// its section completes — and then tails the leader's write-ahead logs
// continuously.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/hotindex/hot/internal/hotclient"
	"github.com/hotindex/hot/internal/server"
	"github.com/hotindex/hot/internal/wire"
)

func main() {
	addr := flag.String("addr", ":7070", "listen address")
	shards := flag.Int("shards", 8, "shard count for a fresh index")
	dir := flag.String("dir", "", "durable directory (empty: in-memory)")
	commitDelay := flag.Duration("commit-delay", 0, "group-commit fsync accumulation window")
	follow := flag.String("follow", "", "leader address to follow (read-only replica mode)")
	maxConns := flag.Int("max-conns", 0, "connection limit; accepts past it get a typed busy rejection (0 = unlimited)")
	idleTimeout := flag.Duration("idle-timeout", 0, "close connections idle past this (0 = 5m default, negative disables; never applies to replication streams)")
	writeTimeout := flag.Duration("write-timeout", 0, "per-write deadline; evicts wedged consumers (0 = 30s default, negative disables)")
	dialTimeout := flag.Duration("dial-timeout", 0, "follower's per-attempt bound on dialing its leader (0 = 10s default)")
	memBudget := flag.Int64("mem-budget", 0, "resident-trie byte budget; past it cold shards are served from disk through a page cache (0 = unbounded; requires -dir)")
	cacheBytes := flag.Int64("cache-bytes", 0, "cold tier's page cache bound, in stored block bytes (0 = mem-budget/8, floored at 8 MiB)")
	smoke := flag.Bool("smoke", false, "run a self-contained leader+client+follower smoke test and exit")
	flag.Parse()

	if *smoke {
		if err := runSmoke(); err != nil {
			fmt.Fprintln(os.Stderr, "smoke: FAIL:", err)
			os.Exit(1)
		}
		fmt.Println("smoke: ok")
		return
	}

	s, err := server.New(server.Options{
		Shards:           *shards,
		Dir:              *dir,
		GroupCommitDelay: *commitDelay,
		Follow:           *follow,
		MaxConns:         *maxConns,
		IdleTimeout:      *idleTimeout,
		WriteTimeout:     *writeTimeout,
		DialTimeout:      *dialTimeout,
		MemoryBudget:     *memBudget,
		CacheBytes:       *cacheBytes,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "hot-server:", err)
		os.Exit(1)
	}
	bound, err := s.Listen(*addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hot-server:", err)
		os.Exit(1)
	}
	mode := "in-memory leader"
	if *dir != "" {
		mode = "durable leader (" + *dir + ")"
	}
	if *follow != "" {
		mode = "follower of " + *follow
	}
	fmt.Printf("hot-server: %s listening on %s\n", mode, bound)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println(shutdownLine(s.Stats()))
	// Drain gracefully, but never hang a shutdown longer than 30s.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "hot-server: close:", err)
		os.Exit(1)
	}
}

// shutdownLine is what hot-server prints as it stops: every STATS row.
func shutdownLine(st wire.Stats) string {
	return "hot-server: shutting down (" + st.String() + ")"
}

// runSmoke exercises the full networked stack in one process: a durable
// leader on a loopback port, a client doing pipelined writes + reads +
// scans + a flush barrier, then a follower bootstrapping over real TCP and
// serving the same reads. It is the CI gate for the server path (`make
// server-smoke`).
func runSmoke() error {
	dir, err := os.MkdirTemp("", "hot-smoke-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	leader, err := server.New(server.Options{Shards: 4, Dir: dir})
	if err != nil {
		return fmt.Errorf("leader: %w", err)
	}
	defer leader.Close()
	laddr, err := leader.Listen("127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("leader listen: %w", err)
	}

	c, err := hotclient.DialTimeout(laddr, 5*time.Second)
	if err != nil {
		return fmt.Errorf("dial: %w", err)
	}
	defer c.Close()

	const n = 1000
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%05d", i)) }
	for i := 0; i < n; i++ {
		if err := c.Set(key(i), uint64(i+1)); err != nil {
			return fmt.Errorf("set: %w", err)
		}
	}
	if _, _, err := c.Flush(); err != nil {
		return fmt.Errorf("flush: %w", err)
	}
	for _, i := range []int{0, 1, n / 2, n - 1} {
		tid, found, err := c.Get(key(i))
		if err != nil || !found || tid != uint64(i+1) {
			return fmt.Errorf("get %q = (%d, %v, %v), want (%d, true, nil)", key(i), tid, found, err, i+1)
		}
	}
	entries, err := c.Scan(key(10), 5)
	if err != nil || len(entries) != 5 || !bytes.Equal(entries[0].Key, key(10)) {
		return fmt.Errorf("scan from %q returned %d entries (err %v), want 5 from that key", key(10), len(entries), err)
	}
	// STATS rows are read by name: an absent one fails the smoke.
	st, err := c.Stats()
	keys, ok1 := st.Get("len")
	durable, ok2 := st.Get("durable")
	logBytes, ok3 := st.Get("log_bytes")
	if err != nil || !ok1 || !ok2 || !ok3 || keys != n || durable != 1 || logBytes == 0 {
		return fmt.Errorf("leader stats = %v (err %v), want len=%d durable=true log_bytes>0", st, err, n)
	}

	fol, err := server.New(server.Options{Follow: laddr})
	if err != nil {
		return fmt.Errorf("follower: %w", err)
	}
	defer fol.Close()
	deadline := time.Now().Add(10 * time.Second)
	for fol.Follower().Ready() < 4 {
		if err := fol.FeedErr(); err != nil {
			return fmt.Errorf("follower feed: %w", err)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("follower bootstrap timed out at %d/4 shards", fol.Follower().Ready())
		}
		time.Sleep(time.Millisecond)
	}
	if err := fol.Follower().Verify(); err != nil {
		return fmt.Errorf("follower verify: %w", err)
	}
	if got := fol.Follower().Len(); got != n {
		return fmt.Errorf("follower holds %d keys, want %d", got, n)
	}
	faddr, err := fol.Listen("127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("follower listen: %w", err)
	}
	fc, err := hotclient.Dial(faddr)
	if err != nil {
		return fmt.Errorf("dial follower: %w", err)
	}
	defer fc.Close()
	tid, found, err := fc.Get(key(42))
	if err != nil || !found || tid != 43 {
		return fmt.Errorf("follower get = (%d, %v, %v), want (43, true, nil)", tid, found, err)
	}
	st, err = fc.Stats()
	follower, ok1 := st.Get("follower")
	ready, ok2 := st.Get("ready")
	if err != nil || !ok1 || !ok2 || follower != 1 || ready != 4 {
		return fmt.Errorf("follower stats = %v (err %v), want follower=true ready=4", st, err)
	}
	return nil
}
