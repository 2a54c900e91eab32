package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"github.com/hotindex/hot/internal/hotclient"
	"github.com/hotindex/hot/internal/server"
	"github.com/hotindex/hot/internal/wire"
)

// served drives a durable hot-server in this process over loopback TCP:
// one hotclient.Client (closed loop, one request in flight) plus one raw
// connection for the pipelined-GET phase. Flush policy: the server fsyncs
// on every FLUSH barrier and, with GroupCommitDelay 0, on every write a
// single connection submits to an idle shard.
type served struct {
	ks   *keyset
	opts server.Options
	srv  *server.Server
	c    *hotclient.Client

	pipe net.Conn
	pr   *bufio.Reader
	pw   *bufio.Writer

	applied, rejected uint64 // FLUSH totals seen so far on this server instance
	keys              [][]byte
	tids              []uint64
	rbuf              []byte
}

// openServed starts a server on dir (fresh or existing) and connects.
func openServed(dir string, ks *keyset) (*served, error) {
	d := &served{ks: ks, keys: make([][]byte, batchSize), tids: make([]uint64, batchSize),
		opts: server.Options{Dir: dir, Shards: shardCount, Sample: ks.boundarySample()}}
	if err := d.open(); err != nil {
		return nil, err
	}
	return d, nil
}

func (d *served) open() error {
	srv, err := server.New(d.opts)
	if err != nil {
		return err
	}
	d.srv = srv
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		srv.Close()
		return err
	}
	if d.c, err = hotclient.Dial(addr); err != nil {
		srv.Close()
		return err
	}
	if d.pipe, err = net.Dial("tcp", addr); err != nil {
		d.c.Close()
		srv.Close()
		return err
	}
	d.pr = bufio.NewReaderSize(d.pipe, 64<<10)
	d.pw = bufio.NewWriterSize(d.pipe, 64<<10)
	d.applied, d.rejected = 0, 0
	return nil
}

func (d *served) close() error {
	d.c.Close()
	d.pipe.Close()
	return d.srv.Close()
}

// flush runs the FLUSH barrier and checks its totals: exactly want more
// writes applied since the previous barrier, none rejected.
func (d *served) flush(want int) bool {
	applied, rejected, err := d.c.Flush()
	ok := err == nil && applied == d.applied+uint64(want) && rejected == d.rejected
	if err == nil {
		d.applied, d.rejected = applied, rejected
	}
	return ok
}

func (d *served) insert(s *slice) int {
	bad, pending := 0, 0
	timed, name := s.timed("hotclient.Add+Flush")
	t0 := nanotime()
	for j, i := range s.idx {
		if d.c.Add(d.ks.keys[i], uint64(i)) != nil {
			bad++
		}
		pending++
		if pending == flushEvery || j == len(s.idx)-1 {
			if !d.flush(pending) {
				bad += pending
			}
			pending = 0
			if timed {
				s.done(j, name, t0)
				t0 = nanotime()
			}
		}
	}
	return bad
}

func (d *served) get(s *slice) int {
	bad := 0
	timed, name := s.timed("hotclient.Get")
	var t0 int64
	for j, i := range s.idx {
		if timed {
			t0 = nanotime()
		}
		tid, ok, err := d.c.Get(d.ks.keys[i])
		if timed {
			s.done(j, name, t0)
		}
		if err != nil || !ok || tid != uint64(i) {
			bad++
		}
	}
	return bad
}

func (d *served) getBatch(s *slice) int {
	bad := 0
	timed, name := s.timed("hotclient.GetBatch")
	var t0 int64
	for lo := 0; lo < len(s.idx); lo += batchSize {
		group := s.idx[lo:min(lo+batchSize, len(s.idx))]
		for j, i := range group {
			d.keys[j] = d.ks.keys[i]
		}
		if timed {
			t0 = nanotime()
		}
		found, err := d.c.GetBatch(d.keys[:len(group)], d.tids)
		if timed {
			s.done(lo, name, t0)
		}
		if err != nil {
			bad += len(group)
			continue
		}
		for j, i := range group {
			if !found[j] || d.tids[j] != uint64(i) {
				bad++
			}
		}
	}
	return bad
}

// getPipe sends GETs as raw wire frames, pipeWindow at a time, and reads
// the window's replies back: the server sees a burst it may batch, the
// client pays one write and one read syscall per window.
func (d *served) getPipe(s *slice) int {
	bad := 0
	timed, name := s.timed("wire.GET*64")
	var t0 int64
	for lo := 0; lo < len(s.idx); lo += pipeWindow {
		window := s.idx[lo:min(lo+pipeWindow, len(s.idx))]
		if timed {
			t0 = nanotime()
		}
		for _, i := range window {
			if wire.WriteFrame(d.pw, wire.OpGet, d.ks.keys[i]) != nil {
				bad++
			}
		}
		if d.pw.Flush() != nil {
			return len(s.idx)
		}
		for _, i := range window {
			op, body, err := wire.ReadFrame(d.pr, d.rbuf)
			if err != nil {
				return len(s.idx)
			}
			d.rbuf = body
			if tid, _, ok := wire.Uint64(body); op != wire.RepValue || !ok || tid != uint64(i) {
				bad++
			}
		}
		if timed {
			s.done(lo, name, t0)
		}
	}
	return bad
}

func (d *served) scan(s *slice) int {
	bad := 0
	timed, name := s.timed("hotclient.Scan")
	var t0 int64
	for j, i := range s.idx {
		want := d.ks.wantScan(i)
		if timed {
			t0 = nanotime()
		}
		got, err := d.c.Scan(d.ks.keys[i], scanLen)
		if timed {
			s.done(j, name, t0)
		}
		ok := err == nil && len(got) == len(want)
		for k := 0; ok && k < len(got); k++ {
			ok = got[k].TID == uint64(want[k]) && bytes.Equal(got[k].Key, d.ks.keys[want[k]])
		}
		if !ok {
			bad++
		}
	}
	return bad
}

// set is one acknowledged durable write: SET, then the FLUSH barrier.
func (d *served) set(i uint32) bool {
	return d.c.Set(d.ks.keys[i], uint64(i)) == nil && d.flush(1)
}

func (d *served) mixed(s *slice) int {
	bad := 0
	timed, rname := s.timed("hotclient.Get")
	_, wname := s.timed("hotclient.Set+Flush")
	var t0 int64
	for j, v := range s.idx {
		i := v &^ writeBit
		if timed {
			t0 = nanotime()
		}
		if v&writeBit != 0 {
			ok := d.set(i)
			if timed {
				s.done(j, wname, t0)
			}
			if !ok {
				bad++
			}
			continue
		}
		tid, ok, err := d.c.Get(d.ks.keys[i])
		if timed {
			s.done(j, rname, t0)
		}
		if err != nil || !ok || tid != uint64(i) {
			bad++
		}
	}
	return bad
}

func (d *served) put(s *slice) int {
	bad := 0
	timed, name := s.timed("hotclient.Set+Flush")
	var t0 int64
	for j, i := range s.idx {
		if timed {
			t0 = nanotime()
		}
		ok := d.set(i)
		if timed {
			s.done(j, name, t0)
		}
		if !ok {
			bad++
		}
	}
	return bad
}

// checkpointStall runs one Tree().Checkpoint() while this goroutine keeps
// putting, and returns the worst put-acknowledgement latency seen while the
// checkpoint ran, and the puts made and failed. The checkpoint caller and
// the put loop are the run's two load goroutines.
func (d *served) checkpointStall(st *stream) (stall time.Duration, puts, bad int, err error) {
	done := make(chan struct{})
	go func() {
		err = d.srv.Tree().Checkpoint()
		close(done)
	}()
	var one [1]uint32
	for running := true; running; {
		st.fill(one[:])
		t0 := time.Now()
		ok := d.set(one[0])
		lat := time.Since(t0)
		select {
		case <-done:
			running = false
		default:
		}
		puts++
		if !ok {
			bad++
		}
		if lat > stall {
			stall = lat
		}
	}
	return stall, puts, bad, err
}

// reopen closes the server and its connections and times server.New on
// the same directory until the first GET is answered.
func (d *served) reopen() (time.Duration, error) {
	if err := d.close(); err != nil {
		return 0, err
	}
	d.opts.Sample = nil // the recovered manifest carries the boundaries
	t0 := time.Now()
	if err := d.open(); err != nil {
		return 0, err
	}
	if tid, ok, err := d.c.Get(d.ks.keys[0]); err != nil || !ok || tid != 0 {
		return 0, fmt.Errorf("first GET after reopen: tid %d found %v err %v", tid, ok, err)
	}
	return time.Since(t0), nil
}

func dirBytes(dir string) (int64, error) {
	var total int64
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	for _, e := range ents {
		fi, err := os.Stat(filepath.Join(dir, e.Name()))
		if err != nil {
			return 0, err
		}
		if fi.Mode().IsRegular() {
			total += fi.Size()
		}
	}
	return total, nil
}
