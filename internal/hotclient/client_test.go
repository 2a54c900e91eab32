package hotclient

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"testing"

	"github.com/hotindex/hot/internal/server"
	"github.com/hotindex/hot/internal/wire"
)

// replyConn is a transport whose peer answers with fixed bytes: reads come
// from the reply, writes are dropped.
type replyConn struct{ io.Reader }

func (replyConn) Write(p []byte) (int, error) { return len(p), nil }
func (replyConn) Close() error                { return nil }

func replyFrame(op byte, body []byte) []byte {
	var b bytes.Buffer
	wire.WriteFrame(&b, op, body)
	return b.Bytes()
}

func appendEntry(b []byte, tid uint64, key string) []byte {
	b = wire.AppendUint64(b, tid)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(key)))
	return append(b, key...)
}

func heapAllocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// FuzzClientReply answers Get, Scan, GetBatch, Flush and Stats with
// arbitrary bytes: truncated frames, hostile lengths and counts, wrong
// opcodes, malformed STATS objects. Each call returns an error or a
// well-formed result, never panics, and never allocates more than a small
// multiple of the reply's size — a count read off the wire must not size
// an allocation the reply cannot back.
func FuzzClientReply(f *testing.F) {
	srv, err := server.New(server.Options{Shards: 2})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(replyFrame(wire.RepStats, wire.MarshalStats(srv.Stats())))
	srv.Close()
	f.Add(replyFrame(wire.RepStats, []byte(`{}`)))
	f.Add(replyFrame(wire.RepStats, []byte(`{"len":1,"durable":tr`)))
	f.Add(replyFrame(wire.RepStats, []byte(`[1,2]`)))
	f.Add(replyFrame(wire.RepStats, []byte(`{"len":1,"len":2}`)))
	f.Add(replyFrame(wire.RepStats, []byte(`{"len":1180591620717411303424}`)))
	entries := appendEntry(appendEntry(wire.AppendUint32(nil, 2), 7, "alpha"), 8, "beta")
	f.Add(replyFrame(wire.RepValue, wire.AppendUint64(nil, 42)))
	f.Add(replyFrame(wire.RepMissing, nil))
	f.Add(replyFrame(wire.RepEntries, entries))
	f.Add(replyFrame(wire.RepEntries, wire.AppendUint32(nil, 0xffffffff)))
	f.Add(replyFrame(wire.RepEntries, append(wire.AppendUint32(nil, 1000), 0, 0, 0, 0)))
	f.Add(replyFrame(wire.RepBatch, wire.AppendUint64(append(wire.AppendUint64(append(wire.AppendUint32(nil, 2), 1), 5), 0), 0)))
	f.Add(replyFrame(wire.RepFlushed, wire.AppendUint64(wire.AppendUint64(nil, 3), 1)))
	f.Add(replyFrame(wire.RepErr, []byte("busy: connection limit 2 reached")))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, wire.RepEntries}) // hostile frame length

	keys := [][]byte{[]byte("alpha"), []byte("beta")}
	// Every client reads its frame into this one buffer, so ReadFrame
	// allocates nothing and what is measured is the reply's decoding.
	frameBuf := make([]byte, 0, wire.MaxFrame)
	f.Fuzz(func(t *testing.T, reply []byte) {
		var ents []Entry
		var found []bool
		var st wire.Stats
		var err error
		calls := []struct {
			name string
			do   func(c *Client)
		}{
			{"Get", func(c *Client) { _, _, err = c.Get(keys[0]) }},
			{"Scan", func(c *Client) { ents, err = c.Scan(keys[0], 10) }},
			{"GetBatch", func(c *Client) { found, err = c.GetBatch(keys, make([]uint64, len(keys))) }},
			{"Flush", func(c *Client) { _, _, err = c.Flush() }},
			{"Stats", func(c *Client) { st, err = c.Stats() }},
		}
		for _, call := range calls {
			// The allocation counter is process-wide, and the fuzzing engine
			// allocates beside the call now and then; an allocation the
			// reply provokes repeats, so the least of three tries counts.
			least := ^uint64(0)
			for try := 0; try < 3 && least > uint64(8*len(reply)+4096); try++ {
				c := New(replyConn{bytes.NewReader(reply)})
				c.rbuf = frameBuf
				c.wbuf = make([]byte, 0, 64)
				ents, found, st, err = nil, nil, nil, nil
				before := heapAllocated()
				call.do(c)
				least = min(least, heapAllocated()-before)
			}
			if least > uint64(8*len(reply)+4096) {
				t.Fatalf("%s allocated %d bytes for a %d-byte reply", call.name, least, len(reply))
			}
			if err != nil {
				continue
			}
			switch call.name {
			case "Scan":
				size := 0
				want := make([]string, len(ents))
				for i, e := range ents {
					size += 10 + len(e.Key)
					want[i] = string(e.Key)
				}
				if size > len(reply) {
					t.Fatalf("Scan decoded %d entries (%d bytes) from a %d-byte reply", len(ents), size, len(reply))
				}
				for _, e := range ents {
					_ = append(e.Key, 0xaa)
				}
				for i, e := range ents {
					if string(e.Key) != want[i] {
						t.Fatalf("appending to Scan keys changed entry %d from %q to %q", i, want[i], e.Key)
					}
				}
			case "GetBatch":
				if len(found) != len(keys) {
					t.Fatalf("GetBatch returned %d flags for %d keys", len(found), len(keys))
				}
			case "Stats":
				again, err := wire.UnmarshalStats(wire.MarshalStats(st))
				if err != nil || len(st) > wire.MaxStats || !reflect.DeepEqual(again, st) {
					t.Fatalf("Stats decoded %v, which re-encodes to %v (err %v)", st, again, err)
				}
			}
		}
	})
}

// TestScanResultsDoNotAlias: a Scan's keys share one buffer, but appending
// to one key leaves the next unchanged, and a later Scan on the same
// connection — which reuses the client's read buffer — leaves an earlier
// result unchanged.
func TestScanResultsDoNotAlias(t *testing.T) {
	s, err := server.New(server.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	key := func(i int) string { return fmt.Sprintf("key-%02d", i) }
	for i := 0; i < 20; i++ {
		if err := c.Set([]byte(key(i)), uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	first, err := c.Scan(nil, 10)
	if err != nil || len(first) != 10 {
		t.Fatalf("Scan = %d entries (err %v), want 10", len(first), err)
	}
	first[3].Key = append(first[3].Key, "-grown"...)
	if got := string(first[4].Key); got != key(4) {
		t.Fatalf("appending to entry 3 changed entry 4 to %q", got)
	}
	second, err := c.Scan([]byte(key(10)), 10)
	if err != nil || len(second) != 10 {
		t.Fatalf("second Scan = %d entries (err %v), want 10", len(second), err)
	}
	for i, e := range first {
		want := key(i)
		if i == 3 {
			want += "-grown"
		}
		if string(e.Key) != want || e.TID != uint64(i+1) {
			t.Fatalf("after a second Scan, first result's entry %d = (%q, %d), want (%q, %d)", i, e.Key, e.TID, want, i+1)
		}
	}
	for i, e := range second {
		if string(e.Key) != key(10+i) {
			t.Fatalf("second Scan entry %d = %q, want %q", i, e.Key, key(10+i))
		}
	}
}
