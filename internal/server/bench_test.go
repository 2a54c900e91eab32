package server

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"github.com/hotindex/hot/internal/wire"
)

// requestStream is a run of encoded request frames; ends[i] is where frame
// i ends, so the stream can be cut after any whole frame.
type requestStream struct {
	buf  []byte
	ends []int
}

func (rs *requestStream) add(op byte, body []byte) {
	rs.buf = append(rs.buf, frame(op, body)...)
	rs.ends = append(rs.ends, len(rs.buf))
}

// serve runs one ServeConn over the first n frames of rs, replies into out.
func (rs *requestStream) serve(s *Server, n int, out io.Writer) {
	s.ServeConn(struct {
		io.Reader
		io.Writer
	}{bytes.NewReader(rs.buf[:rs.ends[n-1]]), out})
}

// benchURLs returns n distinct url-shaped keys of about 55 bytes.
func benchURLs(n int) [][]byte {
	r := rand.New(rand.NewSource(1))
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = fmt.Appendf(nil, "http://www.site%04d.example.org/articles/%08x/p%d.html", r.Intn(5000), r.Uint32(), i)
	}
	return keys
}

// BenchmarkServeConn is the server rung of the benchmark's ladder, runnable
// without the harness: ServeConn over a pre-filled in-memory request
// stream against an 8-shard in-memory server holding 50 k url keys,
// replies discarded. One op is one request — a GET, a BATCH of 32 GETs, or
// a SCAN of 50 entries, each for random keys.
func BenchmarkServeConn(b *testing.B) {
	const n, per = 50_000, 1024
	keys := benchURLs(n)
	s, err := New(Options{Shards: 8, Sample: keys})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	var load requestStream
	for i, k := range keys {
		load.add(wire.OpAdd, wire.AppendKeyTID(nil, k, uint64(i)))
	}
	load.add(wire.OpFlush, nil)
	load.serve(s, len(load.ends), io.Discard)
	if got := s.Tree().Len(); got != n {
		b.Fatalf("loaded %d keys, want %d", got, n)
	}

	r := rand.New(rand.NewSource(2))
	pick := func() []byte { return keys[r.Intn(n)] }
	batch := make([][]byte, 32)
	for _, bc := range []struct {
		name  string
		req   func() (byte, []byte)
		reply byte
	}{
		{"get", func() (byte, []byte) { return wire.OpGet, pick() }, wire.RepValue},
		{"batch32", func() (byte, []byte) {
			for j := range batch {
				batch[j] = pick()
			}
			return wire.OpBatch, wire.AppendBatchKeys(nil, batch)
		}, wire.RepBatch},
		{"scan50", func() (byte, []byte) { return wire.OpScan, wire.AppendScan(nil, pick(), 50) }, wire.RepEntries},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var rs requestStream
			for i := 0; i < per; i++ {
				rs.add(bc.req())
			}
			// Every request must draw its reply before any is timed.
			var out bytes.Buffer
			rs.serve(s, per, &out)
			for i := 0; i < per; i++ {
				if op, _, err := wire.ReadFrame(&out, nil); err != nil || op != bc.reply {
					b.Fatalf("reply %d: op %#x, err %v; want op %#x", i, op, err, bc.reply)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; {
				m := min(per, b.N-done)
				rs.serve(s, m, io.Discard)
				done += m
			}
		})
	}
}

var sinkKey []byte

// BenchmarkKeyMapKey is one tuple load — a served GET's final compare, one
// SCAN entry — for a random bound TID.
func BenchmarkKeyMapKey(b *testing.B) {
	for _, bc := range []struct {
		name string
		n    int
	}{{"50k", 50_000}, {"1M", 1_000_000}} {
		b.Run(bc.name, func(b *testing.B) {
			var km KeyMap
			for i := 0; i < bc.n; i++ {
				if _, err := km.Bind(fmt.Appendf(nil, "key-%012d", i), uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
			r := rand.New(rand.NewSource(3))
			tids := make([]uint64, 1<<16)
			for i := range tids {
				tids[i] = uint64(r.Intn(bc.n))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkKey = km.Key(tids[i&(len(tids)-1)], nil)
			}
		})
	}
}
