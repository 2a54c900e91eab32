package server

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync/atomic"
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

// boundKeyMap returns a KeyMap with TIDs [0, n) bound to 16-byte keys, and
// 64 Ki random bound TIDs to load.
func boundKeyMap(b *testing.B, n int) (*KeyMap, []uint64) {
	km := new(KeyMap)
	for i := 0; i < n; i++ {
		if _, err := km.Bind(fmt.Appendf(nil, "key-%012d", i), uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
	r := rand.New(rand.NewSource(3))
	tids := make([]uint64, 1<<16)
	for i := range tids {
		tids[i] = uint64(r.Intn(n))
	}
	return km, tids
}

// BenchmarkKeyMapKey is one tuple load — a served GET's final compare, one
// SCAN entry — for a random bound TID.
func BenchmarkKeyMapKey(b *testing.B) {
	for _, bc := range []struct {
		name string
		n    int
	}{{"50k", 50_000}, {"1M", 1_000_000}} {
		b.Run(bc.name, func(b *testing.B) {
			km, tids := boundKeyMap(b, bc.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkKey = km.Key(tids[i&(len(tids)-1)], nil)
			}
		})
	}
}

// BenchmarkKeyMapKeys is a SCAN's tuple loads: one Keys call resolving 50
// random bound TIDs out of 1M. ns/key divides by the 50.
func BenchmarkKeyMapKeys(b *testing.B) {
	b.Run("50", func(b *testing.B) {
		km, tids := boundKeyMap(b, 1_000_000)
		out := make([][]byte, 50)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lo := (i * 50) & (len(tids) - 1)
			km.Keys(tids[lo:min(lo+50, len(tids))], out)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(50*b.N), "ns/key")
	})
}

// BenchmarkKeyMapBind is one served SET's Bind of a fresh TID to a 55-byte
// key. The table starts over every 1M binds, so a run measures the growth
// it pays on the way there.
func BenchmarkKeyMapBind(b *testing.B) {
	const n = 1 << 20
	keys := benchURLs(1 << 16)
	km := new(KeyMap)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%n == 0 && i > 0 {
			km = new(KeyMap)
		}
		if _, err := km.Bind(keys[i&(len(keys)-1)], uint64(i%n)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKeyMapParallel runs 4 goroutines (RunParallel over GOMAXPROCS ×
// parallelism) against one table of 1M bound TIDs: each loads random bound
// TIDs and binds a fresh one every 64th op, so readers and the writer meet
// on the one lock.
func BenchmarkKeyMapParallel(b *testing.B) {
	km, tids := boundKeyMap(b, 1_000_000)
	keys := benchURLs(1 << 10)
	var fresh atomic.Uint64
	fresh.Store(1_000_000)
	b.SetParallelism(max(1, 4/runtime.GOMAXPROCS(0)))
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var sink int
		for i := 0; pb.Next(); i++ {
			if i%64 == 63 {
				tid := fresh.Add(1)
				if _, err := km.Bind(keys[tid&(uint64(len(keys))-1)], tid); err != nil {
					b.Error(err)
					return
				}
				continue
			}
			sink += len(km.Key(tids[i&(len(tids)-1)], nil))
		}
		sinkLen.Add(uint64(sink))
	})
}

var sinkLen atomic.Uint64
