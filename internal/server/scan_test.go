package server

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	hot "github.com/hotindex/hot"
	"github.com/hotindex/hot/internal/wire"
)

// scanEntry is one entry of a SCAN reply, or of the model's answer.
type scanEntry struct {
	key []byte
	tid uint64
}

// scanModel is the sorted-map model a SCAN reply must equal.
type scanModel map[string]uint64

// want is what SCAN(start, max) must return: the first max entries ≥
// start in key order, max capped at wire.MaxScan, cut after the last whole
// entry that fits one frame.
func (m scanModel) want(start []byte, max uint32) []scanEntry {
	keys := make([]string, 0, len(m))
	for k := range m {
		if k >= string(start) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var out []scanEntry
	size := 4
	for _, k := range keys {
		if len(out) == int(min(max, wire.MaxScan)) || size+10+len(k) > wire.MaxFrame {
			break
		}
		size += 10 + len(k)
		out = append(out, scanEntry{[]byte(k), m[k]})
	}
	return out
}

// serveOne runs one request through a fresh ServeConn and returns its one
// reply frame.
func serveOne(t *testing.T, s *Server, op byte, body []byte) (byte, []byte) {
	t.Helper()
	var rs requestStream
	rs.add(op, body)
	var out bytes.Buffer
	rs.serve(s, 1, &out)
	rop, rbody, err := wire.ReadFrame(&out, nil)
	if err != nil {
		t.Fatalf("reply to op %#x: %v", op, err)
	}
	return rop, rbody
}

// serveLoad writes (key, tid) with ADD, deletes dels, and flushes, on one
// connection.
func serveLoad(t *testing.T, s *Server, m scanModel, dels [][]byte) {
	t.Helper()
	var rs requestStream
	for k, tid := range m {
		rs.add(wire.OpAdd, wire.AppendKeyTID(nil, []byte(k), tid))
	}
	for _, k := range dels {
		rs.add(wire.OpDel, k)
	}
	rs.add(wire.OpFlush, nil)
	var out bytes.Buffer
	rs.serve(s, len(rs.ends), &out)
	if op, body, err := wire.ReadFrame(&out, nil); err != nil || op != wire.RepFlushed {
		t.Fatalf("load: reply op %#x %q (err %v), want FLUSHED", op, body, err)
	}
}

// checkScan sends SCAN(start, max) to s and compares the reply with the
// model's answer entry by entry.
func checkScan(t *testing.T, s *Server, m scanModel, start []byte, max uint32) {
	t.Helper()
	op, body := serveOne(t, s, wire.OpScan, wire.AppendScan(nil, start, max))
	if op != wire.RepEntries {
		t.Fatalf("SCAN(%.20q, %d): reply op %#x %q", start, max, op, body)
	}
	n, rest, ok := wire.Uint32(body)
	if !ok {
		t.Fatalf("SCAN(%.20q, %d): short reply", start, max)
	}
	var got []scanEntry
	for i := uint32(0); i < n; i++ {
		var tid uint64
		if tid, rest, ok = wire.Uint64(rest); !ok || len(rest) < 2 {
			t.Fatalf("SCAN(%.20q, %d): entry %d cut short", start, max, i)
		}
		klen := int(binary.LittleEndian.Uint16(rest))
		if len(rest) < 2+klen {
			t.Fatalf("SCAN(%.20q, %d): entry %d cut short", start, max, i)
		}
		got = append(got, scanEntry{rest[2 : 2+klen], tid})
		rest = rest[2+klen:]
	}
	if len(rest) != 0 {
		t.Fatalf("SCAN(%.20q, %d): %d bytes after %d entries", start, max, len(rest), n)
	}
	want := m.want(start, max)
	if len(got) != len(want) {
		t.Fatalf("SCAN(%.20q, %d) = %d entries, want %d", start, max, len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i].key, want[i].key) || got[i].tid != want[i].tid {
			t.Fatalf("SCAN(%.20q, %d) entry %d = (%.20q, %d), want (%.20q, %d)",
				start, max, i, got[i].key, got[i].tid, want[i].key, want[i].tid)
		}
	}
}

// newScanServer opens a server whose shard boundaries are seeded by m's
// keys.
func newScanServer(t *testing.T, opts Options, m scanModel) *Server {
	t.Helper()
	for k := range m {
		opts.Sample = append(opts.Sample, []byte(k))
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestServerScanMatchesModel holds the leader's SCAN reply — its TIDs
// collected off the cursor, their keys resolved in one KeyMap batch — to a
// sorted model in count, order, keys and TIDs: a reply the frame limit
// truncates, scans across shard boundaries and over an emptied shard, a
// start past the last key, and a tiered leader whose demoted shards serve
// from their sections, live and after a reopen.
func TestServerScanMatchesModel(t *testing.T) {
	t.Run("frame-limit", func(t *testing.T) {
		// About 130 of these fit one frame, far below MaxScan.
		m := scanModel{}
		r := rand.New(rand.NewSource(1))
		for i := 0; i < 300; i++ {
			k := fmt.Appendf(nil, "big-%04d-", i)
			m[string(append(k, bytes.Repeat([]byte{'a' + byte(i%26)}, 7900+r.Intn(200))...))] = uint64(i)
		}
		s := newScanServer(t, Options{Shards: 4}, m)
		serveLoad(t, s, m, nil)
		checkScan(t, s, m, nil, wire.MaxScan)
		checkScan(t, s, m, []byte("big-0100"), wire.MaxScan)
		if got := len(m.want(nil, wire.MaxScan)); got >= 200 || got < 100 {
			t.Fatalf("the model fits %d entries in a frame; the case no longer truncates", got)
		}
	})

	t.Run("shard-boundaries", func(t *testing.T) {
		m := scanModel{}
		for i := 0; i < 2000; i++ {
			m[string(testKey(i))] = uint64(7*i + 3)
		}
		m[string(testKey(0))], m[string(testKey(1999))] = 0, hot.MaxTID
		s := newScanServer(t, Options{Shards: 8}, m)
		// Deleting 600 consecutive keys empties at least one whole shard
		// of 250, which the cursor must step over.
		var dels [][]byte
		for i := 700; i < 1300; i++ {
			dels = append(dels, testKey(i))
		}
		serveLoad(t, s, m, dels)
		for _, k := range dels {
			delete(m, string(k))
		}
		r := rand.New(rand.NewSource(2))
		for i := 0; i < 200; i++ {
			start := testKey(r.Intn(2100))
			if i%3 == 0 {
				start = append(start, '!') // between two keys
			}
			max := []uint32{1, 50, 300, 1500, wire.MaxScan, wire.MaxScan + 10}[i%6]
			checkScan(t, s, m, start, max)
		}
		checkScan(t, s, m, nil, wire.MaxScan)
	})

	t.Run("past-last-key", func(t *testing.T) {
		m := scanModel{}
		for i := 0; i < 500; i++ {
			m[string(testKey(i))] = uint64(i)
		}
		s := newScanServer(t, Options{Shards: 4}, m)
		serveLoad(t, s, m, nil)
		checkScan(t, s, m, []byte("zzz"), 50)
		checkScan(t, s, m, testKey(499), 50)
		checkScan(t, s, m, append(testKey(499), '0'), 50)
		checkScan(t, s, m, nil, 0)
	})

	t.Run("tiered", func(t *testing.T) {
		m := scanModel{}
		for i := 0; i < 1000; i++ {
			m[string(testKey(i))] = uint64(i + 1)
		}
		opts := Options{Shards: 4, Dir: t.TempDir(), MemoryBudget: 1 << 30}
		s := newScanServer(t, opts, m)
		serveLoad(t, s, m, nil)
		for _, sh := range []int{0, 2} {
			if err := s.Tree().Demote(sh); err != nil {
				t.Fatal(err)
			}
		}
		// Writes to demoted shards land in their deltas: new keys, and
		// deletes as tombstones.
		more := scanModel{}
		for i := 0; i < 1000; i += 7 {
			more[string(testKey(i))+"+"] = uint64(5000 + i)
		}
		var dels [][]byte
		for i := 3; i < 1000; i += 11 {
			dels = append(dels, testKey(i))
		}
		serveLoad(t, s, more, dels)
		for k, tid := range more {
			m[k] = tid
		}
		for _, k := range dels {
			delete(m, string(k))
		}
		scanAll := func(s *Server) {
			t.Helper()
			if cs := s.Tree().ColdStats(); cs.ColdShards != 2 || cs.DeltaKeys == 0 {
				t.Fatalf("cold shards %d with %d delta keys, want 2 with some", cs.ColdShards, cs.DeltaKeys)
			}
			checkScan(t, s, m, nil, wire.MaxScan)
			for i := 0; i < 1000; i += 37 {
				checkScan(t, s, m, testKey(i), 100)
			}
		}
		scanAll(s)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		// The reopened leader's KeyMap holds only what the open bound: the
		// sections' entries through RecoverEntry, and the logs' tails.
		s = newScanServer(t, opts, nil)
		scanAll(s)
	})
}
