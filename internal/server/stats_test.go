package server

import (
	"bytes"
	"encoding/json"
	"net"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"unicode"
	"unsafe"

	hot "github.com/hotindex/hot"
	"github.com/hotindex/hot/internal/wire"
)

// tieredPair starts a durable leader with a memory budget, loads it and
// demotes one shard, then bootstraps a follower from it; both listen.
func tieredPair(t *testing.T) (leader, fol *Server, laddr, faddr string) {
	t.Helper()
	const n = 200
	opts := Options{Shards: 4, Dir: t.TempDir(), MemoryBudget: 1 << 30}
	for i := 0; i < n; i++ {
		opts.Sample = append(opts.Sample, testKey(i))
	}
	leader, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { leader.Close() })
	if laddr, err = leader.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	loadRange(t, laddr, 0, n)
	if err := leader.Tree().Demote(0); err != nil {
		t.Fatal(err)
	}
	fol = newChaosFollower(t, laddr)
	waitReady(t, fol, 4)
	if faddr, err = fol.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	return leader, fol, laddr, faddr
}

// rawStats sends STATS to addr and returns the reply body as it came.
func rawStats(t *testing.T, addr string) []byte {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.WriteFrame(conn, wire.OpStats, nil); err != nil {
		t.Fatal(err)
	}
	op, body, err := wire.ReadFrame(conn, nil)
	if err != nil || op != wire.RepStats {
		t.Fatalf("STATS reply op %#x (err %v)", op, err)
	}
	return body
}

// TestStatsRoundTrip decodes every row of a live leader's and a live
// follower's STATS reply and re-encodes them to the very same bytes; the
// rows come in the order, and with the flags, of the server's own table,
// and read what the pair holds.
func TestStatsRoundTrip(t *testing.T) {
	leader, fol, laddr, faddr := tieredPair(t)
	for _, c := range []struct {
		name string
		s    *Server
		addr string
		want map[string]uint64
	}{
		{"leader", leader, laddr, map[string]uint64{"len": 200, "durable": 1, "follower": 0, "ready": 4, "cold_shards": 1, "demotions": 1}},
		{"follower", fol, faddr, map[string]uint64{"len": 200, "durable": 0, "follower": 1, "ready": 4, "bootstraps": 1, "cold_shards": 0}},
	} {
		body := rawStats(t, c.addr)
		st, err := wire.UnmarshalStats(body)
		if err != nil {
			t.Fatalf("%s: %v in %s", c.name, err, body)
		}
		if again := wire.MarshalStats(st); !bytes.Equal(again, body) {
			t.Fatalf("%s: STATS re-encodes as\n%s\nwant\n%s", c.name, again, body)
		}
		want := c.s.Stats()
		if len(st) != len(want) {
			t.Fatalf("%s: %d rows on the wire, %d in the table", c.name, len(st), len(want))
		}
		for i, r := range want {
			if st[i].Name != r.Name || (st[i].Unit == "bool") != (r.Unit == "bool") {
				t.Fatalf("%s: row %d is %+v on the wire, %+v in the table", c.name, i, st[i], r)
			}
		}
		for name, v := range c.want {
			if got := stat(t, st, name); got != v {
				t.Errorf("%s: STATS %s = %d, want %d", c.name, name, got, v)
			}
		}
	}
}

// TestStatsKeysMatchFixture holds STATS to the keys and JSON types an
// earlier build served (testdata/stats-keys.json, captured from a durable
// leader with a memory budget and one demoted shard, and from its
// follower): every key is still there, with the same JSON type.
func TestStatsKeysMatchFixture(t *testing.T) {
	raw, err := os.ReadFile("testdata/stats-keys.json")
	if err != nil {
		t.Fatal(err)
	}
	var fixture map[string]map[string]string
	if err := json.Unmarshal(raw, &fixture); err != nil {
		t.Fatal(err)
	}
	_, _, laddr, faddr := tieredPair(t)
	for role, addr := range map[string]string{"leader": laddr, "follower": faddr} {
		var got map[string]any
		if err := json.Unmarshal(rawStats(t, addr), &got); err != nil {
			t.Fatalf("%s: STATS is not JSON: %v", role, err)
		}
		for key, typ := range fixture[role] {
			v, ok := got[key]
			if !ok {
				t.Errorf("%s: STATS lost key %q", role, key)
				continue
			}
			if _, isBool := v.(bool); (typ == "boolean") != isBool {
				t.Errorf("%s: STATS %q = %v, want a JSON %s", role, key, v, typ)
			}
		}
	}
}

// TestServerRowsCoverEveryCounter is the drift guard of serverRows: every
// atomic counter of Server moves exactly one row, and every integer reading
// of hot.Follower and hot.ReplicaClient (TailRecords, Reconnects, …) is a
// row of a follower's reply under its snake_case name. A counter added
// without its row fails here instead of staying out of STATS.
func TestServerRowsCoverEveryCounter(t *testing.T) {
	s, err := New(Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rows := func() wire.Stats { return wire.AppendRows(nil, serverRows[:], s) }
	zero := rows()
	v := reflect.ValueOf(s).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		p := unsafe.Pointer(v.Field(i).UnsafeAddr())
		var set func(uint64)
		switch f.Type {
		case reflect.TypeOf(atomic.Int64{}):
			set = func(x uint64) { (*atomic.Int64)(p).Store(int64(x)) }
		case reflect.TypeOf(atomic.Uint64{}):
			set = func(x uint64) { (*atomic.Uint64)(p).Store(x) }
		default:
			continue
		}
		set(7)
		moved := 0
		for j, r := range rows() {
			if r.Value != zero[j].Value {
				moved++
			}
		}
		set(0)
		if moved != 1 {
			t.Errorf("Server.%s moves %d STATS rows, want 1", f.Name, moved)
		}
	}

	_, fol, _, _ := tieredPair(t)
	names := map[string]bool{}
	for _, r := range fol.Stats() {
		names[r.Name] = true
	}
	for _, typ := range []reflect.Type{reflect.TypeOf(&hot.Follower{}), reflect.TypeOf(&hot.ReplicaClient{})} {
		for i := 0; i < typ.NumMethod(); i++ {
			m := typ.Method(i)
			if m.Type.NumIn() != 1 || m.Type.NumOut() != 1 {
				continue
			}
			if k := m.Type.Out(0).Kind(); k != reflect.Int && k != reflect.Uint64 {
				continue
			}
			if name := snake(m.Name); !names[name] {
				t.Errorf("%s.%s has no STATS row %q", typ.Elem().Name(), m.Name, name)
			}
		}
	}
}

// snake spells a Go identifier as a STATS key: TailRecords → tail_records.
func snake(s string) string {
	var b strings.Builder
	for i, r := range s {
		if unicode.IsUpper(r) {
			if i > 0 {
				b.WriteByte('_')
			}
			r = unicode.ToLower(r)
		}
		b.WriteRune(r)
	}
	return b.String()
}
