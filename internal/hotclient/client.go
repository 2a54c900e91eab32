// Package hotclient is the Go client for hot-server's wire protocol. A
// Client pipelines writes: Set/Add/Del only buffer a frame, and Flush both
// pushes the pipeline and runs the server-side durability/completion
// barrier — mirroring the index's own async write contract, so a networked
// workload keeps the same acknowledgement semantics as an in-process one.
// A Client is safe for one goroutine; share a connection by sharing
// nothing (open one Client per worker).
package hotclient

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"time"

	"github.com/hotindex/hot/internal/wire"
)

// Entry is one SCAN result.
type Entry struct {
	Key []byte
	TID uint64
}

// DefaultDialTimeout bounds Dial: an unreachable server must fail the
// call, not hang it for the kernel's connect timeout (minutes on some
// stacks).
const DefaultDialTimeout = 10 * time.Second

// ServerError is an ERR reply from the server: the transport is healthy
// and the reply stream stayed in sync — the server just refused this
// request. Retrying it verbatim will not help (the Pool never does).
type ServerError struct {
	Msg string
}

func (e *ServerError) Error() string { return "hotclient: server: " + e.Msg }

// IsBusy reports whether err is the server's typed connection-limit
// rejection — the one ServerError a client may reasonably back off and
// retry, against the same or another server.
func IsBusy(err error) bool {
	var se *ServerError
	return errors.As(err, &se) && strings.HasPrefix(se.Msg, "busy: ")
}

// Client speaks the hot wire protocol over one connection.
type Client struct {
	conn io.ReadWriteCloser
	nc   net.Conn // non-nil when conn has deadlines
	opTO time.Duration
	br   *bufio.Reader
	bw   *bufio.Writer
	rbuf []byte
	wbuf []byte
}

// Dial connects to a hot-server at addr, bounded by DefaultDialTimeout.
func Dial(addr string) (*Client, error) {
	return DialTimeout(addr, DefaultDialTimeout)
}

// DialTimeout connects to a hot-server at addr, giving up after timeout
// (≤ 0 means no bound).
func DialTimeout(addr string, timeout time.Duration) (*Client, error) {
	d := net.Dialer{}
	if timeout > 0 {
		d.Timeout = timeout
	}
	conn, err := d.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return New(conn), nil
}

// New wraps an established connection.
func New(conn io.ReadWriteCloser) *Client {
	c := &Client{
		conn: conn,
		br:   bufio.NewReaderSize(conn, 64<<10),
		bw:   bufio.NewWriterSize(conn, 64<<10),
	}
	if nc, ok := conn.(net.Conn); ok {
		c.nc = nc
	}
	return c
}

// SetOpTimeout bounds each subsequent round trip (Get, Flush, Scan, …)
// with a connection deadline: a request against a dead or wedged server
// fails within d instead of blocking forever. 0 disables. No-op when the
// underlying transport has no deadlines.
func (c *Client) SetOpTimeout(d time.Duration) { c.opTO = d }

// Close closes the connection. Buffered unflushed writes are lost — call
// Flush first if they matter.
func (c *Client) Close() error { return c.conn.Close() }

// roundTrip flushes the pipeline (the request must reach the server) and
// reads exactly one reply frame. An ERR reply surfaces as a *ServerError;
// any other error means the connection state is unknown and the client
// must not be reused.
func (c *Client) roundTrip(op byte, body []byte) (byte, []byte, error) {
	if c.nc != nil && c.opTO > 0 {
		c.nc.SetDeadline(time.Now().Add(c.opTO))
		defer c.nc.SetDeadline(time.Time{})
	}
	if err := wire.WriteFrame(c.bw, op, body); err != nil {
		return 0, nil, err
	}
	if err := c.bw.Flush(); err != nil {
		return 0, nil, err
	}
	rop, rbody, err := wire.ReadFrame(c.br, c.rbuf)
	if err != nil {
		return 0, nil, err
	}
	c.rbuf = rbody
	if rop == wire.RepErr {
		return 0, nil, &ServerError{Msg: string(rbody)}
	}
	return rop, rbody, nil
}

// Get returns the TID stored under key.
func (c *Client) Get(key []byte) (tid uint64, found bool, err error) {
	rop, body, err := c.roundTrip(wire.OpGet, key)
	if err != nil {
		return 0, false, err
	}
	switch rop {
	case wire.RepValue:
		v, _, ok := wire.Uint64(body)
		if !ok {
			return 0, false, fmt.Errorf("hotclient: short VALUE reply")
		}
		return v, true, nil
	case wire.RepMissing:
		return 0, false, nil
	}
	return 0, false, fmt.Errorf("hotclient: unexpected reply %#x to GET", rop)
}

// Set pipelines an upsert of tid under key. No reply; Flush acknowledges.
func (c *Client) Set(key []byte, tid uint64) error {
	c.wbuf = wire.AppendKeyTID(c.wbuf[:0], key, tid)
	return wire.WriteFrame(c.bw, wire.OpSet, c.wbuf)
}

// Add pipelines an insert of tid under key (rejected if key exists; the
// rejection is visible in Flush's totals). No reply; Flush acknowledges.
func (c *Client) Add(key []byte, tid uint64) error {
	c.wbuf = wire.AppendKeyTID(c.wbuf[:0], key, tid)
	return wire.WriteFrame(c.bw, wire.OpAdd, c.wbuf)
}

// Del pipelines a delete of key. No reply; Flush acknowledges.
func (c *Client) Del(key []byte) error {
	return wire.WriteFrame(c.bw, wire.OpDel, key)
}

// Flush pushes every pipelined write and runs the server's barrier: all of
// this connection's writes are applied (and in durable mode, fsynced)
// before it returns. The totals are server-wide apply/reject counters for
// the barrier, matching ShardedTree.Flush.
func (c *Client) Flush() (applied, rejected uint64, err error) {
	rop, body, err := c.roundTrip(wire.OpFlush, nil)
	if err != nil {
		return 0, 0, err
	}
	if rop != wire.RepFlushed {
		return 0, 0, fmt.Errorf("hotclient: unexpected reply %#x to FLUSH", rop)
	}
	applied, body, ok := wire.Uint64(body)
	if !ok {
		return 0, 0, fmt.Errorf("hotclient: short FLUSHED reply")
	}
	rejected, _, ok = wire.Uint64(body)
	if !ok {
		return 0, 0, fmt.Errorf("hotclient: short FLUSHED reply")
	}
	return applied, rejected, nil
}

// Scan returns up to max entries with key ≥ start in key order. The entry
// keys are copies, valid indefinitely; they share one buffer allocated per
// call, each capped at its own length, so appending to one key never
// overwrites another.
func (c *Client) Scan(start []byte, max int) ([]Entry, error) {
	c.wbuf = wire.AppendScan(c.wbuf[:0], start, uint32(max))
	rop, body, err := c.roundTrip(wire.OpScan, c.wbuf)
	if err != nil {
		return nil, err
	}
	if rop != wire.RepEntries {
		return nil, fmt.Errorf("hotclient: unexpected reply %#x to SCAN", rop)
	}
	n, body, ok := wire.Uint32(body)
	if !ok {
		return nil, fmt.Errorf("hotclient: short ENTRIES reply")
	}
	// An entry takes at least 10 bytes (tid u64 | key length u16), so a
	// count the body cannot hold is refused before it sizes an allocation.
	if uint64(n) > uint64(len(body)/10) {
		return nil, fmt.Errorf("hotclient: ENTRIES count %d exceeds its %d-byte body", n, len(body))
	}
	out := make([]Entry, n)
	keys := make([]byte, 0, len(body)-10*int(n))
	for i := range out {
		tid, rest, ok := wire.Uint64(body)
		if !ok || len(rest) < 2 {
			return nil, fmt.Errorf("hotclient: truncated ENTRIES reply")
		}
		klen := int(uint16(rest[0]) | uint16(rest[1])<<8)
		rest = rest[2:]
		if len(rest) < klen {
			return nil, fmt.Errorf("hotclient: truncated ENTRIES reply")
		}
		a := len(keys)
		keys = append(keys, rest[:klen]...)
		out[i] = Entry{Key: keys[a:len(keys):len(keys)], TID: tid}
		body = rest[klen:]
	}
	return out, nil
}

// GetBatch looks up every key, writing TIDs into out (which must be at
// least len(keys) long) and returning a found flag per key.
func (c *Client) GetBatch(keys [][]byte, out []uint64) ([]bool, error) {
	if len(out) < len(keys) {
		return nil, fmt.Errorf("hotclient: out slice shorter than keys")
	}
	c.wbuf = wire.AppendBatchKeys(c.wbuf[:0], keys)
	rop, body, err := c.roundTrip(wire.OpBatch, c.wbuf)
	if err != nil {
		return nil, err
	}
	if rop != wire.RepBatch {
		return nil, fmt.Errorf("hotclient: unexpected reply %#x to BATCH", rop)
	}
	n, body, ok := wire.Uint32(body)
	if !ok || int(n) != len(keys) {
		return nil, fmt.Errorf("hotclient: BATCH reply count %d, want %d", n, len(keys))
	}
	found := make([]bool, n)
	for i := uint32(0); i < n; i++ {
		if len(body) < 9 {
			return nil, fmt.Errorf("hotclient: truncated BATCH reply")
		}
		found[i] = body[0] == 1
		out[i], _, _ = wire.Uint64(body[1:9])
		body = body[9:]
	}
	return found, nil
}

// Stats fetches the server's STATS rows; read one with Get.
func (c *Client) Stats() (wire.Stats, error) {
	rop, body, err := c.roundTrip(wire.OpStats, nil)
	if err != nil {
		return nil, err
	}
	if rop != wire.RepStats {
		return nil, fmt.Errorf("hotclient: unexpected reply %#x to STATS", rop)
	}
	return wire.UnmarshalStats(body)
}
