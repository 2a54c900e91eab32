// Package wire defines hot-server's framing and body encodings: a
// length-prefixed binary protocol small enough to parse with no allocation
// on the hot path and regular enough to fuzz exhaustively.
//
// Every message is one frame:
//
//	frame := bodyLen u32 LE | opcode u8 | body
//
// Request bodies (client → server):
//
//	GET    key
//	SET    tid u64 | key          (upsert; fire-and-forget, no reply)
//	ADD    tid u64 | key          (insert; fire-and-forget, no reply)
//	DEL    key                    (fire-and-forget, no reply)
//	SCAN   max u32 | start key
//	BATCH  n u32 | n × (klen u16 | key)   (multi-get)
//	FLUSH  (empty)                (durability + completion barrier)
//	STATS  (empty)
//	REPL   (empty)                (switch the connection to replication)
//	RESUME n u32 | n × lsn u64    (replication, resuming from applied LSNs)
//
// Reply bodies (server → client):
//
//	ERR      utf-8 message
//	VALUE    tid u64
//	MISSING  (empty)
//	ENTRIES  n u32 | n × (tid u64 | klen u16 | key)
//	BATCH    n u32 | n × (found u8 | tid u64)
//	FLUSHED  applied u64 | rejected u64
//	STATS    JSON object, one key per row (see Stats)
//
// Writes are fire-and-forget so a client can pipeline them back to back;
// FLUSH is the acknowledgement point (in durable mode, the fsync barrier).
// A malformed no-reply request cannot be answered without desynchronizing
// the reply stream, so the server reports it with an ERR frame and closes
// the connection.
//
// Replication stream (after REPL, leader → follower):
//
//	MANIFEST frame (empty body), then the manifest section bytes verbatim
//	per shard: SECTION frame (shard u32 | cutLSN u64), then the shard's
//	  snapshot section bytes verbatim (internal/persist format, self-
//	  delimiting), flushed at every section boundary
//	TAILSTART frame (empty body)
//	TAIL frames (shard u32 | op u8 | lsn u64 | tid u64 | key), streamed as
//	  the leader's per-shard logs grow
//	PING frames (empty body) interleave with TAIL while the tail is idle,
//	  so a follower with a read deadline can tell a quiet leader from a
//	  dead connection
//
// A RESUME request carries the follower's per-shard applied-LSN vector.
// When every shard's log still retains the records past that frontier the
// leader answers with a RESUME stream frame (empty body) followed directly
// by TAILSTART — no snapshot phase. When the logs have rotated past the
// frontier it falls back to the full bootstrap, starting with MANIFEST as
// usual; the follower tells the two apart by the first frame it reads.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

const (
	// MaxFrame caps one frame's body; longer length prefixes are rejected
	// before allocation (a garbage length must not OOM the peer).
	MaxFrame = 1 << 20
	// MaxBatch caps the keys in one BATCH request.
	MaxBatch = 4096
	// MaxScan caps the entries requested by one SCAN (the reply is further
	// bounded by MaxFrame; a truncated scan returns fewer entries).
	MaxScan = 4096
	// MaxResumeShards caps the LSN vector in one RESUME request. Far above
	// any real shard count; it exists so a hostile length cannot force a
	// large allocation.
	MaxResumeShards = 65536
)

// Request opcodes.
const (
	OpGet byte = iota + 1
	OpSet
	OpAdd
	OpDel
	OpScan
	OpBatch
	OpFlush
	OpStats
	OpRepl
	OpReplResume
)

// Reply opcodes.
const (
	RepErr byte = iota + 0x80
	RepValue
	RepMissing
	RepEntries
	RepBatch
	RepFlushed
	RepStats
)

// Replication stream opcodes.
const (
	RepManifest byte = iota + 0x90
	RepSection
	RepTailStart
	RepTail
	RepResume
	RepPing
)

// MaxStats caps the rows of one STATS reply; UnmarshalStats rejects more.
const MaxStats = 256

// A Row is one counter or gauge of a STATS reply, defined once next to the
// code that owns its value: Read takes the value from S, a snapshot of that
// code's state read once per reply. Name is the STATS key, a lower-case
// identifier. A row whose Unit is "bool" is a flag (Read returns 0 or 1)
// and encodes as a JSON boolean; every other unit names what a number
// counts.
type Row[S any] struct {
	Name  string
	Unit  string
	Gauge bool // a point-in-time value; a counter only grows
	Read  func(S) uint64
}

// A Stat is one row's value. A decoded reply carries no gauge bit, and
// no unit but "bool" on a flag.
type Stat struct {
	Name  string
	Unit  string
	Gauge bool
	Value uint64
}

// Stats is a STATS reply: one value per row, in table order.
type Stats []Stat

// AppendRows appends the value of every row, read from src.
func AppendRows[S any](st Stats, rows []Row[S], src S) Stats {
	for _, r := range rows {
		st = append(st, Stat{r.Name, r.Unit, r.Gauge, r.Read(src)})
	}
	return st
}

// Flag is a flag row's value: 1 for true.
func Flag(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Get returns the value of the row named name.
func (st Stats) Get(name string) (uint64, bool) {
	for _, s := range st {
		if s.Name == name {
			return s.Value, true
		}
	}
	return 0, false
}

// String formats the rows as space-separated name=value pairs, a flag as
// true or false: the line hot-server prints at shutdown.
func (st Stats) String() string { return string(st.append(nil, "", " ", "=")) }

// MarshalStats encodes st for a RepStats frame: one JSON object, a key per
// row in table order, with no white space.
func MarshalStats(st Stats) []byte { return append(st.append([]byte{'{'}, `"`, ",", `":`), '}') }

// append writes the rows as quote name eq value, separated by sep.
func (st Stats) append(b []byte, quote, sep, eq string) []byte {
	for i, s := range st {
		if i > 0 {
			b = append(b, sep...)
		}
		b = append(append(append(b, quote...), s.Name...), eq...)
		switch {
		case s.Unit != "bool":
			b = strconv.AppendUint(b, s.Value, 10)
		case s.Value != 0:
			b = append(b, "true"...)
		default:
			b = append(b, "false"...)
		}
	}
	return b
}

// UnmarshalStats decodes a RepStats frame body as MarshalStats writes it:
// a JSON object with no white space of at most MaxStats distinct keys,
// each a lower-case identifier valued true, false or an unsigned 64-bit
// integer. The rows keep the reply's order; a boolean decodes as a flag.
// It parses by hand: encoding/json allocates about 30 times a reply's
// size decoding it, and a client must allocate no more than a small
// multiple of what the server sent (FuzzClientReply holds it to 8 times).
func UnmarshalStats(b []byte) (Stats, error) {
	s := string(b) // the one copy every name aliases
	n := 0
	if err := eachStat(s, func(Stat) { n++ }); err != nil {
		return nil, err
	}
	if n > MaxStats {
		return nil, fmt.Errorf("wire: STATS reply has %d rows, more than MaxStats", n)
	}
	st := make(Stats, 0, n)
	eachStat(s, func(r Stat) { st = append(st, r) })
	// A repeated key sorts next to its twin.
	var order [MaxStats]uint16
	for i := range st {
		order[i] = uint16(i)
	}
	slices.SortFunc(order[:n], func(a, b uint16) int { return strings.Compare(st[a].Name, st[b].Name) })
	for i := 1; i < n; i++ {
		if name := st[order[i]].Name; name == st[order[i-1]].Name {
			return nil, fmt.Errorf("wire: STATS key %q repeated", name)
		}
	}
	return st, nil
}

var errStatsSyntax = errors.New("wire: STATS reply is not a flat JSON object of identifiers valued by numbers and booleans")

// eachStat calls fn with each row of the STATS body s.
func eachStat(s string, fn func(Stat)) error {
	body, open := strings.CutPrefix(s, "{")
	body, closed := strings.CutSuffix(body, "}")
	if !open || !closed {
		return errStatsSyntax
	}
	for more := body != ""; more; {
		var row string
		row, body, more = strings.Cut(body, ",")
		key, val, _ := strings.Cut(row, ":")
		name, open := strings.CutPrefix(key, `"`)
		name, closed := strings.CutSuffix(name, `"`)
		if !open || !closed || name == "" || strings.Trim(name, "abcdefghijklmnopqrstuvwxyz0123456789_") != "" {
			return errStatsSyntax
		}
		r := Stat{Name: name}
		switch {
		case val == "true" || val == "false":
			r.Unit, r.Value = "bool", Flag(val == "true")
		case len(val) > 1 && val[0] == '0':
			return errStatsSyntax
		default:
			var err error
			if r.Value, err = strconv.ParseUint(val, 10, 64); err != nil {
				return fmt.Errorf("wire: STATS key %q: %w", name, err)
			}
		}
		fn(r)
	}
	return nil
}

// WriteFrame writes one frame. Callers batch frames through a buffered
// writer; WriteFrame itself issues two writes (header, body). Through a
// *bufio.Writer the header is built in the writer's own free space, so a
// frame costs no allocation; any other io.Writer gets a header array that
// escapes through the interface call.
func WriteFrame(w io.Writer, op byte, body []byte) error {
	if len(body) > MaxFrame {
		return fmt.Errorf("wire: frame body %d bytes exceeds MaxFrame %d", len(body), MaxFrame)
	}
	var err error
	if bw, ok := w.(*bufio.Writer); ok {
		_, err = bw.Write(append(binary.LittleEndian.AppendUint32(bw.AvailableBuffer(), uint32(len(body))), op))
	} else {
		var h [5]byte
		binary.LittleEndian.PutUint32(h[:4], uint32(len(body)))
		h[4] = op
		_, err = w.Write(h[:])
	}
	if err != nil {
		return err
	}
	if len(body) == 0 {
		return nil
	}
	_, err = w.Write(body)
	return err
}

// ReadFrame reads one frame, reusing buf's storage when it is large enough
// (pass the returned body back as buf to amortize the allocation). A clean
// EOF before the first header byte is returned as io.EOF; a frame cut off
// midway is io.ErrUnexpectedEOF. Through a *bufio.Reader the header is
// read in place (Peek, then Discard), so a frame whose body fits buf costs
// no allocation.
func ReadFrame(r io.Reader, buf []byte) (op byte, body []byte, err error) {
	var n uint32
	if br, ok := r.(*bufio.Reader); ok {
		h, err := br.Peek(5)
		if err != nil {
			if err == io.EOF && len(h) > 0 {
				err = io.ErrUnexpectedEOF
			}
			return 0, nil, err
		}
		n, op = binary.LittleEndian.Uint32(h[:4]), h[4]
		br.Discard(5) // cannot fail: Peek buffered all five
	} else {
		var h [5]byte
		if _, err := io.ReadFull(r, h[:]); err != nil {
			return 0, nil, err
		}
		n, op = binary.LittleEndian.Uint32(h[:4]), h[4]
	}
	if n > MaxFrame {
		return 0, nil, fmt.Errorf("wire: frame length %d exceeds MaxFrame %d", n, MaxFrame)
	}
	buf = buf[:cap(buf)]
	if uint32(len(buf)) < n {
		buf = make([]byte, n)
	}
	body = buf[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	return op, body, nil
}

// AppendUint32 appends v little-endian.
func AppendUint32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

// AppendUint64 appends v little-endian.
func AppendUint64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

// Uint32 consumes a little-endian u32 from the front of b.
func Uint32(b []byte) (v uint32, rest []byte, ok bool) {
	if len(b) < 4 {
		return 0, nil, false
	}
	return binary.LittleEndian.Uint32(b), b[4:], true
}

// Uint64 consumes a little-endian u64 from the front of b.
func Uint64(b []byte) (v uint64, rest []byte, ok bool) {
	if len(b) < 8 {
		return 0, nil, false
	}
	return binary.LittleEndian.Uint64(b), b[8:], true
}

// AppendKeyTID appends a SET/ADD body: tid u64 | key.
func AppendKeyTID(b []byte, key []byte, tid uint64) []byte {
	b = AppendUint64(b, tid)
	return append(b, key...)
}

// KeyTID parses a SET/ADD body.
func KeyTID(body []byte) (key []byte, tid uint64, ok bool) {
	tid, key, ok = Uint64(body)
	return key, tid, ok
}

// AppendScan appends a SCAN body: max u32 | start key.
func AppendScan(b []byte, start []byte, max uint32) []byte {
	b = AppendUint32(b, max)
	return append(b, start...)
}

// Scan parses a SCAN body.
func Scan(body []byte) (start []byte, max uint32, ok bool) {
	max, start, ok = Uint32(body)
	return start, max, ok
}

// AppendSection appends a SECTION body: shard u32 | cutLSN u64.
func AppendSection(b []byte, shard uint32, cut uint64) []byte {
	b = AppendUint32(b, shard)
	return AppendUint64(b, cut)
}

// Section parses a SECTION body.
func Section(body []byte) (shard uint32, cut uint64, ok bool) {
	shard, body, ok = Uint32(body)
	if !ok {
		return 0, 0, false
	}
	cut, body, ok = Uint64(body)
	return shard, cut, ok && len(body) == 0
}

// AppendTail appends a TAIL body: shard u32 | op u8 | lsn u64 | tid u64 |
// key.
func AppendTail(b []byte, shard uint32, op byte, lsn, tid uint64, key []byte) []byte {
	b = AppendUint32(b, shard)
	b = append(b, op)
	b = AppendUint64(b, lsn)
	b = AppendUint64(b, tid)
	return append(b, key...)
}

// Tail parses a TAIL body.
func Tail(body []byte) (shard uint32, op byte, lsn, tid uint64, key []byte, ok bool) {
	shard, body, ok = Uint32(body)
	if !ok || len(body) < 1 {
		return 0, 0, 0, 0, nil, false
	}
	op, body = body[0], body[1:]
	lsn, body, ok = Uint64(body)
	if !ok {
		return 0, 0, 0, 0, nil, false
	}
	tid, body, ok = Uint64(body)
	if !ok {
		return 0, 0, 0, 0, nil, false
	}
	return shard, op, lsn, tid, body, true
}

// AppendResume appends a RESUME body: n u32 | n × lsn u64, the follower's
// per-shard applied-LSN vector.
func AppendResume(b []byte, lsns []uint64) []byte {
	b = AppendUint32(b, uint32(len(lsns)))
	for _, lsn := range lsns {
		b = AppendUint64(b, lsn)
	}
	return b
}

// Resume parses a RESUME body. It rejects shard counts above
// MaxResumeShards and any length mismatch.
func Resume(body []byte) ([]uint64, bool) {
	n, body, ok := Uint32(body)
	if !ok || n > MaxResumeShards || len(body) != int(n)*8 {
		return nil, false
	}
	lsns := make([]uint64, n)
	for i := range lsns {
		lsns[i], body, _ = Uint64(body)
	}
	return lsns, true
}

// BatchKeys parses a BATCH body into key views over body (no copies). It
// rejects counts above MaxBatch and any truncated key.
func BatchKeys(body []byte) ([][]byte, bool) {
	n, body, ok := Uint32(body)
	if !ok || n > MaxBatch {
		return nil, false
	}
	keys := make([][]byte, 0, n)
	for i := uint32(0); i < n; i++ {
		if len(body) < 2 {
			return nil, false
		}
		klen := int(binary.LittleEndian.Uint16(body))
		body = body[2:]
		if len(body) < klen {
			return nil, false
		}
		keys = append(keys, body[:klen])
		body = body[klen:]
	}
	if len(body) != 0 {
		return nil, false
	}
	return keys, true
}

// AppendBatchKeys appends a BATCH body for keys.
func AppendBatchKeys(b []byte, keys [][]byte) []byte {
	b = AppendUint32(b, uint32(len(keys)))
	for _, k := range keys {
		b = binary.LittleEndian.AppendUint16(b, uint16(len(k)))
		b = append(b, k...)
	}
	return b
}
