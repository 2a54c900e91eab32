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
//	STATS    JSON (see Stats)
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
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
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

// Stats is the STATS reply payload, JSON-encoded (stats are rare and
// human-facing; the stable binary framing is not worth its rigidity here).
type Stats struct {
	// Len is the number of stored keys (on a follower: in ready shards).
	Len int `json:"len"`
	// Shards is the number of range partitions.
	Shards int `json:"shards"`
	// Ready is the replicated shard prefix open for reads — equal to
	// Shards on a leader, growing section by section on a follower.
	Ready int `json:"ready"`
	// Durable reports write-ahead-logged mode.
	Durable bool `json:"durable"`
	// Follower reports read-only replication mode.
	Follower bool `json:"follower"`
	// LogBytes is the total write-ahead log length (leader, durable mode).
	LogBytes int64 `json:"log_bytes"`
	// Pending is the async write backlog (submitted, not yet applied).
	Pending int `json:"pending"`
	// TailRecords is the number of tail records applied (follower).
	TailRecords uint64 `json:"tail_records"`
	// Conns is the number of connections currently served.
	Conns int `json:"conns"`
	// RejectedConns counts connections refused with a busy ERR because the
	// server was at its connection limit.
	RejectedConns uint64 `json:"rejected_conns"`
	// DeadlineCloses counts connections closed by an idle-read or write
	// deadline expiring.
	DeadlineCloses uint64 `json:"deadline_closes"`
	// Reconnects counts a follower's successful re-dials of its leader
	// after the initial connection (follower mode).
	Reconnects uint64 `json:"reconnects"`
	// Resumes counts replication sessions continued from the follower's
	// applied-LSN frontier without a snapshot phase: sessions served on a
	// leader, sessions consumed on a follower.
	Resumes uint64 `json:"resumes"`
	// FullResyncs counts resume attempts that fell back to a full snapshot
	// stream because the logs had rotated past the requested frontier.
	FullResyncs uint64 `json:"full_resyncs"`
	// ColdShards is the number of shards currently served from their
	// on-disk cold section (leader with a memory budget; see MemBudget).
	ColdShards int `json:"cold_shards"`
	// MemBudget is the configured resident-trie byte budget (0: cold tier
	// disabled or manual-only).
	MemBudget int64 `json:"mem_budget"`
	// CacheHits and CacheMisses count cold reads served from the page
	// cache versus faulted from disk; CacheEvictions counts pages dropped
	// to keep the cache within its budget.
	CacheHits      uint64 `json:"cache_hits"`
	CacheMisses    uint64 `json:"cache_misses"`
	CacheEvictions uint64 `json:"cache_evictions"`
	// CacheBytes is the bytes resident in the page cache: blocks as
	// stored plus their restart tables.
	CacheBytes int64 `json:"cache_bytes"`
	// Demotions and Promotions count hot→cold and cold→hot shard
	// transitions since the server started; Folds counts cold shards'
	// deltas cut into fresh sections.
	Demotions  uint64 `json:"demotions"`
	Promotions uint64 `json:"promotions"`
	Folds      uint64 `json:"folds"`
	// DeltaKeys is the keys the cold shards hold in their resident deltas
	// right now: writes taken since their sections were last cut.
	DeltaKeys int `json:"delta_keys"`
}

// MarshalStats encodes s for a RepStats frame.
func MarshalStats(s Stats) []byte {
	b, _ := json.Marshal(s) // Stats has no unmarshalable fields
	return b
}

// UnmarshalStats decodes a RepStats frame body.
func UnmarshalStats(b []byte) (Stats, error) {
	var s Stats
	err := json.Unmarshal(b, &s)
	return s, err
}

// WriteFrame writes one frame. Callers batch frames through a buffered
// writer; WriteFrame itself issues two writes (header, body).
func WriteFrame(w io.Writer, op byte, body []byte) error {
	if len(body) > MaxFrame {
		return fmt.Errorf("wire: frame body %d bytes exceeds MaxFrame %d", len(body), MaxFrame)
	}
	var h [5]byte
	binary.LittleEndian.PutUint32(h[:4], uint32(len(body)))
	h[4] = op
	if _, err := w.Write(h[:]); err != nil {
		return err
	}
	if len(body) == 0 {
		return nil
	}
	_, err := w.Write(body)
	return err
}

// ReadFrame reads one frame, reusing buf's storage when it is large enough
// (pass the returned body back as buf to amortize the allocation). A clean
// EOF before the first header byte is returned as io.EOF; a frame cut off
// midway is io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader, buf []byte) (op byte, body []byte, err error) {
	var h [5]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return 0, nil, io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(h[:4])
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
	return h[4], body, nil
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
