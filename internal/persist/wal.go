package persist

import (
	"encoding/binary"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/hotindex/hot/internal/chaos"
)

// Write-ahead log: the per-shard append-only companion of the snapshot
// format. A WAL file is the standard 16-byte header (kind KindWAL)
// followed by length-prefixed records, each carrying its own CRC32-C and a
// monotonically increasing log sequence number:
//
//	record  := payloadLen u32 | crc32(payload) u32 | payload
//	payload := op u8 | lsn uvarint | keyLen uvarint | key bytes | tid uvarint
//
// The first record of every file is a checkpoint record (op WalCheckpoint)
// whose LSN is the base: every operation with LSN ≤ base is covered by the
// snapshot the log accompanies, and every data record that follows must
// carry exactly the next LSN. Replay therefore detects not only torn or
// bit-flipped records (CRC, length caps) but also records applied out of
// order or spliced in from another log generation (LSN discontinuity) —
// all reported as typed *FormatError values, never panics, with the
// longest valid record prefix salvaged.
//
// Durability is group-committed: Append only buffers, Commit makes every
// record up to an LSN durable with a single write+fsync shared by all
// goroutines that committed while the fsync was in flight. Rotate installs
// a fresh log with a higher base after a checkpoint snapshot has been made
// durable, atomically (tmp + fsync + rename + dir fsync) so a crash at any
// step leaves a replayable log.

// WalOp is the operation kind of one WAL record.
type WalOp uint8

const (
	// WalCheckpoint is the mandatory first record of a log file: its LSN
	// is the base covered by the accompanying snapshot; key and TID are
	// empty.
	WalCheckpoint WalOp = 0
	// WalInsert logs an Insert. Replay re-applies it as an insert; a
	// rejection (key present) is a no-op exactly as it was live.
	WalInsert WalOp = 1
	// WalUpsert logs an Upsert: inserted or overwritten.
	WalUpsert WalOp = 2
	// WalDelete logs a Delete; its TID is zero. Replaying a delete of an
	// absent key is a no-op exactly as it was live.
	WalDelete WalOp = 3

	walOpMax = WalDelete
)

var walOpNames = [...]string{"checkpoint", "insert", "upsert", "delete"}

// String names the operation for reports.
func (o WalOp) String() string {
	if int(o) < len(walOpNames) {
		return walOpNames[o]
	}
	return "unknown"
}

// maxWalRecLen caps a record payload: op byte, three maximal uvarints and
// a maximal key. Larger length fields are corruption by construction and
// are rejected before allocation.
const maxWalRecLen = 1 + 10 + 10 + 10 + MaxKeyLen

// WALReplayReport describes what ReplayWAL salvaged from a log.
type WALReplayReport struct {
	// Base is the checkpoint LSN of the log's leading checkpoint record
	// (0 when the log opens with data records — a conservative base).
	Base uint64
	// LastLSN is the LSN of the last valid record delivered (Base when
	// the log holds no data records).
	LastLSN uint64
	// Records is the number of data records delivered.
	Records uint64
	// ValidSize is the byte length of the longest valid record prefix —
	// the offset a torn tail is truncated to before appending resumes.
	ValidSize int64
	// Complete reports whether the log read cleanly to EOF; when true,
	// Damage is nil.
	Complete bool
	// Damage is the first damage encountered, nil when Complete. Records
	// before ValidSize were salvaged; everything after it was discarded.
	Damage *FormatError
}

// WALEntryFunc receives one replayed data record. The key slice is only
// valid during the call. Returning an error aborts the replay and is
// returned verbatim by ReplayWAL.
type WALEntryFunc func(op WalOp, key []byte, tid uint64) error

// ReplayWAL parses a write-ahead log from r, delivering every valid data
// record to fn in LSN order. Damage — a torn tail, a flipped bit, an LSN
// discontinuity — stops the replay at the last valid record; the report
// carries the salvage boundary and the typed damage. The returned error is
// non-nil only for failures outside the log's content: an fn error, or an
// unusable header (not a WAL at all), which is also recorded as Damage.
func ReplayWAL(r io.Reader, fn WALEntryFunc) (WALReplayReport, error) {
	var rep WALReplayReport
	stop := func(damage *FormatError) (WALReplayReport, error) {
		rep.Damage = damage
		return rep, nil
	}
	rd := &reader{r: r}
	if _, damage := rd.header(KindWAL); damage.unusable() {
		rep.Damage = damage
		return rep, damage
	} else if damage != nil {
		return stop(damage)
	}
	rep.ValidSize = headerSize
	var dec walDecoder
	var rec []byte
	for {
		recOff := rd.off
		var prefix [8]byte
		if damage := rd.readFull(prefix[:], "record header"); damage != nil {
			if rd.err == io.EOF {
				// A WAL has no trailer; it simply ends at a record boundary.
				rep.Complete = true
				return rep, nil
			}
			return stop(damage)
		}
		length, damage := walRecordLen(prefix[:], recOff)
		if damage != nil {
			return stop(damage)
		}
		rec = append(append(rec[:0], prefix[:]...), make([]byte, length)...)
		if damage := rd.readFull(rec[8:], "record payload"); damage != nil {
			return stop(damage)
		}
		op, key, tid, damage := dec.record(rec, recOff)
		if damage != nil {
			return stop(damage)
		}
		if op != WalCheckpoint {
			if err := fn(op, key, tid); err != nil {
				return rep, err
			}
			rep.Records++
		}
		rep.Base, rep.LastLSN, rep.ValidSize = dec.base, dec.last, rd.off
	}
}

// ReplayWALFile is ReplayWAL over the file at path.
func ReplayWALFile(path string, fn WALEntryFunc) (WALReplayReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return WALReplayReport{}, err
	}
	defer f.Close()
	return ReplayWAL(f, fn)
}

// walRecordLen validates the 8-byte prefix of the record at off and returns
// its payload length, so a driver knows how many more bytes the record
// needs before any of them is allocated or read.
func walRecordLen(prefix []byte, off int64) (int, *FormatError) {
	length := binary.LittleEndian.Uint32(prefix)
	if length == 0 || length > maxWalRecLen {
		return 0, formatErr(ErrCorrupt, off, "record payload %d outside (0, %d]", length, maxWalRecLen)
	}
	return int(length), nil
}

// walDecoder is the one record step both log drivers — ReplayWAL over a
// stream, WALTailer over a live file — advance record by record. It owns
// every rule about a record beyond its length: the CRC, the payload's
// structure, where a checkpoint record may stand, and LSN continuity.
type walDecoder struct {
	base  uint64 // LSN of the leading checkpoint record (0 without one)
	last  uint64 // LSN of the last record accepted
	begun bool   // a record has been accepted
}

// record validates rec — the complete record, prefix and payload, found at
// off — against the log so far and returns its operation; the key aliases
// rec. A checkpoint record is legal only as the log's first record and sets
// the base; every data record must carry exactly the next LSN. A log that
// opens with a data record therefore has base 0 and starts at LSN 1.
func (d *walDecoder) record(rec []byte, off int64) (op WalOp, key []byte, tid uint64, damage *FormatError) {
	bad := func(format string, args ...any) (WalOp, []byte, uint64, *FormatError) {
		return 0, nil, 0, formatErr(ErrCorrupt, off, format, args...)
	}
	crc, p := binary.LittleEndian.Uint32(rec[4:]), rec[8:]
	if got := crc32.Checksum(p, castagnoli); got != crc {
		return 0, nil, 0, formatErr(ErrChecksum, off, "record CRC %#x, computed %#x", crc, got)
	}
	if op = WalOp(p[0]); op > walOpMax {
		return bad("unknown op %d", op)
	}
	lsn, n := binary.Uvarint(p[1:])
	if n <= 0 {
		return bad("bad LSN")
	}
	key, tid, size, what := decodeEntry(p[1+n:])
	if what != "" {
		return bad("%s", what)
	}
	if rest := len(p) - 1 - n - size; rest != 0 {
		return bad("%d trailing bytes in record", rest)
	}
	switch {
	case op == WalCheckpoint && (len(key) != 0 || tid != 0):
		return bad("checkpoint record carries a key or TID")
	case op == WalCheckpoint && d.begun:
		return bad("checkpoint record not at log start")
	case op == WalCheckpoint:
		d.base = lsn
	case op == WalDelete && tid != 0:
		return bad("delete record carries TID %d", tid)
	case lsn != d.last+1:
		return bad("LSN %d after %d, want %d", lsn, d.last, d.last+1)
	}
	d.last, d.begun = lsn, true
	return op, key, tid, nil
}

// WAL is one open write-ahead log: an append buffer, the file it drains
// to, and the group-commit state electing a single fsync leader. All
// methods are safe for concurrent use. I/O errors are sticky: once an
// append, sync or rotation fails, the log can no longer promise that
// acknowledged records are durable, so every subsequent call returns the
// first error.
type WAL struct {
	path  string
	delay time.Duration

	mu      sync.Mutex
	cond    *sync.Cond
	f       *os.File
	buf     []byte // serialized records not yet written to f
	spare   []byte // recycled append buffer
	lastLSN uint64 // highest LSN assigned
	durable uint64 // highest LSN known durable
	base    uint64 // checkpoint LSN of the current file
	size    int64  // valid bytes in f
	syncing bool   // a group-commit leader owns the file descriptor
	err     error  // sticky failure
}

// CreateWAL creates (or truncates) a write-ahead log at path with the
// given checkpoint base, writes its header and checkpoint record durably,
// and returns the log ready for appends. delay is the group-commit
// accumulation window: a commit leader waits that long before its fsync so
// concurrent committers share it (0 syncs immediately).
func CreateWAL(path string, base uint64, delay time.Duration) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	blob := walFileProlog(base)
	if _, err := f.Write(blob); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	syncDir(filepath.Dir(path))
	w := &WAL{path: path, delay: delay, f: f,
		lastLSN: base, durable: base, base: base, size: int64(len(blob))}
	w.cond = sync.NewCond(&w.mu)
	return w, nil
}

// ContinueWAL reopens an existing log for appending after a replay:
// rep must be the report ReplayWALFile produced for path. A torn tail —
// bytes past the valid record prefix — is truncated off first (the
// wal/truncate chaos point fires before the truncation), so appended
// records always follow a valid record boundary. Appends continue at
// rep.LastLSN + 1.
func ContinueWAL(path string, rep WALReplayReport, delay time.Duration) (*WAL, error) {
	if rep.ValidSize < headerSize {
		return nil, formatErr(ErrTruncated, 0, "log header unsalvageable; recreate the log")
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() > rep.ValidSize {
		if chaos.Fire(chaos.WalTruncate) {
			f.Close()
			return nil, ErrInjected
		}
		if err := f.Truncate(rep.ValidSize); err != nil {
			f.Close()
			return nil, err
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(rep.ValidSize, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	w := &WAL{path: path, delay: delay, f: f,
		lastLSN: rep.LastLSN, durable: rep.LastLSN, base: rep.Base, size: rep.ValidSize}
	w.cond = sync.NewCond(&w.mu)
	return w, nil
}

// walFileProlog serializes a fresh log file's header plus checkpoint
// record.
func walFileProlog(base uint64) []byte {
	var h [headerSize]byte
	copy(h[:8], Magic[:])
	binary.LittleEndian.PutUint16(h[8:], Version)
	binary.LittleEndian.PutUint16(h[10:], KindWAL)
	binary.LittleEndian.PutUint32(h[12:], crc32.Checksum(h[:12], castagnoli))
	return appendWalRecord(h[:], WalCheckpoint, base, nil, 0)
}

// appendWalRecord serializes one record onto dst, in place: the payload is
// built directly behind a reserved length|CRC word that is patched once the
// payload is complete, so an append costs no scratch buffer.
func appendWalRecord(dst []byte, op WalOp, lsn uint64, key []byte, tid uint64) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0, byte(op))
	dst = binary.AppendUvarint(dst, lsn)
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	dst = append(dst, key...)
	dst = binary.AppendUvarint(dst, tid)
	payload := dst[start+8:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(payload, castagnoli))
	return dst
}

// Append assigns the next LSN to one operation and buffers its record; no
// I/O happens until Commit. The key bytes are copied. Append returns the
// assigned LSN; the operation is acknowledged only once Commit(lsn)
// returns nil.
func (w *WAL) Append(op WalOp, key []byte, tid uint64) (uint64, error) {
	if len(key) > MaxKeyLen {
		return 0, formatErr(ErrCorrupt, 0, "key length %d exceeds %d", len(key), MaxKeyLen)
	}
	if tid > MaxTID {
		return 0, formatErr(ErrCorrupt, 0, "TID %#x exceeds MaxTID", tid)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return 0, w.err
	}
	lsn := w.lastLSN + 1
	w.buf = appendWalRecord(w.buf, op, lsn, key, tid)
	w.lastLSN = lsn
	return lsn, nil
}

// Commit makes every record with LSN ≤ lsn durable and returns once it is.
// Concurrent commits group: one caller becomes the fsync leader (after the
// configured accumulation delay), writes the whole buffer and issues a
// single fsync that acknowledges every record buffered so far; the others
// wait on it. A failed write or sync poisons the log.
func (w *WAL) Commit(lsn uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		if w.err != nil {
			return w.err
		}
		if w.durable >= lsn {
			return nil
		}
		if w.syncing {
			w.cond.Wait()
			continue
		}
		w.syncing = true
		if w.delay > 0 {
			// Accumulation window: let concurrent appends pile into the
			// buffer so they share this fsync.
			w.mu.Unlock()
			time.Sleep(w.delay)
			w.mu.Lock()
		}
		buf := w.buf
		w.buf = w.spare[:0]
		w.spare = nil
		target := w.lastLSN
		f := w.f
		w.mu.Unlock()
		err := walWrite(f, buf)
		if err == nil {
			if chaos.Fire(chaos.WalSync) {
				err = ErrInjected
			} else {
				err = f.Sync()
			}
		}
		w.mu.Lock()
		w.syncing = false
		if err != nil {
			w.err = err
			w.cond.Broadcast()
			return err
		}
		w.size += int64(len(buf))
		w.spare = buf[:0]
		if target > w.durable {
			w.durable = target
		}
		w.cond.Broadcast()
	}
}

// walWrite issues buffered records to the log file. When a chaos registry
// is armed the bytes go out as two writes with the WalTornWrite point
// between them, so an injected crash leaves a genuinely torn tail record.
func walWrite(f *os.File, p []byte) error {
	if len(p) == 0 {
		return nil
	}
	if chaos.Fire(chaos.WalAppend) {
		return ErrInjected
	}
	if !chaos.Armed() {
		_, err := f.Write(p)
		return err
	}
	half := len(p) / 2
	if _, err := f.Write(p[:half]); err != nil {
		return err
	}
	if chaos.Fire(chaos.WalTornWrite) {
		return ErrInjected
	}
	_, err := f.Write(p[half:])
	return err
}

// Sync makes every appended record durable (Commit of the last assigned
// LSN).
func (w *WAL) Sync() error {
	w.mu.Lock()
	lsn := w.lastLSN
	w.mu.Unlock()
	return w.Commit(lsn)
}

// Rotate atomically replaces the log with a fresh one whose checkpoint
// base is the current last LSN: the caller has just made a snapshot
// covering every assigned LSN durable, so the old records are dead weight.
// The caller must guarantee quiescence — no concurrent Appends — by
// holding its own write exclusion; Rotate refuses (without poisoning the
// log) if records were appended past base. The replacement goes through
// tmp + fsync + rename + dir-fsync, so a crash at any step leaves a
// replayable log, and completing the rotation acknowledges every pending
// commit (the snapshot made them durable).
func (w *WAL) Rotate(base uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.syncing {
		w.cond.Wait()
	}
	if w.err != nil {
		return w.err
	}
	if base != w.lastLSN {
		return formatErr(ErrCorrupt, 0, "rotate at base %d with records through LSN %d", base, w.lastLSN)
	}
	tmp := w.path + ".new"
	nf, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		w.err = err
		return err
	}
	blob := walFileProlog(base)
	if _, err = nf.Write(blob); err == nil {
		err = nf.Sync()
	}
	if err != nil {
		nf.Close()
		os.Remove(tmp)
		w.err = err
		return err
	}
	if chaos.Fire(chaos.WalRotate) {
		nf.Close()
		os.Remove(tmp)
		w.err = ErrInjected
		return w.err
	}
	if err = os.Rename(tmp, w.path); err != nil {
		nf.Close()
		os.Remove(tmp)
		w.err = err
		return err
	}
	syncDir(filepath.Dir(w.path))
	w.f.Close()
	w.f = nf
	w.base = base
	w.buf = w.buf[:0] // records ≤ base: the snapshot covers them
	w.size = int64(len(blob))
	if base > w.durable {
		w.durable = base // the snapshot made everything ≤ base durable
	}
	w.cond.Broadcast()
	return nil
}

// Close makes every appended record durable and closes the log file. A
// poisoned log closes its file without further I/O and returns the sticky
// error.
func (w *WAL) Close() error {
	serr := w.Sync()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f != nil {
		if cerr := w.f.Close(); serr == nil && cerr != nil {
			serr = cerr
		}
		w.f = nil
	}
	return serr
}

// Err returns the sticky I/O error that poisoned the log, nil while
// healthy.
func (w *WAL) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Poison marks the log failed with err: every subsequent Append, Commit or
// Rotate returns it (an already-poisoned log keeps its first error). The
// sharded checkpoint uses it to fail a store as a unit — when one sibling
// log's rotation fails mid-checkpoint, the healthy logs must stop
// acknowledging writes too, or the store would keep running half-rotated.
func (w *WAL) Poison(err error) {
	if err == nil {
		return
	}
	w.mu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.cond.Broadcast()
	w.mu.Unlock()
}

// LastLSN returns the highest assigned LSN.
func (w *WAL) LastLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lastLSN
}

// DurableLSN returns the highest LSN known durable.
func (w *WAL) DurableLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.durable
}

// Base returns the checkpoint LSN of the current log file.
func (w *WAL) Base() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.base
}

// Buffered returns the byte length of the appended records no commit has
// written to the file yet — the fsync debt a caller that defers its commits
// is running up.
func (w *WAL) Buffered() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.buf)
}

// Size returns the valid byte length of the current log file, buffered
// records excluded.
func (w *WAL) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// Path returns the log's file path.
func (w *WAL) Path() string { return w.path }

// WALTailer incrementally reads committed records out of a live log file —
// the leader side of streaming replication tails each shard's log with one.
// It owns its own read-only descriptor, so it never perturbs the writing
// WAL, and it only parses bytes below the limit the caller passes to Next
// (the WAL's Size(), which advances exactly at group-commit completion), so
// it never races an in-flight write: everything below that limit is a fully
// written, stable record. The log must not rotate while a tailer is open on
// it (the replication session guarantees that by holding the store's
// checkpoint lock).
type WALTailer struct {
	f   *os.File
	off int64
	dec walDecoder
	buf []byte
}

// OpenWALTailer opens the log at path for incremental tailing, validating
// its header. The leading checkpoint record is consumed transparently by
// the first Next call; Base is valid after that call returns.
func OpenWALTailer(path string) (*WALTailer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	rd := &reader{r: f}
	if _, damage := rd.header(KindWAL); damage != nil {
		f.Close()
		return nil, damage
	}
	return &WALTailer{f: f, off: rd.off}, nil
}

// Next returns the next data record whose bytes lie entirely below limit.
// ok is false when no complete further record fits under limit yet — poll
// again once the writer has committed more. The key slice is only valid
// until the next call. A non-nil error means the log below limit is not
// well-formed (corruption, an LSN discontinuity, a misplaced checkpoint
// record) and the tailer is unusable.
func (t *WALTailer) Next(limit int64) (op WalOp, key []byte, tid uint64, lsn uint64, ok bool, err error) {
	for {
		if t.off+8 > limit {
			return 0, nil, 0, 0, false, nil
		}
		var prefix [8]byte
		if _, err := t.f.ReadAt(prefix[:], t.off); err != nil {
			return 0, nil, 0, 0, false, formatErr(ErrTruncated, t.off, "record header below limit %d: %v", limit, err)
		}
		length, damage := walRecordLen(prefix[:], t.off)
		if damage != nil {
			return 0, nil, 0, 0, false, damage
		}
		end := t.off + 8 + int64(length)
		if end > limit {
			return 0, nil, 0, 0, false, nil
		}
		t.buf = append(append(t.buf[:0], prefix[:]...), make([]byte, length)...)
		if _, err := t.f.ReadAt(t.buf[8:], t.off+8); err != nil {
			return 0, nil, 0, 0, false, formatErr(ErrTruncated, t.off+8, "record payload below limit %d: %v", limit, err)
		}
		if op, key, tid, damage = t.dec.record(t.buf, t.off); damage != nil {
			return 0, nil, 0, 0, false, damage
		}
		t.off = end
		if op != WalCheckpoint {
			return op, key, tid, t.dec.last, true, nil
		}
	}
}

// Base returns the log's checkpoint base LSN; it is zero until the first
// Next call has consumed the leading checkpoint record.
func (t *WALTailer) Base() uint64 { return t.dec.base }

// Close releases the tailer's file descriptor.
func (t *WALTailer) Close() error { return t.f.Close() }
