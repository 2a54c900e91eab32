package persist

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"github.com/hotindex/hot/internal/chaos"
)

// Writer streams a snapshot: entries are appended in ascending key order
// and flushed as checksummed blocks. It buffers at most one block, so
// snapshots of arbitrarily large indexes run in constant memory over the
// cursor walk that feeds them.
type Writer struct {
	w       io.Writer
	buf     []byte // current block payload
	scratch []byte // assembled block (len+crc+payload)
	enc     []byte // codec scratch (packed payload candidate)
	prevKey []byte
	off     int64 // bytes issued to w
	count   uint64
	entries bool // at least one entry in buf's block
	err     error
	closed  bool

	codec  Codec // requested block codec (CodecRaw: store payloads as-is)
	packed int   // blocks actually stored packed

	indexing bool        // collect a per-block index, emitted after the trailer
	index    []BlockInfo // one entry per flushed block
	firstKey []byte      // first key of the block being buffered
}

// SetCodec selects the block codec for subsequently flushed blocks.
// CodecPacked delta-compresses each block, falling back to raw storage
// per block when packing would not shrink it; codecs this build does not
// know are written raw. Call it before the first WriteEntry for a
// uniformly encoded file.
func (sw *Writer) SetCodec(c Codec) { sw.codec = c }

// PackedBlocks returns how many flushed blocks were stored compressed.
func (sw *Writer) PackedBlocks() int { return sw.packed }

// EnableBlockIndex makes the writer collect a sparse per-block index
// (first key + file offset per block) and append it after the trailer as
// the HIDX extension (see page.go). It must be called before the first
// WriteEntry. Sequential readers are unaffected; PageReader uses the
// index to open the file without scanning it.
func (sw *Writer) EnableBlockIndex() {
	if sw.count == 0 && !sw.closed {
		sw.indexing = true
	}
}

// NewWriter writes the snapshot header for the given content kind and
// returns a Writer ready to receive entries.
func NewWriter(w io.Writer, kind uint16) (*Writer, error) {
	sw := &Writer{w: w, buf: make([]byte, 0, blockTarget+MaxKeyLen+20)}
	var h [headerSize]byte
	copy(h[:8], Magic[:])
	binary.LittleEndian.PutUint16(h[8:], Version)
	binary.LittleEndian.PutUint16(h[10:], kind)
	binary.LittleEndian.PutUint32(h[12:], crc32.Checksum(h[:12], castagnoli))
	if chaos.Fire(chaos.SnapWriteHeader) {
		sw.err = ErrInjected
		return nil, sw.err
	}
	if err := sw.write(h[:]); err != nil {
		return nil, err
	}
	return sw, nil
}

// WriteEntry appends one (key, tid) entry. Keys must arrive in strictly
// ascending byte order; the writer rejects disorder so a buggy cursor walk
// cannot produce a snapshot that loads into a corrupt tree.
func (sw *Writer) WriteEntry(key []byte, tid uint64) error {
	if sw.err != nil {
		return sw.err
	}
	if sw.closed {
		return sw.fail(formatErr(ErrCorrupt, sw.off, "write after Close"))
	}
	if len(key) > MaxKeyLen {
		return sw.fail(formatErr(ErrCorrupt, sw.off, "key length %d exceeds %d", len(key), MaxKeyLen))
	}
	if tid > MaxTID {
		return sw.fail(formatErr(ErrCorrupt, sw.off, "TID %#x exceeds MaxTID", tid))
	}
	if sw.count > 0 && bytes.Compare(sw.prevKey, key) >= 0 {
		return sw.fail(formatErr(ErrCorrupt, sw.off, "keys not strictly ascending: %q then %q", sw.prevKey, key))
	}
	if sw.indexing && !sw.entries {
		sw.firstKey = append(sw.firstKey[:0], key...)
	}
	sw.prevKey = append(sw.prevKey[:0], key...)
	sw.buf = binary.AppendUvarint(sw.buf, uint64(len(key)))
	sw.buf = append(sw.buf, key...)
	sw.buf = binary.AppendUvarint(sw.buf, tid)
	sw.count++
	sw.entries = true
	if len(sw.buf) >= blockTarget {
		return sw.flushBlock()
	}
	return nil
}

// Count returns the number of entries written so far.
func (sw *Writer) Count() uint64 { return sw.count }

// Close flushes the final block and writes the trailer. It does not sync
// or close the underlying writer.
func (sw *Writer) Close() error {
	if sw.err != nil {
		return sw.err
	}
	if sw.closed {
		return nil
	}
	if sw.entries {
		if err := sw.flushBlock(); err != nil {
			return err
		}
	}
	var t [trailerSize]byte
	binary.LittleEndian.PutUint64(t[4:], sw.count)
	binary.LittleEndian.PutUint32(t[12:], crc32.Checksum(t[4:12], castagnoli))
	if err := sw.write(t[:]); err != nil {
		return err
	}
	if sw.indexing {
		if err := sw.writeIndex(); err != nil {
			return err
		}
	}
	sw.closed = true
	return nil
}

// writeIndex emits the collected block index and the HIDX footer after
// the trailer (see page.go for the layout).
func (sw *Writer) writeIndex() error {
	p := sw.scratch[:0]
	prev := int64(0)
	for _, b := range sw.index {
		p = binary.AppendUvarint(p, uint64(b.Off-prev))
		p = binary.AppendUvarint(p, uint64(b.Len))
		p = binary.AppendUvarint(p, uint64(len(b.FirstKey)))
		p = append(p, b.FirstKey...)
		prev = b.Off
	}
	idxLen := len(p)
	p = binary.LittleEndian.AppendUint32(p, crc32.Checksum(p[:idxLen], castagnoli))
	p = binary.LittleEndian.AppendUint32(p, uint32(idxLen))
	p = binary.LittleEndian.AppendUint32(p, indexMagic)
	sw.scratch = p
	return sw.write(p)
}

// flushBlock seals the buffered payload into a checksummed block. When a
// chaos registry is armed the block body is issued as two writes with the
// SnapTornWrite point between them, so an injected fault or crash there
// leaves a genuinely torn tail: a block whose length field promises more
// bytes than exist, or whose CRC no longer matches.
func (sw *Writer) flushBlock() error {
	payload := sw.buf
	codec := CodecRaw
	if sw.codec == CodecPacked {
		if enc, ok := encodePacked(sw.enc[:0], payload); ok {
			sw.enc = enc
			payload = enc
			codec = CodecPacked
			sw.packed++
		}
	}
	if sw.indexing {
		sw.index = append(sw.index, BlockInfo{
			Off:      sw.off,
			Len:      len(payload),
			FirstKey: append([]byte(nil), sw.firstKey...),
		})
	}
	sw.scratch = sw.scratch[:0]
	sw.scratch = binary.LittleEndian.AppendUint32(sw.scratch, uint32(codec)<<24|uint32(len(payload)))
	sw.scratch = binary.LittleEndian.AppendUint32(sw.scratch, blockChecksum(codec, payload))
	sw.scratch = append(sw.scratch, payload...)
	sw.buf = sw.buf[:0]
	sw.entries = false
	if chaos.Fire(chaos.SnapWriteBlock) {
		return sw.fail(ErrInjected)
	}
	if !chaos.Armed() {
		return sw.write(sw.scratch)
	}
	half := len(sw.scratch) / 2
	if err := sw.write(sw.scratch[:half]); err != nil {
		return err
	}
	if chaos.Fire(chaos.SnapTornWrite) {
		return sw.fail(ErrInjected)
	}
	return sw.write(sw.scratch[half:])
}

func (sw *Writer) write(p []byte) error {
	n, err := sw.w.Write(p)
	sw.off += int64(n)
	if err != nil {
		return sw.fail(err)
	}
	return nil
}

func (sw *Writer) fail(err error) error {
	sw.err = err
	return err
}

// SaveFile writes a snapshot to path with atomic durability: the stream
// goes to `path + ".tmp"`, is fsynced, renamed over path, and the parent
// directory is fsynced. write is handed the Writer and streams the entries
// (it must not Close it). On any error — including injected chaos faults —
// the temp file is removed and path is left untouched, so the previous
// snapshot, if any, remains loadable.
func SaveFile(path string, kind uint16, write func(w *Writer) error) error {
	return saveFile(path, kind, false, write)
}

// saveFile is SaveFile, with the HIDX block index appended when indexed.
func saveFile(path string, kind uint16, indexed bool, write func(w *Writer) error) error {
	return AtomicFile(path, func(f io.Writer) error {
		sw, err := NewWriter(f, kind)
		if err != nil {
			return err
		}
		if indexed {
			sw.EnableBlockIndex()
		}
		if err := write(sw); err != nil {
			return err
		}
		return sw.Close()
	})
}

// AtomicFile runs SaveFile's crash-safe file protocol around an arbitrary
// stream: write receives the temp file and may emit any number of
// complete snapshot sections (sharded snapshots multiplex a manifest plus
// one section per shard into one file this way). The tmp-write, fsync,
// rename and directory-fsync steps — and their chaos injection points —
// are shared with SaveFile, so multiplexed files get the identical
// all-or-nothing durability.
func AtomicFile(path string, write func(w io.Writer) error) (err error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	if err = write(f); err != nil {
		return err
	}
	if chaos.Fire(chaos.SnapSync) {
		return ErrInjected
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if chaos.Fire(chaos.SnapClose) {
		return ErrInjected
	}
	// A failed close after a clean fsync still voids the save: networked
	// filesystems report deferred write errors here, and silently keeping
	// the temp file would hand the rename a snapshot whose bytes were
	// never acknowledged by the kernel.
	if err = f.Close(); err != nil {
		return err
	}
	if chaos.Fire(chaos.SnapRename) {
		return ErrInjected
	}
	if err = os.Rename(tmp, path); err != nil {
		return err
	}
	if chaos.Fire(chaos.SnapDirSync) {
		return ErrInjected
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a rename within it is durable. Filesystems
// that do not support directory fsync (returning an error) are tolerated:
// the rename itself was already issued.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	d.Sync()
	return nil
}
