package persist

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
)

// The snapshot format's decoders. Every rule a reader enforces lives in
// exactly one function of this file (the packed codec's in codec.go, the
// log's in wal.go); none of them performs I/O. The drivers — the sequential
// reader in reader.go and PageReader in page.go — only decide which bytes to
// fetch next and hand them here, so a rule is fixed, fuzzed and reported
// (kind and byte offset) identically however the bytes arrived.

// anyKind as a wanted kind accepts whatever content kind the header names.
const anyKind uint16 = 0

// checkedLen decodes the uvarint length field at the head of p, accepting it
// only when it is at most max. The bound is applied to the decoded uint64,
// before the int conversion and before the caller can add it to anything, so
// a hostile length can neither go negative nor wrap a sum.
func checkedLen(p []byte, max int) (v, n int, ok bool) {
	u, n := binary.Uvarint(p)
	if n <= 0 || u > uint64(max) {
		return 0, 0, false
	}
	return int(u), n, true
}

// decodeHeader validates the 16-byte section header h found at file offset
// base and returns its content kind.
func decodeHeader(h []byte, base int64, wantKind uint16) (uint16, *FormatError) {
	if !bytes.Equal(h[:8], Magic[:]) {
		return 0, formatErr(ErrBadMagic, base, "got % x, want % x", h[:8], Magic[:])
	}
	if got, want := binary.LittleEndian.Uint32(h[12:]), crc32.Checksum(h[:12], castagnoli); got != want {
		return 0, formatErr(ErrChecksum, base, "header CRC %#x, computed %#x", got, want)
	}
	if v := binary.LittleEndian.Uint16(h[8:]); v != Version {
		return 0, formatErr(ErrVersionSkew, base+8, "format version %d, reader supports %d", v, Version)
	}
	kind := binary.LittleEndian.Uint16(h[10:])
	if wantKind != anyKind && kind != wantKind {
		return 0, formatErr(ErrWrongKind, base+10, "content kind %d, want %d", kind, wantKind)
	}
	return kind, nil
}

// decodeBlockWord splits the length word of the unit at off into its codec
// and stored payload length. A zero word — length 0 with no damage — marks
// the trailer.
func decodeBlockWord(word uint32, off int64) (Codec, int, *FormatError) {
	codec, length := Codec(word>>24), int(word&blockLenMask)
	switch {
	case word == 0:
		return 0, 0, nil
	case codec > readerCodecLimit:
		return 0, 0, formatErr(ErrUnsupportedCodec, off, "block codec %q not supported by this reader", codec)
	case length == 0:
		return 0, 0, formatErr(ErrCorrupt, off, "empty block")
	case length > maxBlockLen:
		return 0, 0, formatErr(ErrCorrupt, off, "block payload %d exceeds cap %d", length, maxBlockLen)
	}
	return codec, length, nil
}

// decodeTrailer validates the 16-byte trailer t found at off and returns
// the entry count it records.
func decodeTrailer(t []byte, off int64) (uint64, *FormatError) {
	if w := binary.LittleEndian.Uint32(t); w != 0 {
		return 0, formatErr(ErrCorrupt, off, "trailer length word %#x, want 0", w)
	}
	crc := binary.LittleEndian.Uint32(t[12:])
	if got := crc32.Checksum(t[4:12], castagnoli); got != crc {
		return 0, formatErr(ErrChecksum, off, "trailer CRC %#x, computed %#x", crc, got)
	}
	return binary.LittleEndian.Uint64(t[4:]), nil
}

// decodeEntry parses the `uvarint keyLen | key | uvarint tid` entry at the
// head of p — the encoding block payloads and log records share. It returns
// the key (aliasing p), the TID and the entry's size, or what is wrong.
func decodeEntry(p []byte) (key []byte, tid uint64, size int, bad string) {
	klen, n, ok := checkedLen(p, MaxKeyLen)
	if !ok {
		return nil, 0, 0, "bad key length"
	}
	if klen > len(p)-n {
		return nil, 0, 0, "key runs past the end of its unit"
	}
	key = p[n : n+klen]
	tid, m := binary.Uvarint(p[n+klen:])
	if m <= 0 || tid > MaxTID {
		return nil, 0, 0, "bad TID"
	}
	return key, tid, n + klen + m, ""
}

// keyOrder carries the strictly-ascending-key rule from one block of a
// section to the next.
type keyOrder struct {
	last []byte
	set  bool
}

// decodeBlock validates one block — stored payload against its CRC, packed
// payloads expanded only after that, then the entry stream's structure and
// strict key order, continuing from ord — and delivers each entry to fn as
// it is validated. The key slices alias the decoded payload. It returns the
// entries delivered and the length of the raw entry stream; a non-nil err
// is fn's.
func decodeBlock(codec Codec, crc uint32, payload []byte, off int64, ord *keyOrder, fn EntryFunc) (n uint64, rawLen int, damage *FormatError, err error) {
	if got := blockChecksum(codec, payload); got != crc {
		return 0, 0, formatErr(ErrChecksum, off, "block CRC %#x, computed %#x", crc, got), nil
	}
	if codec == CodecPacked {
		// Entry offsets inside a packed block refer to the expanded stream.
		if payload, damage = decodePacked(payload, off); damage != nil {
			return 0, 0, damage, nil
		}
	}
	prev, set := ord.last, ord.set
	for pos := 0; pos < len(payload); {
		entryOff := off + 8 + int64(pos)
		key, tid, size, bad := decodeEntry(payload[pos:])
		if bad != "" {
			return n, len(payload), formatErr(ErrCorrupt, entryOff, "%s", bad), nil
		}
		if set && bytes.Compare(prev, key) >= 0 {
			return n, len(payload), formatErr(ErrCorrupt, entryOff, "keys not strictly ascending: %q then %q", prev, key), nil
		}
		prev, set = key, true
		if err := fn(key, tid); err != nil {
			return n, len(payload), nil, err
		}
		n++
		pos += size
	}
	// Only the block's last key outlives its payload buffer.
	ord.last, ord.set = append(ord.last[:0], prev...), set
	return n, len(payload), nil, nil
}

// decodeIndex parses the HIDX block index idx of a section whose trailer
// sits at trailerOff, requiring exactly contiguous blocks from the header
// to the trailer with strictly ascending first keys. The index is an
// accelerator, never an authority: any inconsistency just reports false.
func decodeIndex(idx []byte, trailerOff int64) ([]BlockInfo, bool) {
	var blocks []BlockInfo
	off, end := int64(0), int64(headerSize)
	var prevKey []byte
	for pos := 0; pos < len(idx); {
		d, n := binary.Uvarint(idx[pos:])
		if n <= 0 || d > uint64(trailerOff) {
			return nil, false
		}
		pos += n
		length, n, ok := checkedLen(idx[pos:], maxBlockLen)
		if !ok || length == 0 {
			return nil, false
		}
		pos += n
		klen, n, ok := checkedLen(idx[pos:], MaxKeyLen)
		if !ok || klen > len(idx)-pos-n {
			return nil, false
		}
		pos += n
		key := append([]byte{}, idx[pos:pos+klen]...)
		pos += klen
		if off += int64(d); off != end {
			return nil, false
		}
		if len(blocks) > 0 && bytes.Compare(prevKey, key) >= 0 {
			return nil, false
		}
		blocks = append(blocks, BlockInfo{Off: off, Len: length, FirstKey: key})
		prevKey, end = key, off+8+int64(length)
	}
	return blocks, end == trailerOff
}
