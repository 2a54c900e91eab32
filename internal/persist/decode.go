package persist

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"

	"github.com/hotindex/hot/internal/bits"
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

// walkBlock is the one validating walker: every rule of a block unit — the
// length word against the bytes fetched, the CRC over the stored payload, a
// packed payload's header, each key step (blockIter.next), strict key order
// continuing from ord, what a packed block would expand to, the TID stream's
// width, overflow and MaxTID, no trailing bytes — is enforced here and
// nowhere else, over the bytes as stored: nothing is expanded. As each key is
// validated, a non-nil page notes its restart points and a non-nil fn is
// handed the entry — of a raw block only, whose TIDs are inline (a packed
// block's TID stream sits behind its keys and is validated after them). It
// returns the block's layout, the entries fn took and the length of the raw
// entry stream the block stands for; a non-nil err is fn's.
func walkBlock(unit []byte, off int64, ord *keyOrder, page *Page, fn EntryFunc) (b block, n uint64, rawLen int, damage *FormatError, err error) {
	codec, length, damage := decodeBlockWord(binary.LittleEndian.Uint32(unit), off)
	if damage != nil {
		return b, 0, 0, damage, nil
	}
	if length != len(unit)-8 {
		return b, 0, 0, formatErr(ErrCorrupt, off, "block length %d disagrees with the %d bytes fetched", length, len(unit)-8), nil
	}
	if got, crc := blockChecksum(codec, unit[8:]), binary.LittleEndian.Uint32(unit[4:]); got != crc {
		return b, 0, 0, formatErr(ErrChecksum, off, "block CRC %#x, computed %#x", crc, got), nil
	}
	b = block{unit: unit, keys: 8}
	// Raw damage is reported at the entry, packed damage at the block: a
	// position inside a compressed stream names no entry. (Not a closure
	// over b: that would move the layout every step reads to the heap.)
	fail := func(pos int, format string, args ...any) *FormatError {
		if codec == CodecPacked {
			pos, format = 0, "packed block: "+format
		}
		return formatErr(ErrCorrupt, off+int64(pos), format, args...)
	}
	if codec == CodecPacked {
		if length < 2 {
			return b, n, rawLen, fail(0, "%d bytes is too short", length), nil
		}
		flags := unit[8]
		if flags&^(packedTIDsEmbedded|packedKeysFixed64) != 0 {
			return b, n, rawLen, fail(0, "unknown flags %#x", flags), nil
		}
		count, sz, ok := checkedLen(unit[9:], MaxBlockEntries)
		if !ok || count == 0 {
			return b, n, rawLen, fail(0, "bad entry count"), nil
		}
		b.form, b.embedded, b.n, b.keys = formFront, flags&packedTIDsEmbedded != 0, count, 9+sz
		if flags&packedKeysFixed64 != 0 {
			b.form = formFixed64
			if b.keys+9 > len(unit) {
				return b, n, rawLen, fail(0, "delta key stream cut short"), nil
			}
			if b.keyWidth = uint(unit[b.keys+8]); b.keyWidth > 64 {
				return b, n, rawLen, fail(0, "key delta width %d", b.keyWidth), nil
			}
			if b.keys+9+bits.PackedLen(count-1, b.keyWidth) > len(unit) {
				return b, n, rawLen, fail(0, "delta key stream cut short"), nil
			}
		}
	}

	it := b.iter()
	for it.more() {
		entry := it.pos
		if bad := it.next(); bad != "" {
			return b, n, rawLen, fail(entry, "%s", bad), nil
		}
		if it.i == 0 && ord.set && bytes.Compare(ord.last, it.key) >= 0 {
			return b, n, rawLen, fail(entry, "keys not strictly ascending: %q then %q", ord.last, it.key), nil
		}
		if codec == CodecPacked {
			rawLen += uvarintLen(uint64(len(it.key))) + len(it.key)
			if b.embedded {
				if len(it.key) != 8 {
					return b, n, rawLen, fail(0, "embedded TID on a %d-byte key", len(it.key)), nil
				}
				tid := it.curTID()
				if tid > MaxTID {
					return b, n, rawLen, fail(0, "bad TID"), nil
				}
				rawLen += uvarintLen(tid)
			}
			if rawLen > maxBlockLen {
				return b, n, rawLen, fail(0, "expands past block cap"), nil
			}
		}
		if page != nil {
			page.noteRestart(&it)
		}
		if fn != nil && codec == CodecRaw {
			if err := fn(it.key, it.tid); err != nil {
				return b, n, rawLen, nil, err
			}
			n++
		}
	}
	if codec == CodecRaw {
		b.n, rawLen = it.i+1, length
	} else {
		end := it.pos
		if b.form == formFixed64 {
			end = b.keys + 9 + bits.PackedLen(b.n-1, b.keyWidth)
		}
		if !b.embedded {
			base, m := binary.Uvarint(unit[end:])
			if m <= 0 {
				return b, n, rawLen, fail(0, "bad TID base"), nil
			}
			if end += m; end >= len(unit) {
				return b, n, rawLen, fail(0, "TID stream cut short"), nil
			}
			width := uint(unit[end])
			if end++; width > 64 {
				return b, n, rawLen, fail(0, "TID width %d", width), nil
			}
			if end+bits.PackedLen(b.n, width) > len(unit) {
				return b, n, rawLen, fail(0, "TID stream cut short"), nil
			}
			for i := 0; i < b.n; i++ {
				tid := base + bits.PackedAt(unit[end:], i, width)
				if tid < base || tid > MaxTID {
					return b, n, rawLen, fail(0, "bad TID"), nil
				}
				rawLen += uvarintLen(tid)
			}
			b.tids, b.tidBase, b.tidWidth = end, base, width
			end += bits.PackedLen(b.n, width)
		}
		if end != len(unit) {
			return b, n, rawLen, fail(0, "%d trailing bytes", len(unit)-end), nil
		}
		if rawLen > maxBlockLen {
			return b, n, rawLen, fail(0, "expands past block cap"), nil
		}
	}
	// Only the block's last key outlives its unit.
	ord.last, ord.set = append(ord.last[:0], it.key...), true
	return b, n, rawLen, nil, nil
}

// decodeBlock is the sequential drivers' use of walkBlock: it delivers each
// entry of the unit at off to fn — a raw block's as they are validated, a
// packed block's once the whole block has been — and returns the entries
// delivered and the length of the raw entry stream. The key slices are only
// valid during the call.
func decodeBlock(unit []byte, off int64, ord *keyOrder, fn EntryFunc) (n uint64, rawLen int, damage *FormatError, err error) {
	b, n, rawLen, damage, err := walkBlock(unit, off, ord, nil, fn)
	if damage != nil || err != nil || b.form == formRaw {
		return n, rawLen, damage, err
	}
	for it := b.iter(); it.more(); n++ {
		it.mustNext()
		if err := fn(it.key, it.curTID()); err != nil {
			return n, rawLen, nil, err
		}
	}
	return n, rawLen, nil, nil
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
