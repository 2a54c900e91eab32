package persist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"github.com/hotindex/hot/internal/bits"
)

// Block codec — the opt-in per-block compression of the snapshot format.
//
// Every block stores its codec in the top byte of the 32-bit length word
// (payload lengths are capped far below 2^24, so the byte was always
// zero): raw blocks keep the exact bytes the format has always had, and a
// whole file written with CodecRaw is byte-identical to one written
// before codecs existed. The block CRC always covers the STORED payload —
// compressed bytes for a packed block, with the codec byte prepended to
// the checksummed bytes for any non-raw codec (see blockChecksum) — so
// corruption detection, torn-tail localization and Recover's longest-
// valid-prefix salvage are unchanged: a packed payload is only ever
// decoded after its checksum vouched for both it and its codec.
//
// A packed payload replaces the raw entry stream with:
//
//	flags u8 | uvarint n | key stream | TID stream
//
// The key stream is either front-coded (first key verbatim as
// `uvarint len | key`, every next key as `uvarint lcp | uvarint suffixLen
// | suffix` against its predecessor — the delta domain is the sorted key
// order the format already guarantees) or, when every key in the block is
// exactly 8 bytes, delta-packed: the first key verbatim, then the n-1
// successive differences of the big-endian values, minus one (keys are
// strictly ascending), bit-packed at the block's minimal fixed width. The
// TID stream is `uvarint base | width u8` followed by the n offsets from
// base bit-packed at the block's minimal width — or nothing at all when
// every TID equals the big-endian decode of its 8-byte key (the embedded-
// key convention of the integer sets), which the flags record instead.
//
// The writer keeps a block packed only when the packed payload is
// strictly smaller than the raw one; incompressible blocks are stored
// raw, so a "packed" file degrades gracefully per block and never grows.

// Codec identifies a block payload encoding.
type Codec uint8

const (
	// CodecRaw stores block payloads as the plain entry stream — the
	// format's default, byte-compatible with every earlier reader.
	CodecRaw Codec = 0
	// CodecPacked stores block payloads delta-compressed as described
	// above.
	CodecPacked Codec = 1
)

// String names the codec the way ParseCodec spells it.
func (c Codec) String() string {
	switch c {
	case CodecRaw:
		return "raw"
	case CodecPacked:
		return "packed"
	}
	return fmt.Sprintf("codec(%d)", uint8(c))
}

// ParseCodec parses a codec name as spelled on CLI flags ("raw",
// "packed"), rejecting anything else.
func ParseCodec(s string) (Codec, error) {
	switch s {
	case "raw":
		return CodecRaw, nil
	case "packed":
		return CodecPacked, nil
	}
	return 0, fmt.Errorf("persist: unknown codec %q (want raw or packed)", s)
}

// blockLenMask extracts the stored payload length from a block's length
// word; the byte above it is the codec.
const blockLenMask = 1<<24 - 1

// blockChecksum computes a block's CRC. Raw blocks checksum the payload
// alone — byte-identical to the pre-codec format. Packed blocks prepend
// the codec byte to the checksummed bytes: the codec lives in the length
// word, which no checksum ever covered, and without this a flipped codec
// byte would silently reinterpret compressed bytes as a raw entry stream
// (or vice versa) under a still-valid payload CRC.
func blockChecksum(codec Codec, payload []byte) uint32 {
	if codec == CodecRaw {
		return crc32.Checksum(payload, castagnoli)
	}
	c := [1]byte{byte(codec)}
	return crc32.Update(crc32.Checksum(c[:], castagnoli), castagnoli, payload)
}

// readerCodecLimit is the highest codec this build's readers decode.
// Blocks above it fail with a typed ErrUnsupportedCodec before any
// payload is touched. A variable only so the codec-skew test can simulate
// a reader built without packed support.
var readerCodecLimit = CodecPacked

// Packed payload flag bits.
const (
	// packedTIDsEmbedded: no TID stream; every TID is the big-endian
	// decode of its 8-byte key.
	packedTIDsEmbedded = 1 << 0
	// packedKeysFixed64: every key is 8 bytes and the key stream is
	// delta-packed instead of front-coded.
	packedKeysFixed64 = 1 << 1
)

// uvarintLen returns the byte length of v's canonical uvarint encoding.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// encodePacked compresses a raw block payload, appending the packed form
// to dst. It reports false — leaving dst for reuse but its contents
// meaningless — when the payload does not pack strictly smaller than raw,
// or when it is not a canonical ascending entry stream at all (arbitrary
// bytes are safe input; only writer-built payloads are expected).
func encodePacked(dst, raw []byte) ([]byte, bool) {
	// Parse the raw entry stream, insisting on exactly the bytes the
	// writer emits: canonical uvarints, bounded lengths, strictly
	// ascending keys. Anything else is unpackable, not an error.
	var keys [][]byte
	var tids []uint64
	for pos := 0; pos < len(raw); {
		key, tid, size, bad := decodeEntry(raw[pos:])
		if bad != "" || size != uvarintLen(uint64(len(key)))+len(key)+uvarintLen(tid) {
			return dst, false
		}
		pos += size
		if len(keys) > 0 && bytes.Compare(keys[len(keys)-1], key) >= 0 {
			return dst, false
		}
		keys = append(keys, key)
		tids = append(tids, tid)
	}
	n := len(keys)
	if n == 0 {
		return dst, false
	}

	fixed64 := true
	for _, k := range keys {
		if len(k) != 8 {
			fixed64 = false
			break
		}
	}

	// Key stream: pick the smaller of delta-packing (8-byte keys only)
	// and front coding.
	var keyWidth uint
	fixedSize := -1
	if fixed64 {
		var maxD uint64
		prev := binary.BigEndian.Uint64(keys[0])
		for _, k := range keys[1:] {
			v := binary.BigEndian.Uint64(k)
			if d := v - prev - 1; d > maxD {
				maxD = d
			}
			prev = v
		}
		keyWidth = bits.PackWidth(maxD)
		fixedSize = 8 + 1 + bits.PackedLen(n-1, keyWidth)
	}
	frontSize := uvarintLen(uint64(len(keys[0]))) + len(keys[0])
	for i := 1; i < n; i++ {
		l := lcpLen(keys[i-1], keys[i])
		frontSize += uvarintLen(uint64(l)) + uvarintLen(uint64(len(keys[i])-l)) + len(keys[i]) - l
	}
	useFixed := fixedSize >= 0 && fixedSize <= frontSize
	keySize := frontSize
	if useFixed {
		keySize = fixedSize
	}

	// TID stream: elided entirely under the embedded-key convention,
	// else bit-packed offsets from the block minimum.
	embedded := fixed64
	if embedded {
		for i, k := range keys {
			if binary.BigEndian.Uint64(k) != tids[i] {
				embedded = false
				break
			}
		}
	}
	var tidBase uint64
	var tidWidth uint
	tidSize := 0
	if !embedded {
		tidBase = tids[0]
		var maxT uint64
		for _, t := range tids {
			if t < tidBase {
				tidBase = t
			}
			if t > maxT {
				maxT = t
			}
		}
		tidWidth = bits.PackWidth(maxT - tidBase)
		tidSize = uvarintLen(tidBase) + 1 + bits.PackedLen(n, tidWidth)
	}

	total := 1 + uvarintLen(uint64(n)) + keySize + tidSize
	if total >= len(raw) {
		return dst, false
	}

	var flags byte
	if embedded {
		flags |= packedTIDsEmbedded
	}
	if useFixed {
		flags |= packedKeysFixed64
	}
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, uint64(n))
	if useFixed {
		dst = append(dst, keys[0]...)
		dst = append(dst, byte(keyWidth))
		var deltas []uint64
		prev := binary.BigEndian.Uint64(keys[0])
		for _, k := range keys[1:] {
			v := binary.BigEndian.Uint64(k)
			deltas = append(deltas, v-prev-1)
			prev = v
		}
		dst = bits.AppendPacked(dst, deltas, keyWidth)
	} else {
		dst = binary.AppendUvarint(dst, uint64(len(keys[0])))
		dst = append(dst, keys[0]...)
		for i := 1; i < n; i++ {
			l := lcpLen(keys[i-1], keys[i])
			dst = binary.AppendUvarint(dst, uint64(l))
			dst = binary.AppendUvarint(dst, uint64(len(keys[i])-l))
			dst = append(dst, keys[i][l:]...)
		}
	}
	if !embedded {
		dst = binary.AppendUvarint(dst, tidBase)
		dst = append(dst, byte(tidWidth))
		offs := make([]uint64, n)
		for i, t := range tids {
			offs[i] = t - tidBase
		}
		dst = bits.AppendPacked(dst, offs, tidWidth)
	}
	return dst, true
}

// decodePacked expands a packed payload back into the exact raw entry
// stream it was encoded from. Arbitrary bytes are safe input: any
// structural violation — unknown flags, out-of-bounds lengths or widths,
// overflowing deltas, trailing bytes, a reconstruction larger than the
// block cap — returns a typed corruption error at blockOff, never a
// panic and never an unchecked byte. The caller's entry loop still
// enforces key order and TID bounds on the reconstruction, exactly as it
// does for raw payloads.
func decodePacked(packed []byte, blockOff int64) ([]byte, *FormatError) {
	bad := func(format string, args ...any) ([]byte, *FormatError) {
		return nil, formatErr(ErrCorrupt, blockOff, "packed block: "+format, args...)
	}
	if len(packed) < 2 {
		return bad("%d bytes is too short", len(packed))
	}
	flags := packed[0]
	if flags&^(packedTIDsEmbedded|packedKeysFixed64) != 0 {
		return bad("unknown flags %#x", flags)
	}
	n, sz, ok := checkedLen(packed[1:], maxBlockLen/2)
	if !ok || n == 0 {
		return bad("bad entry count")
	}
	pos := 1 + sz

	// Key stream → a flat arena with an offset per key. Every size is
	// bounded before it allocates or copies.
	arena := make([]byte, 0, len(packed))
	offs := make([]int, 0, n+1)
	offs = append(offs, 0)
	if flags&packedKeysFixed64 != 0 {
		if pos+8+1 > len(packed) {
			return bad("delta key stream cut short")
		}
		v := binary.BigEndian.Uint64(packed[pos:])
		pos += 8
		width := uint(packed[pos])
		pos++
		if width > 64 {
			return bad("key delta width %d", width)
		}
		packedBytes := bits.PackedLen(n-1, width)
		if pos+packedBytes > len(packed) {
			return bad("delta key stream cut short")
		}
		if 8*n > maxBlockLen {
			return bad("keys exceed block cap")
		}
		for i := 0; i < n; i++ {
			if i > 0 {
				d := bits.PackedAt(packed[pos:], i-1, width) + 1
				if d == 0 || v+d < v {
					return bad("key delta overflows")
				}
				v += d
			}
			arena = binary.BigEndian.AppendUint64(arena, v)
			offs = append(offs, len(arena))
		}
		pos += packedBytes
	} else {
		for i := 0; i < n; i++ {
			lcp := 0
			if i > 0 {
				var m int
				if lcp, m, ok = checkedLen(packed[pos:], offs[i]-offs[i-1]); !ok {
					return bad("bad key prefix length")
				}
				pos += m
			}
			// slen is bounded by what lcp leaves of MaxKeyLen, so the two
			// are never summed unchecked.
			slen, m, ok := checkedLen(packed[pos:], MaxKeyLen-lcp)
			if !ok {
				return bad("bad key length")
			}
			pos += m
			if slen > len(packed)-pos {
				return bad("key suffix runs past payload end")
			}
			if len(arena)+lcp+slen > maxBlockLen {
				return bad("keys exceed block cap")
			}
			if i > 0 {
				arena = append(arena, arena[offs[i-1]:offs[i-1]+lcp]...)
			}
			arena = append(arena, packed[pos:pos+slen]...)
			pos += slen
			offs = append(offs, len(arena))
		}
	}

	// TID stream.
	tids := make([]uint64, n)
	if flags&packedTIDsEmbedded != 0 {
		for i := 0; i < n; i++ {
			if offs[i+1]-offs[i] != 8 {
				return bad("embedded TID on a %d-byte key", offs[i+1]-offs[i])
			}
			tids[i] = binary.BigEndian.Uint64(arena[offs[i]:])
		}
	} else {
		base, m := binary.Uvarint(packed[pos:])
		if m <= 0 {
			return bad("bad TID base")
		}
		pos += m
		if pos >= len(packed) {
			return bad("TID stream cut short")
		}
		width := uint(packed[pos])
		pos++
		if width > 64 {
			return bad("TID width %d", width)
		}
		packedBytes := bits.PackedLen(n, width)
		if pos+packedBytes > len(packed) {
			return bad("TID stream cut short")
		}
		for i := 0; i < n; i++ {
			d := bits.PackedAt(packed[pos:], i, width)
			if base+d < base {
				return bad("TID overflows")
			}
			tids[i] = base + d
		}
		pos += packedBytes
	}
	if pos != len(packed) {
		return bad("%d trailing bytes", len(packed)-pos)
	}

	// Reassemble the canonical raw entry stream.
	raw := make([]byte, 0, len(arena)+10*n)
	for i := 0; i < n; i++ {
		key := arena[offs[i]:offs[i+1]]
		raw = binary.AppendUvarint(raw, uint64(len(key)))
		raw = append(raw, key...)
		raw = binary.AppendUvarint(raw, tids[i])
	}
	if len(raw) > maxBlockLen {
		return bad("expands past block cap")
	}
	return raw, nil
}

// lcpLen returns the longest-common-prefix length of a and b.
func lcpLen(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}
