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

// keyForm names how a block payload stores its keys.
type keyForm uint8

const (
	// formRaw: the raw codec's `uvarint len | key | uvarint tid` entries,
	// each key verbatim and its TID inline.
	formRaw keyForm = iota
	// formFront: packed, front-coded against the previous key.
	formFront
	// formFixed64: packed, 8-byte keys as bit-packed deltas.
	formFixed64
)

// block is one block unit exactly as stored — the 8-byte length/CRC prefix
// and the payload behind it — plus where walkBlock found its two streams.
// Every offset indexes unit. The layout fields are only meaningful once
// walkBlock has vouched for the unit.
type block struct {
	unit     []byte
	form     keyForm
	embedded bool // packed: no TID stream, each TID is its 8-byte key's value
	n        int  // entries
	keys     int  // offset of the key stream's first entry
	keyWidth uint // formFixed64: bits per delta, packed from keys+9
	tids     int  // packed, not embedded: offset of the bit-packed TID offsets
	tidBase  uint64
	tidWidth uint
}

// blockIter steps a block's entries in stored order. It is the one place
// that knows how each key form advances, and it checks every step — length
// bounds before any add, lcp within the previous key, suffix within the
// unit, strict key order — so walkBlock validates by stepping and a Page
// serves reads by stepping the same code from a restart point.
type blockIter struct {
	b   *block
	i   int    // index of the current entry, -1 before the first
	pos int    // formRaw, formFront: offset of the next entry
	key []byte // current key, valid until next
	tid uint64 // formRaw: the current entry's inline TID
	// buf is where a packed block's keys are rebuilt, each over the last;
	// key is then buf. A raw block's keys alias the unit and buf is unused.
	buf []byte
}

func (b *block) iter() blockIter { return blockIter{b: b, i: -1, pos: b.keys} }

// more reports whether an entry follows the current one. A raw block's
// count is only known once its stream has been walked to the end.
func (it *blockIter) more() bool {
	if it.b.form == formRaw {
		return it.pos < len(it.b.unit)
	}
	return it.i+1 < it.b.n
}

// next advances to the following entry, or says what is wrong with it.
// Strict order costs no rebuilt key: a front-coded key shares its first lcp
// bytes with its predecessor, so the two compare as the predecessor's tail
// does against the stored suffix, and a delta-packed key ascends because
// its delta is positive and does not wrap.
func (it *blockIter) next() (bad string) {
	p := it.b.unit
	switch it.b.form {
	case formRaw:
		key, tid, size, bad := decodeEntry(p[it.pos:])
		if bad != "" {
			return bad
		}
		if it.i >= 0 && bytes.Compare(it.key, key) >= 0 {
			return fmt.Sprintf("keys not strictly ascending: %q then %q", it.key, key)
		}
		it.key, it.tid, it.pos = key, tid, it.pos+size
	case formFront:
		lcp := 0
		if it.i >= 0 {
			var m int
			var ok bool
			if lcp, m, ok = checkedLen(p[it.pos:], len(it.key)); !ok {
				return "bad key prefix length"
			}
			it.pos += m
		}
		// slen is bounded by what lcp leaves of MaxKeyLen, so the two are
		// never summed unchecked.
		slen, m, ok := checkedLen(p[it.pos:], MaxKeyLen-lcp)
		if !ok {
			return "bad key length"
		}
		it.pos += m
		if slen > len(p)-it.pos {
			return "key suffix runs past payload end"
		}
		suffix := p[it.pos : it.pos+slen]
		if it.i >= 0 && bytes.Compare(it.key[lcp:], suffix) >= 0 {
			return "keys not strictly ascending"
		}
		it.buf = append(it.buf[:lcp], suffix...)
		it.key, it.pos = it.buf, it.pos+slen
	case formFixed64:
		if it.i < 0 {
			it.buf = append(it.buf[:0], p[it.b.keys:it.b.keys+8]...)
			it.key = it.buf
			break
		}
		v := binary.BigEndian.Uint64(it.key)
		d := bits.PackedAt(p[it.b.keys+9:], it.i, it.b.keyWidth) + 1
		if d == 0 || v+d < v {
			return "key delta overflows"
		}
		binary.BigEndian.PutUint64(it.key, v+d)
	}
	it.i++
	return ""
}

// mustNext is next over a unit walkBlock has already vouched for, where a
// failing step can only be a bug.
func (it *blockIter) mustNext() {
	if bad := it.next(); bad != "" {
		panic("persist: validated block no longer steps: " + bad)
	}
}

// curTID returns the current entry's TID.
func (it *blockIter) curTID() uint64 {
	switch b := it.b; {
	case b.form == formRaw:
		return it.tid
	case b.embedded:
		return binary.BigEndian.Uint64(it.key)
	default:
		return b.tidBase + bits.PackedAt(b.unit[b.tids:], it.i, b.tidWidth)
	}
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
