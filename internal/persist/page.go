package persist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"unsafe"

	"github.com/hotindex/hot/internal/bits"
)

// Block index ("HIDX") — the cold-tier extension of the snapshot format.
//
// An indexed snapshot appends, AFTER the trailer, a sparse per-block index
// and a fixed 12-byte footer:
//
//	index:  for each block, uvarint(offsetDelta) | uvarint(payloadLen) |
//	        uvarint(firstKeyLen) | firstKey
//	footer: crc32(index) u32 | indexLen u32 | "HIDX" u32
//
// offsetDelta is the delta from the previous block's file offset (the
// first block's delta is its absolute offset, i.e. headerSize). The
// extension is backward compatible by construction: every sequential
// reader of this format stops at the trailer and ignores trailing bytes,
// so old readers load indexed files unchanged, and PageReader falls back
// to a one-time sequential scan when the footer is absent or damaged.
// Only single-section files may carry an index — in a multiplexed sharded
// snapshot the next section's header follows each trailer directly.
const indexMagic uint32 = 0x58444948 // "HIDX" little-endian

const indexFooterSize = 12

// BlockInfo locates one data block of an indexed snapshot.
type BlockInfo struct {
	Off      int64  // file offset of the block's length/CRC prefix
	Len      int    // payload length in bytes
	FirstKey []byte // key of the block's first entry
}

// restartEvery is the spacing of a Page's restart points. A lookup steps
// at most this many entries after its binary search; a restart costs one
// full key and 8 bytes, so 16 keeps the table near a sixth of a packed url
// block while the steps stay cheaper than the fault that loaded the page.
const restartEvery = 16

// restart lets iteration begin mid-block: the key of the entry just before
// a multiple of restartEvery, and where the entry after it starts.
type restart struct {
	pos  uint32 // unit offset of the following entry (unused for formFixed64)
	kend uint32 // end of the key in Page.arena; it starts at the previous kend
}

// Page is one snapshot block as stored: the CRC-verified unit kept whole —
// a packed block is never expanded — plus a sparse restart table recorded
// by the validating walk that admitted it. Reads binary-search the restart
// keys and step at most restartEvery entries of the stored stream. The
// restarts live here and not on disk because that walk must visit every key
// anyway; the file format owes them nothing. The page is immutable once
// returned and safe for concurrent readers, each with its own PageIter.
type Page struct {
	block
	restarts []restart
	arena    []byte // restart keys, back to back
	// Bytes is the page's heap footprint — this struct, the stored unit and
	// the restart table — the unit the page cache's budget is accounted in.
	Bytes int
}

// newPage admits the block unit fetched from off through walkBlock and
// records its restart table.
func newPage(unit []byte, off int64) (*Page, *FormatError) {
	// Room for most blocks' tables at once; the exact-size copy below drops
	// the slack either way.
	p := &Page{restarts: make([]restart, 0, 64), arena: make([]byte, 0, 4<<10)}
	var damage *FormatError
	if p.block, _, _, damage, _ = walkBlock(unit, off, &keyOrder{}, p, nil); damage != nil {
		return nil, damage
	}
	// Append's growth would otherwise keep up to twice the table alive.
	p.restarts = append(make([]restart, 0, len(p.restarts)), p.restarts...)
	p.arena = append(make([]byte, 0, len(p.arena)), p.arena...)
	p.Bytes = int(unsafe.Sizeof(*p)) + cap(p.unit) + cap(p.restarts)*int(unsafe.Sizeof(restart{})) + cap(p.arena)
	return p, nil
}

// noteRestart is walkBlock's hook on every validated key: the entry before
// each multiple of restartEvery, unless it is the block's last, becomes a
// restart point.
func (p *Page) noteRestart(it *blockIter) {
	if (it.i+1)%restartEvery == 0 && it.more() {
		p.arena = append(p.arena, it.key...)
		p.restarts = append(p.restarts, restart{pos: uint32(it.pos), kend: uint32(len(p.arena))})
	}
}

// Len returns the number of entries in the page.
func (p *Page) Len() int { return p.n }

// rewind returns an iterator just before entry r*restartEvery — the next
// step lands on it — that rebuilds keys in buf.
func (p *Page) rewind(buf []byte, r int) blockIter {
	it := p.iter()
	it.buf = buf[:0]
	if r > 0 {
		it.i, it.pos = r*restartEvery-1, int(p.restarts[r-1].pos)
		if it.key = p.restartKey(r - 1); p.form != formRaw {
			it.buf = append(it.buf, it.key...)
			it.key = it.buf
		}
	}
	return it
}

// restartKey returns the key restart j recorded.
func (p *Page) restartKey(j int) []byte {
	start := uint32(0)
	if j > 0 {
		start = p.restarts[j-1].kend
	}
	return p.arena[start:p.restarts[j].kend]
}

// step advances it over the page's validated unit, to index Len once past
// the last entry.
func (p *Page) step(it *blockIter) {
	if it.i+1 >= p.n {
		it.i = p.n
		return
	}
	it.mustNext()
}

// seek returns an iterator on the first entry whose key is ≥ key, at index
// Len when there is none: a binary search of the restart keys, then at most
// restartEvery steps of the stored stream.
func (p *Page) seek(buf, key []byte) blockIter {
	// Every entry up to a restart key below key sorts below it too.
	lo, hi := 0, len(p.restarts)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(p.restartKey(mid), key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	it := p.rewind(buf, lo)
	for p.step(&it); it.i < p.n && bytes.Compare(it.key, key) < 0; {
		p.step(&it)
	}
	return it
}

// at returns an iterator on entry i, which must be in [0, Len).
func (p *Page) at(buf []byte, i int) blockIter {
	it := p.rewind(buf, i/restartEvery)
	for it.i < i {
		p.step(&it)
	}
	return it
}

// Lookup returns the TID stored under key.
func (p *Page) Lookup(key []byte) (uint64, bool) {
	it := p.seek(nil, key)
	if it.i == p.n || !bytes.Equal(it.key, key) {
		return 0, false
	}
	return it.curTID(), true
}

// Find returns the position of key in the page and whether it is present;
// when absent, the returned index is where key would be inserted (the
// first entry > key).
func (p *Page) Find(key []byte) (int, bool) {
	it := p.seek(nil, key)
	return it.i, it.i < p.n && bytes.Equal(it.key, key)
}

// TID returns entry i's TID.
func (p *Page) TID(i int) uint64 {
	if p.form != formRaw && !p.embedded {
		return p.tidBase + bits.PackedAt(p.unit[p.tids:], i, p.tidWidth)
	}
	it := p.at(nil, i)
	return it.curTID()
}

// PageIter is a position in a Page, for readers that walk it. It rebuilds a
// packed block's keys in one buffer of its own, kept across Seeks, so Key is
// valid only until the next Next or Seek.
type PageIter struct {
	p  *Page
	it blockIter
}

// Seek positions it at the page's first entry whose key is ≥ key (a nil
// key: the first entry), invalid when there is none.
func (p *Page) Seek(it *PageIter, key []byte) { it.p, it.it = p, p.seek(it.it.buf, key) }

// SeekIndex positions it at entry i, which must be in [0, Len).
func (p *Page) SeekIndex(it *PageIter, i int) { it.p, it.it = p, p.at(it.it.buf, i) }

// Valid reports whether the iterator is on an entry.
func (it *PageIter) Valid() bool { return it.it.i < it.p.n }

// Key returns the current entry's key, valid until the next Next or Seek.
func (it *PageIter) Key() []byte { return it.it.key }

// TID returns the current entry's TID.
func (it *PageIter) TID() uint64 { return it.it.curTID() }

// Next advances to the following entry.
func (it *PageIter) Next() { it.p.step(&it.it) }

// PageReader serves point reads over a single-section snapshot file
// without materializing the index: it locates the block owning a key via
// the sparse block index, then fetches and verifies exactly that block,
// which it serves as stored. All methods are safe for concurrent use; each
// ReadBlock is one ReaderAt call plus one walk of at most maxBlockLen bytes.
type PageReader struct {
	r       io.ReaderAt
	f       *os.File // owned when opened via OpenPageReaderFile
	size    int64
	count   uint64
	blocks  []BlockInfo
	indexed bool // footer parsed (false: index rebuilt by sequential scan)
}

// OpenPageReaderFile opens the snapshot at path for paged reads. The
// returned reader owns the file handle; Close releases it.
func OpenPageReaderFile(path string, wantKind uint16) (*PageReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	pr, err := OpenPageReader(f, st.Size(), wantKind)
	if err != nil {
		f.Close()
		return nil, err
	}
	pr.f = f
	return pr, nil
}

// OpenPageReader validates the header of the size-byte snapshot in r and
// loads its block index — from the HIDX footer when present, else by a
// one-time sequential scan of the section (which also verifies every CRC,
// the key order and the trailer, exactly as Read does). It never reads entry
// payloads when the footer is valid, so opening a multi-gigabyte snapshot
// touches only its edges.
func OpenPageReader(r io.ReaderAt, size int64, wantKind uint16) (*PageReader, error) {
	pr := &PageReader{r: r, size: size}
	rd := &reader{r: io.NewSectionReader(r, 0, size)}
	if _, damage := rd.header(wantKind); damage != nil {
		return nil, damage
	}
	if pr.openFooter() {
		return pr, nil
	}
	// No usable footer: rebuild the index with the sequential driver,
	// noting each block's first key as its entries stream past.
	var first []byte
	count, damage, _ := rd.blocks(func(key []byte, _ uint64) error {
		if first == nil {
			first = append([]byte{}, key...)
		}
		return nil
	}, func(off int64, _ Codec, stored, _ int) {
		pr.blocks = append(pr.blocks, BlockInfo{Off: off, Len: stored, FirstKey: first})
		first = nil
	})
	if damage != nil {
		return nil, damage
	}
	pr.count = count
	return pr, nil
}

// openFooter attempts to load the block index from the HIDX footer,
// cross-checking it against the trailer it implies. Any inconsistency —
// absent magic, CRC mismatch, non-contiguous blocks, a trailer that does
// not sit exactly where the index says — reports false, and the caller
// falls back to the sequential scan (which localizes the real damage).
func (pr *PageReader) openFooter() bool {
	if pr.size < headerSize+trailerSize+indexFooterSize {
		return false
	}
	var ft [indexFooterSize]byte
	if _, err := pr.r.ReadAt(ft[:], pr.size-indexFooterSize); err != nil {
		return false
	}
	if binary.LittleEndian.Uint32(ft[8:]) != indexMagic {
		return false
	}
	idxLen := int64(binary.LittleEndian.Uint32(ft[4:]))
	trailerOff := pr.size - indexFooterSize - idxLen - trailerSize
	if trailerOff < headerSize {
		return false
	}
	tail := make([]byte, trailerSize+idxLen)
	if _, err := pr.r.ReadAt(tail, trailerOff); err != nil {
		return false
	}
	idx := tail[trailerSize:]
	if crc32.Checksum(idx, castagnoli) != binary.LittleEndian.Uint32(ft[:4]) {
		return false
	}
	count, damage := decodeTrailer(tail[:trailerSize], trailerOff)
	blocks, ok := decodeIndex(idx, trailerOff)
	if damage != nil || !ok || (count == 0) != (len(blocks) == 0) {
		return false
	}
	pr.blocks, pr.count, pr.indexed = blocks, count, true
	return true
}

// Close releases the file handle when the reader owns one.
func (pr *PageReader) Close() error {
	if pr.f != nil {
		return pr.f.Close()
	}
	return nil
}

// Blocks returns the number of data blocks.
func (pr *PageReader) Blocks() int { return len(pr.blocks) }

// Count returns the trailer's authoritative entry count.
func (pr *PageReader) Count() uint64 { return pr.count }

// SizeBytes returns the file size in bytes.
func (pr *PageReader) SizeBytes() int64 { return pr.size }

// Indexed reports whether the HIDX footer was used (false: the index was
// rebuilt by a sequential scan).
func (pr *PageReader) Indexed() bool { return pr.indexed }

// FirstKey returns block i's first entry key. The slice is owned by the
// reader and must not be modified.
func (pr *PageReader) FirstKey(i int) []byte { return pr.blocks[i].FirstKey }

// FindBlock returns the index of the only block that can contain key: the
// last block whose first key is ≤ key (block 0 when key sorts before all
// entries, -1 only for an empty file).
func (pr *PageReader) FindBlock(key []byte) int {
	lo, hi := 0, len(pr.blocks)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(pr.blocks[mid].FirstKey, key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		if len(pr.blocks) == 0 {
			return -1
		}
		return 0
	}
	return lo - 1
}

// ReadBlock is the random-access driver: one ReaderAt call fetches block i
// by the offset and stored length its index entry names — for a packed
// block, the compressed size — and walkBlock verifies the length word, the
// CRC over exactly those bytes, and the stored streams, which the returned
// page then serves as they are.
func (pr *PageReader) ReadBlock(i int) (*Page, error) {
	if i < 0 || i >= len(pr.blocks) {
		return nil, fmt.Errorf("persist: block %d out of range [0,%d)", i, len(pr.blocks))
	}
	info := pr.blocks[i]
	unit := make([]byte, 8+info.Len)
	if _, err := pr.r.ReadAt(unit, info.Off); err != nil {
		return nil, formatErr(ErrTruncated, info.Off, "block: %v", err)
	}
	p, damage := newPage(unit, info.Off)
	if damage != nil {
		return nil, damage
	}
	if it := p.at(nil, 0); !bytes.Equal(it.key, info.FirstKey) {
		return nil, formatErr(ErrCorrupt, info.Off, "block first key disagrees with index")
	}
	return p, nil
}

// SaveIndexedFile is SaveFile with the per-block index enabled: the
// resulting snapshot carries the HIDX footer and opens O(index) with
// OpenPageReaderFile while remaining loadable by every sequential reader.
func SaveIndexedFile(path string, kind uint16, write func(w *Writer) error) error {
	return saveFile(path, kind, true, write)
}

// SectionInfo describes one section of a (possibly multiplexed) snapshot
// file, as reported by ScanSections.
type SectionInfo struct {
	Kind    uint16 // content kind from the section header
	Bytes   int64  // section size including header and trailer
	Blocks  int    // data blocks in the section
	Entries uint64 // entries in the section
	// PackedBlocks counts the data blocks stored with CodecPacked.
	PackedBlocks int
	// UnpackedBytes is what the section would occupy with every block
	// stored raw: header + trailer + per-block 8-byte prefixes + raw
	// payload lengths. Bytes/UnpackedBytes is the section's compression
	// ratio; they are equal for an all-raw section.
	UnpackedBytes int64
	// IndexBytes is the size of the trailing HIDX block index, nonzero
	// only on the last section of an indexed single-section file.
	IndexBytes int64
}

// ScanSections reads the file at path section by section — a flat
// snapshot is one section, a sharded snapshot is a manifest section plus
// one per shard — returning per-section sizes, block counts and entry
// counts. It validates every CRC on the way through.
func ScanSections(path string) ([]SectionInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	var out []SectionInfo
	for off := int64(0); off < size; {
		rd := &reader{r: io.NewSectionReader(f, off, size-off), off: off}
		kind, damage := rd.header(anyKind)
		if damage != nil {
			// An index footer is only legal trailing the final section, and
			// its bytes never form a section header.
			if len(out) > 0 && isIndexTail(f, off, size) {
				out[len(out)-1].IndexBytes = size - off
				return out, nil
			}
			return out, damage
		}
		sec := SectionInfo{Kind: kind, UnpackedBytes: headerSize + trailerSize}
		count, damage, _ := rd.blocks(func([]byte, uint64) error { return nil },
			func(_ int64, codec Codec, _, raw int) {
				sec.Blocks++
				if codec == CodecPacked {
					sec.PackedBlocks++
				}
				sec.UnpackedBytes += 8 + int64(raw)
			})
		if damage != nil {
			return out, damage
		}
		sec.Entries, sec.Bytes = count, rd.off-off
		out = append(out, sec)
		off = rd.off
	}
	return out, nil
}

// isIndexTail reports whether bytes [off,size) form a plausible HIDX
// index + footer.
func isIndexTail(r io.ReaderAt, off, size int64) bool {
	if size-off < indexFooterSize {
		return false
	}
	var ft [indexFooterSize]byte
	if _, err := r.ReadAt(ft[:], size-indexFooterSize); err != nil {
		return false
	}
	return binary.LittleEndian.Uint32(ft[8:]) == indexMagic &&
		int64(binary.LittleEndian.Uint32(ft[4:]))+indexFooterSize == size-off
}
