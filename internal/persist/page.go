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
// by the validating walk that admitted it. Reads check the page prefix once,
// binary-search the restart keys past it and step at most restartEvery
// entries of the stored stream. The restarts live here and not on disk
// because that walk must visit every key anyway; the file format owes them
// nothing. The page is immutable once returned and safe for concurrent
// readers, each with its own PageIter.
type Page struct {
	block
	restarts []restart
	arena    []byte // restart keys past the page prefix, back to back
	// pfx and plen locate the page prefix in unit, inside the first key,
	// which every key form stores whole: the bytes the first key shares with
	// the last, and so with every key of the page.
	pfx, plen uint32
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
	var ord keyOrder
	var damage *FormatError
	if p.block, _, _, damage, _ = walkBlock(unit, off, &ord, p, nil); damage != nil {
		return nil, damage
	}
	first, n := p.firstKeyAt()
	plen := lcpLen(unit[first:first+n], ord.last)
	p.pfx, p.plen = uint32(first), uint32(plen)
	// Append's growth would otherwise keep up to twice the table alive, and
	// every restart key starts with the page prefix, which the copy drops.
	arena := make([]byte, 0, len(p.arena)-len(p.restarts)*plen)
	start := 0
	for j, r := range p.restarts {
		arena = append(arena, p.arena[start+plen:r.kend]...)
		start, p.restarts[j].kend = int(r.kend), uint32(len(arena))
	}
	p.restarts = append(make([]restart, 0, len(p.restarts)), p.restarts...)
	p.arena = arena
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
		it.buf = append(append(it.buf, p.prefix()...), p.restartKey(r-1)...)
		it.key = it.buf
	}
	return it
}

// prefix returns the page prefix, which every key of the page starts with.
func (p *Page) prefix() []byte { return p.unit[p.pfx : p.pfx+p.plen] }

// pastPrefix returns key past the page prefix and 0 when key starts with
// it, else nil and -1 when key sorts before every key of the page, +1 when
// after.
func (p *Page) pastPrefix(key []byte) ([]byte, int) {
	pre := p.prefix()
	if bytes.HasPrefix(key, pre) {
		return key[len(pre):], 0
	}
	return nil, bytes.Compare(key, pre)
}

// restartsBelow binary-searches the restart keys for rest, a key past the
// page prefix: it returns how many sort below rest, and whether the next one
// is rest. Every entry up to a restart key below rest sorts below it too.
func (p *Page) restartsBelow(rest []byte) (int, bool) {
	lo, hi := 0, len(p.restarts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		switch c := bytes.Compare(p.restartKey(mid), rest); {
		case c < 0:
			lo = mid + 1
		case c > 0:
			hi = mid
		default:
			return mid, true
		}
	}
	return lo, false
}

// restartKey returns the key restart j recorded, past the page prefix.
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
// Len when there is none: the page prefix, a binary search of the restart
// keys, then at most restartEvery steps of the stored stream, each
// rebuilding its key.
func (p *Page) seek(buf, key []byte) blockIter {
	r := 0
	if rest, c := p.pastPrefix(key); c > 0 {
		r = len(p.restarts)
	} else if c == 0 {
		r, _ = p.restartsBelow(rest)
	}
	it := p.rewind(buf, r)
	for p.step(&it); it.i < p.n && bytes.Compare(it.key, key) < 0; {
		p.step(&it)
	}
	return it
}

// search is the point read: it returns the index of the first entry whose
// key is ≥ key — Len when there is none — and whether that entry is key.
// A raw or delta-packed page is searched as seek searches it. After the
// page prefix and the restart keys, a front-coded page is stepped as stored
// (lcp, suffix) pairs without rebuilding a key, tracking m, how much of key
// the last entry stepped over matches. That entry sorts below key, so an
// entry whose lcp exceeds m shares its byte at m and sorts below key too,
// with nothing compared; otherwise it is the first lcp bytes of key
// followed by its suffix, and only the suffix is compared, with key past
// lcp. No order is checked: the walk vouched for the unit.
func (p *Page) search(key []byte) (int, bool) {
	if p.form != formFront {
		var buf [pointReadBuf]byte
		it := p.seek(buf[:0], key)
		return it.i, it.i < p.n && bytes.Equal(it.key, key)
	}
	rest, c := p.pastPrefix(key)
	switch {
	case c < 0:
		return 0, false
	case c > 0:
		return p.n, false
	}
	r, hit := p.restartsBelow(rest)
	if hit {
		return (r+1)*restartEvery - 1, true
	}
	plen := int(p.plen)
	// Entry 0 follows no key: it is stepped as the page prefix followed by
	// the rest of the first key, against m = plen.
	i, pos, prev, m := 0, p.keys, -1, plen
	if r > 0 {
		rk := p.restartKey(r - 1)
		i, pos, prev, m = r*restartEvery, int(p.restarts[r-1].pos), plen+len(rk), plen+lcpLen(rk, rest)
	}
	for ; i < p.n; i++ {
		lcp, suffix, end, bad := frontStep(p.unit, pos, prev)
		validated(bad)
		pos, prev = end, lcp+len(suffix)
		if i == 0 {
			lcp, suffix = plen, suffix[plen:]
		}
		if lcp > m {
			continue
		}
		j := lcpLen(suffix, key[lcp:])
		if m = lcp + j; j == len(suffix) {
			if m == len(key) {
				return i, true
			}
			continue // a proper prefix of key
		}
		if m == len(key) || suffix[j] > key[m] {
			return i, false
		}
	}
	return p.n, false
}

// at returns an iterator on entry i, which must be in [0, Len).
func (p *Page) at(buf []byte, i int) blockIter {
	it := p.rewind(buf, i/restartEvery)
	for it.i < i {
		p.step(&it)
	}
	return it
}

// pointReadBuf is how much of a point read's rebuilt key lives on its
// stack; a longer key moves to the heap.
const pointReadBuf = 256

// Lookup returns the TID stored under key.
func (p *Page) Lookup(key []byte) (uint64, bool) {
	if p.form == formRaw {
		// A raw entry keeps its TID beside its key: take it off the step
		// that found the key rather than step there twice.
		var buf [pointReadBuf]byte
		it := p.seek(buf[:0], key)
		if it.i == p.n || !bytes.Equal(it.key, key) {
			return 0, false
		}
		return it.tid, true
	}
	i, ok := p.search(key)
	switch {
	case !ok:
		return 0, false
	case p.embedded:
		return binary.BigEndian.Uint64(key), true
	}
	return p.tidBase + bits.PackedAt(p.unit[p.tids:], i, p.tidWidth), true
}

// Find returns the position of key in the page and whether it is present;
// when absent, the returned index is where key would be inserted (the
// first entry > key).
func (p *Page) Find(key []byte) (int, bool) { return p.search(key) }

// AppendKey appends entry i's key to dst; i must be in [0, Len). The key
// is rebuilt on the stack, so only a dst without room allocates.
func (p *Page) AppendKey(dst []byte, i int) []byte {
	var buf [pointReadBuf]byte
	it := p.at(buf[:0], i)
	return append(dst, it.key...)
}

// PackedTIDs returns a packed block's TID array: entry i's TID is base +
// bits.PackedAt(tids, i, width), read without rebuilding a key. ok is
// false for a raw block, which keeps each TID beside its key, and for a
// packed block of keys that embed their TIDs, which stores none: their
// readers step the entries.
func (p *Page) PackedTIDs() (tids []byte, base uint64, width uint, ok bool) {
	if p.form == formRaw || p.embedded {
		return nil, 0, 0, false
	}
	return p.unit[p.tids:], p.tidBase, p.tidWidth, true
}

// TID returns entry i's TID: one read of the packed array when the page
// has one, else a step from the restart point before i.
func (p *Page) TID(i int) uint64 {
	if tids, base, width, ok := p.PackedTIDs(); ok {
		return base + bits.PackedAt(tids, i, width)
	}
	var buf [pointReadBuf]byte
	it := p.at(buf[:0], i)
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

// Index returns the current entry's index in the page, Len when invalid.
func (it *PageIter) Index() int { return it.it.i }

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
	r      io.ReaderAt
	f      *os.File // owned when opened via OpenPageReaderFile
	size   int64
	count  uint64
	blocks []BlockInfo
	// plen is how many bytes the first keys of the first and the last block
	// share, and so every block's first key: FindBlock compares past them.
	plen    int
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
	var firsts firstKeys
	first := true
	count, damage, _ := rd.blocks(func(key []byte, _ uint64) error {
		if first {
			firsts.add(key)
			first = false
		}
		return nil
	}, func(off int64, _ Codec, stored, _ int) {
		pr.blocks = append(pr.blocks, BlockInfo{Off: off, Len: stored})
		first = true
	})
	if damage != nil {
		return nil, damage
	}
	pr.setBlocks(pr.blocks, &firsts)
	pr.count = count
	return pr, nil
}

// firstKeys collects the blocks' first keys into one arena.
type firstKeys struct {
	arena []byte
	ends  []int
}

func (f *firstKeys) add(key []byte) {
	f.arena = append(f.arena, key...)
	f.ends = append(f.ends, len(f.arena))
}

// setBlocks installs blocks, pointing each one's FirstKey into the arena of
// firsts, and records the prefix their first keys share.
func (pr *PageReader) setBlocks(blocks []BlockInfo, firsts *firstKeys) {
	start := 0
	for i, end := range firsts.ends {
		blocks[i].FirstKey = firsts.arena[start:end:end]
		start = end
	}
	pr.blocks, pr.plen = blocks, 0
	if n := len(blocks); n > 0 {
		pr.plen = lcpLen(blocks[0].FirstKey, blocks[n-1].FirstKey)
	}
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
	blocks, firsts, ok := decodeIndex(idx, trailerOff)
	if damage != nil || !ok || (count == 0) != (len(blocks) == 0) {
		return false
	}
	pr.setBlocks(blocks, firsts)
	pr.count, pr.indexed = count, true
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
// entries, -1 only for an empty file). It checks the prefix every first key
// shares once, then binary-searches the first keys past it.
func (pr *PageReader) FindBlock(key []byte) int {
	n := len(pr.blocks)
	if n == 0 {
		return -1
	}
	pre := pr.blocks[0].FirstKey[:pr.plen]
	if !bytes.HasPrefix(key, pre) {
		if bytes.Compare(key, pre) < 0 {
			return 0
		}
		return n - 1
	}
	rest := key[pr.plen:]
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if bytes.Compare(pr.blocks[mid].FirstKey[pr.plen:], rest) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return max(lo-1, 0)
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
	if first, n := p.firstKeyAt(); !bytes.Equal(p.unit[first:first+n], info.FirstKey) {
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
