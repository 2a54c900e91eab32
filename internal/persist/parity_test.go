package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// TestCheckedLen pins the one bounded length decode. Its first case is the
// PR-10 reproducer: a front-coded packed payload (flags 0x00, n=2, key "a",
// lcp=1, slen=2^64-1) whose lcp+slen sum wrapped below MaxKeyLen, so
// int(slen) went negative and the suffix slice paniced.
func TestCheckedLen(t *testing.T) {
	wrap := []byte{0x00, 0x02, 0x01, 'a', 0x01,
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}
	if v, n, ok := checkedLen(wrap[5:], MaxKeyLen-1); ok {
		t.Fatalf("2^64-1 accepted as length %d (%d bytes)", v, n)
	}
	if _, damage := blockEntries(frameBlock(CodecPacked, wrap)); damage == nil || damage.Kind != ErrCorrupt {
		t.Fatalf("wrap reproducer decoded: %v", damage)
	}
	for _, tc := range []struct {
		p    []byte
		max  int
		v, n int
		ok   bool
	}{
		{[]byte{0x00}, 0, 0, 1, true},
		{[]byte{0x05}, 5, 5, 1, true},
		{[]byte{0x06}, 5, 0, 0, false},
		{[]byte{0xac, 0x02}, 300, 300, 2, true},
		{[]byte{0xac}, 300, 0, 0, false}, // cut short
		{nil, 300, 0, 0, false},          // empty
		{[]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02}, 1 << 30, 0, 0, false},     // overflows uint64
		{[]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, int(^uint(0) >> 1), 0, 0, true}, // 2^63-1 fits an int
	} {
		v, n, ok := checkedLen(tc.p, tc.max)
		if ok != tc.ok || (ok && tc.v != 0 && (v != tc.v || n != tc.n)) || (!ok && (v != 0 || n != 0)) {
			t.Errorf("checkedLen(% x, %d) = (%d, %d, %v), want (%d, %d, %v)", tc.p, tc.max, v, n, ok, tc.v, tc.n, tc.ok)
		}
	}
}

// rawBlock frames es as one raw block with a valid CRC.
func rawBlock(es ...entry) []byte { return frameBlock(CodecRaw, rawPayload(es)) }

// TestSwappedBlocksRejected is the drift reproducer: two blocks, each
// valid on its own (clean CRCs, ascending inside), stored in the wrong
// order. ScanSections had no cross-block order check and accepted the file
// that Read and OpenPageReader rejected — at two different offsets.
func TestSwappedBlocksRejected(t *testing.T) {
	clean := buildSnap(t, KindTree, nil)
	blob := append([]byte{}, clean[:headerSize]...)
	blob = append(blob, rawBlock(entry{[]byte("m"), 1}, entry{[]byte("n"), 2})...)
	second := int64(len(blob))
	blob = append(blob, rawBlock(entry{[]byte("a"), 3})...)
	var tr [trailerSize]byte
	binary.LittleEndian.PutUint64(tr[4:], 3)
	binary.LittleEndian.PutUint32(tr[12:], crc32.Checksum(tr[4:12], castagnoli))
	blob = append(blob, tr[:]...)

	for name, err := range driverErrors(t, blob, []uint16{KindTree}) {
		var fe *FormatError
		if !errors.As(err, &fe) || fe.Kind != ErrCorrupt || fe.Offset != second+8 {
			t.Errorf("%s: %v, want corrupt structure at byte %d", name, err, second+8)
		}
	}
}

// driverErrors runs every whole-file snapshot driver over blob — a file of
// one section per entry of kinds — and returns what each reported. The
// stream drivers chain one call per section the way readSharded does,
// rebasing section-relative offsets to the file.
func driverErrors(t *testing.T, blob []byte, kinds []uint16) map[string]error {
	t.Helper()
	out := map[string]error{"Read": nil, "Recover": nil}
	r := bytes.NewReader(blob)
	for _, k := range kinds {
		base := int64(len(blob) - r.Len())
		if _, err := Read(r, k, func([]byte, uint64) error { return nil }); err != nil {
			var fe *FormatError
			if errors.As(err, &fe) {
				fe.Offset += base
			}
			out["Read"] = err
			break
		}
	}
	r = bytes.NewReader(blob)
	for _, k := range kinds {
		base := int64(len(blob) - r.Len())
		rep, _ := Recover(r, k, func([]byte, uint64) error { return nil })
		if rep.Damage != nil {
			rep.Damage.Offset += base
			out["Recover"] = rep.Damage
			break
		}
	}
	path := filepath.Join(t.TempDir(), "f.hot")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := ScanSections(path)
	out["ScanSections"] = err
	if len(kinds) == 1 {
		// PageReader serves single-section files. Parity is the scan path's
		// promise: a footer that survives the damage vouches for the index
		// alone, and block damage then surfaces at ReadBlock.
		pr, err := OpenPageReader(bytes.NewReader(blob), int64(len(blob)), kinds[0])
		if err != nil || !pr.Indexed() {
			out["OpenPageReader"] = err
		}
	}
	return out
}

// sectionEntries reads blob's sections through the stream driver, returning
// the entries each delivered before the first damage.
func sectionEntries(blob []byte, kinds []uint16) [][]entry {
	var out [][]entry
	r := bytes.NewReader(blob)
	for _, k := range kinds {
		var es []entry
		_, err := Read(r, k, func(key []byte, tid uint64) error {
			es = append(es, entry{append([]byte{}, key...), tid})
			return nil
		})
		out = append(out, es)
		if err != nil {
			break
		}
	}
	return out
}

// frontLayout locates the fields of a front-coded packed payload with a TID
// stream, for tests that rewrite one of them.
type frontLayout struct {
	n        int
	firstKey []byte
	entries  []int // offset of each entry: its lcp byte, or the first key's length
	tidBase  int   // offset of the TID stream's base uvarint
	tidWidth int   // offset of its width byte
}

func frontCodedLayout(t *testing.T, p []byte) frontLayout {
	t.Helper()
	n, sz := binary.Uvarint(p[1:])
	if p[0] != 0 || n < 128 || sz != 2 {
		t.Fatalf("fixture block has flags %#x and %d entries, want front-coded keys, a TID stream and a 2-byte count", p[0], n)
	}
	lay, pos := frontLayout{n: int(n)}, 1+sz
	for i := 0; i < lay.n; i++ {
		lay.entries = append(lay.entries, pos)
		if i > 0 {
			if p[pos] >= 0x80 {
				t.Fatalf("fixture entry %d has a multi-byte lcp", i)
			}
			pos++
		}
		slen, m := binary.Uvarint(p[pos:])
		pos += m + int(slen)
		if i == 0 {
			lay.firstKey = p[pos-int(slen) : pos]
		}
	}
	_, m := binary.Uvarint(p[pos:])
	lay.tidBase, lay.tidWidth = pos, pos+m
	return lay
}

// TestDriverParity builds raw and packed, indexed and plain, single- and
// multi-section files, damages each in every way the format can be damaged,
// and requires Read, Recover, OpenPageReader (scan path) and ScanSections to
// report the same ErrKind at the same byte and to agree on the entries that
// precede it.
func TestDriverParity(t *testing.T) {
	type file struct {
		name   string
		blob   []byte
		kinds  []uint16
		packed bool
	}
	es := genEntries(2500, 40) // several blocks under either codec
	var files []file
	for _, codec := range []Codec{CodecRaw, CodecPacked} {
		for _, indexed := range []bool{false, true} {
			blob, _ := buildSnapCodec(t, KindTree, es, codec, indexed)
			files = append(files, file{fmt.Sprintf("%s/indexed=%v/single", codec, indexed), blob, []uint16{KindTree}, codec == CodecPacked})
		}
		manifest, _ := buildSnapCodec(t, KindShardManifest, genEntries(3, 8), codec, false)
		lo, _ := buildSnapCodec(t, KindTree, es[:1200], codec, false)
		hi, _ := buildSnapCodec(t, KindTree, es[1200:], codec, false)
		multi := append(append(append([]byte{}, manifest...), lo...), hi...)
		files = append(files, file{fmt.Sprintf("%s/multi", codec), multi,
			[]uint16{KindShardManifest, KindTree, KindTree}, codec == CodecPacked})
	}

	for _, f := range files {
		// Locate every unit of the clean file: per section its base, its
		// blocks (through the scan path, which must accept it) and its
		// trailer.
		type unit struct{ off, size int64 }
		var headers, blocks, trailers []unit
		base := int64(0)
		for range f.kinds {
			rd := &reader{r: bytes.NewReader(f.blob[base:]), off: base}
			if _, damage := rd.header(anyKind); damage != nil {
				t.Fatalf("%s: clean file: %v", f.name, damage)
			}
			headers = append(headers, unit{base, headerSize})
			_, damage, _ := rd.blocks(func([]byte, uint64) error { return nil },
				func(off int64, _ Codec, stored, _ int) { blocks = append(blocks, unit{off, 8 + int64(stored)}) })
			if damage != nil {
				t.Fatalf("%s: clean file: %v", f.name, damage)
			}
			trailers = append(trailers, unit{rd.off - trailerSize, trailerSize})
			base = rd.off
		}
		if len(blocks) < 4 {
			t.Fatalf("%s: only %d blocks", f.name, len(blocks))
		}

		type damage struct {
			name      string
			blob      []byte
			reordered bool // what precedes the damage is not a prefix of the original
			// A CRC-clean rewrite of one block: where it sits and how long its
			// payload now is, so the random driver can be aimed at it whatever
			// became of the footer.
			hostile *BlockInfo
		}
		var table []damage
		flip := func(what string, off int64) {
			b := append([]byte{}, f.blob...)
			b[off] ^= 0x10
			table = append(table, damage{name: fmt.Sprintf("flip %s @%d", what, off), blob: b})
		}
		cut := func(off int64) {
			table = append(table, damage{name: fmt.Sprintf("cut @%d", off), blob: f.blob[:off:off]})
		}
		table = append(table, damage{name: "clean", blob: f.blob})
		for _, h := range headers {
			cut(h.off + 5)
			cut(h.off + h.size)
			for i, what := range []string{"magic", "version", "kind", "header CRC"} {
				flip(what, h.off+[]int64{3, 8, 10, 13}[i])
			}
			skew := append([]byte{}, f.blob...)
			binary.LittleEndian.PutUint16(skew[h.off+8:], Version+1)
			binary.LittleEndian.PutUint32(skew[h.off+12:], crc32.Checksum(skew[h.off:h.off+12], castagnoli))
			table = append(table, damage{name: fmt.Sprintf("version skew @%d", h.off), blob: skew})
		}
		for _, i := range []int{0, 1, len(blocks) - 1} {
			b := blocks[i]
			cut(b.off)
			cut(b.off + 3)
			cut(b.off + 8)
			cut(b.off + b.size/2)
			flip("block length", b.off)
			flip("block CRC", b.off+5)
			flip("payload", b.off+8+(b.size-8)/2)
			above := append([]byte{}, f.blob...)
			above[b.off+3] = byte(readerCodecLimit) + 1
			table = append(table, damage{name: fmt.Sprintf("codec above limit @%d", b.off), blob: above})
		}
		for _, tr := range trailers {
			cut(tr.off + 4)
			cut(tr.off + 12)
			flip("trailer word", tr.off)
			flip("trailer count", tr.off+4)
			flip("trailer CRC", tr.off+13)
		}
		// Swap the last two blocks: each stays valid, the key order across
		// their boundary does not. What precedes the damage is then a whole
		// misplaced block — genuine entries, not a prefix of the original.
		a, b := blocks[len(blocks)-2], blocks[len(blocks)-1]
		if a.off+a.size != b.off {
			t.Fatalf("%s: last two blocks not adjacent", f.name)
		}
		swapped := append([]byte{}, f.blob[:a.off]...)
		swapped = append(swapped, f.blob[b.off:b.off+b.size]...)
		swapped = append(swapped, f.blob[a.off:a.off+a.size]...)
		swapped = append(swapped, f.blob[b.off+b.size:]...)
		table = append(table, damage{name: "swapped blocks", blob: swapped, reordered: true})

		// Hostile bytes under a valid checksum: the last block's payload
		// rewritten one rule at a time with the CRC recomputed, so the walker
		// and not the checksum must refuse it — identically from Read and,
		// below, from ReadBlock.
		if last := blocks[len(blocks)-1]; f.packed {
			payload := f.blob[last.off+8 : last.off+last.size]
			lay := frontCodedLayout(t, payload)
			rewrite := func(name string, mutate func(p []byte) []byte) {
				unit := frameBlock(CodecPacked, mutate(append([]byte{}, payload...)))
				b := append(append(append([]byte{}, f.blob[:last.off]...), unit...), f.blob[last.off+last.size:]...)
				table = append(table, damage{name: name, blob: b,
					hostile: &BlockInfo{Off: last.off, Len: len(unit) - 8, FirstKey: lay.firstKey}})
			}
			set := func(at int, v byte) func([]byte) []byte {
				return func(p []byte) []byte { p[at] = v; return p }
			}
			rewrite("lcp past the previous key", set(lay.entries[1], 0x7f))
			rewrite("suffix past the end", func(p []byte) []byte { return p[:lay.entries[lay.n-1]+2] })
			rewrite("count too large", func(p []byte) []byte { p[1]++; return p })
			rewrite("count too small", func(p []byte) []byte { p[1]--; return p })
			rewrite("TID width 65", set(lay.tidWidth, 65))
			rewrite("TID above MaxTID", func(p []byte) []byte {
				return append(binary.AppendUvarint(p[:lay.tidBase:lay.tidBase], MaxTID+1), payload[lay.tidWidth:]...)
			})
			rewrite("neighbours out of order", set(lay.entries[2]+2, 0x00))
			rewrite("trailing byte", func(p []byte) []byte { return append(p, 0) })
		}

		want := sectionEntries(f.blob, f.kinds)
		for _, d := range table {
			got := driverErrors(t, d.blob, f.kinds)
			ref, _ := got["Read"].(*FormatError)
			if (d.name == "clean") != (ref == nil) {
				t.Errorf("%s: %s: Read = %v", f.name, d.name, got["Read"])
				continue
			}
			for name, err := range got {
				fe, _ := err.(*FormatError)
				if err != nil && fe == nil {
					t.Errorf("%s: %s: %s returned untyped %v", f.name, d.name, name, err)
				} else if (fe == nil) != (ref == nil) || (fe != nil && (fe.Kind != ref.Kind || fe.Offset != ref.Offset)) {
					t.Errorf("%s: %s: %s = %v, Read = %v", f.name, d.name, name, err, got["Read"])
				}
			}

			// Entries: the stream drivers deliver a prefix of the original;
			// ScanSections accounts exactly the sections that completed; a
			// PageReader that opens serves exactly what Read delivered.
			secs := sectionEntries(d.blob, f.kinds)
			for i, sec := range secs {
				if d.reordered {
					break
				}
				if len(sec) > len(want[i]) {
					t.Fatalf("%s: %s: section %d delivered %d entries of %d", f.name, d.name, i, len(sec), len(want[i]))
				}
				for j, e := range sec {
					if !bytes.Equal(e.key, want[i][j].key) || e.tid != want[i][j].tid {
						t.Fatalf("%s: %s: section %d entry %d diverges", f.name, d.name, i, j)
					}
				}
			}
			path := filepath.Join(t.TempDir(), "f.hot")
			if err := os.WriteFile(path, d.blob, 0o644); err != nil {
				t.Fatal(err)
			}
			infos, _ := ScanSections(path)
			complete := len(secs)
			if ref != nil {
				complete--
			}
			if len(infos) != complete {
				t.Errorf("%s: %s: ScanSections completed %d sections, Read %d", f.name, d.name, len(infos), complete)
			}
			for i, info := range infos {
				if info.Entries != uint64(len(secs[i])) || info.Kind != f.kinds[i] {
					t.Errorf("%s: %s: ScanSections section %d = %+v, Read delivered %d", f.name, d.name, i, info, len(secs[i]))
				}
			}
			if d.hostile != nil {
				if ref == nil || ref.Kind != ErrCorrupt {
					t.Errorf("%s: %s: Read = %v, want corrupt structure", f.name, d.name, got["Read"])
				}
				pr := &PageReader{r: bytes.NewReader(d.blob), blocks: []BlockInfo{*d.hostile}}
				_, err := pr.ReadBlock(0)
				if fe, _ := err.(*FormatError); fe == nil || ref == nil || fe.Kind != ref.Kind || fe.Offset != ref.Offset {
					t.Errorf("%s: %s: ReadBlock = %v, Read = %v", f.name, d.name, err, got["Read"])
				}
			}
			if len(f.kinds) > 1 {
				continue
			}
			pr, err := OpenPageReader(bytes.NewReader(d.blob), int64(len(d.blob)), f.kinds[0])
			if err != nil {
				continue
			}
			var paged []entry
			var rerr error
			for b := 0; b < pr.Blocks() && rerr == nil; b++ {
				var p *Page
				if p, rerr = pr.ReadBlock(b); rerr == nil {
					paged = append(paged, pageEntries(p)...)
				}
			}
			if ref == nil && (rerr != nil || len(paged) != len(es)) {
				t.Errorf("%s: %s: paged read = %d entries, %v", f.name, d.name, len(paged), rerr)
			}
			if ref != nil && rerr == nil {
				t.Errorf("%s: %s: Read fails (%v) but every block pages in", f.name, d.name, ref)
			}
			for j, e := range paged {
				if d.reordered {
					break
				}
				if !bytes.Equal(e.key, es[j].key) || e.tid != es[j].tid {
					t.Fatalf("%s: %s: paged entry %d diverges", f.name, d.name, j)
				}
			}
		}
	}
}

// walDrivers runs both log drivers over blob — ReplayWAL, and a WALTailer
// driven to limit = size — returning the records each delivered and the
// damage each reported. A record cut short is damage to ReplayWAL (a torn
// tail) and simply "not yet" to a tailer, which is the one place the two
// may differ.
func walDrivers(t *testing.T, blob []byte) (replayed, tailed []walRec, rep WALReplayReport, terr error) {
	t.Helper()
	rep, _ = ReplayWAL(bytes.NewReader(blob), func(op WalOp, key []byte, tid uint64) error {
		replayed = append(replayed, walRec{op, append([]byte{}, key...), tid})
		return nil
	})
	path := filepath.Join(t.TempDir(), "wal.log")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	tl, terr := OpenWALTailer(path)
	if terr != nil {
		return replayed, nil, rep, terr
	}
	defer tl.Close()
	for {
		op, key, tid, lsn, ok, err := tl.Next(int64(len(blob)))
		if err != nil || !ok {
			return replayed, tailed, rep, err
		}
		if want := tl.Base() + uint64(len(tailed)) + 1; lsn != want {
			t.Fatalf("tailer LSN %d, want %d", lsn, want)
		}
		tailed = append(tailed, walRec{op, append([]byte{}, key...), tid})
	}
}

func checkWALParity(t *testing.T, name string, blob []byte) {
	t.Helper()
	replayed, tailed, rep, terr := walDrivers(t, blob)
	if !sameRecs(replayed, tailed) {
		t.Errorf("%s: ReplayWAL delivered %d records, WALTailer %d", name, len(replayed), len(tailed))
	}
	if rep.Damage == nil || rep.Damage.Kind == ErrTruncated && rep.Damage.Offset >= headerSize {
		if terr != nil {
			t.Errorf("%s: ReplayWAL %v, WALTailer %v", name, rep.Damage, terr)
		}
		return
	}
	fe, _ := terr.(*FormatError)
	if fe == nil || fe.Kind != rep.Damage.Kind || fe.Offset != rep.Damage.Offset {
		t.Errorf("%s: ReplayWAL %v, WALTailer %v", name, rep.Damage, terr)
	}
}

// TestWALFirstRecordRule is the second drift reproducer: a CRC-clean log
// whose first record is a data record with LSN 1. ReplayWAL always took it
// as a log with base 0; WALTailer failed the same bytes with "log opens
// without a checkpoint record". The shared step keeps ReplayWAL's rule, so
// recovery delivers no fewer records than it ever did.
func TestWALFirstRecordRule(t *testing.T) {
	blob := appendWalRecord(walFileProlog(0)[:headerSize:headerSize], WalInsert, 1, []byte("k"), 9)
	replayed, tailed, rep, terr := walDrivers(t, blob)
	want := []walRec{{WalInsert, []byte("k"), 9}}
	if !rep.Complete || rep.Base != 0 || rep.LastLSN != 1 || !sameRecs(replayed, want) {
		t.Fatalf("ReplayWAL: %+v, %d records", rep, len(replayed))
	}
	if terr != nil || !sameRecs(tailed, want) {
		t.Fatalf("WALTailer: %d records, %v", len(tailed), terr)
	}
	// The rule is LSN continuity from base 0, not "anything goes".
	checkWALParity(t, "first record LSN 2", appendWalRecord(blob[:headerSize:headerSize], WalInsert, 2, []byte("k"), 9))
}

// TestWALDriverParity is TestDriverParity's twin for the log format.
func TestWALDriverParity(t *testing.T) {
	rs := genWalRecs(40)
	blob := walFileProlog(5)
	bounds := []int{headerSize, len(blob)} // record boundaries
	for i, r := range rs {
		blob = appendWalRecord(blob, r.op, 5+uint64(i)+1, r.key, r.tid)
		bounds = append(bounds, len(blob))
	}
	checkWALParity(t, "clean", blob)
	for _, off := range []int{0, 5, headerSize} {
		checkWALParity(t, fmt.Sprintf("cut @%d", off), blob[:off])
	}
	for _, off := range []int{3, 8, 10, 13} {
		b := append([]byte{}, blob...)
		b[off] ^= 0x10
		checkWALParity(t, fmt.Sprintf("flip header @%d", off), b)
	}
	for _, i := range []int{0, 1, 2, 20, len(bounds) - 2} {
		start, end := bounds[i], bounds[i+1]
		for _, off := range []int{start + 3, start + 8, (start + end) / 2} {
			checkWALParity(t, fmt.Sprintf("cut @%d", off), blob[:off])
		}
		for what, off := range map[string]int{"length": start, "length high": start + 3, "CRC": start + 5,
			"op": start + 8, "LSN": start + 9, "payload": end - 2} {
			b := append([]byte{}, blob...)
			b[off] ^= 0x10
			checkWALParity(t, fmt.Sprintf("flip %s @%d", what, off), b)
		}
	}
	// CRC-clean structural damage: two records swapped (LSN discontinuity),
	// a second checkpoint record mid-log.
	a, b, c := bounds[3], bounds[4], bounds[5]
	swapped := append(append(append(append([]byte{}, blob[:a]...), blob[b:c]...), blob[a:b]...), blob[c:]...)
	checkWALParity(t, "swapped records", swapped)
	mid := appendWalRecord(append([]byte{}, blob[:b]...), WalCheckpoint, 9, nil, 0)
	checkWALParity(t, "mid-log checkpoint", append(mid, blob[b:]...))
}
