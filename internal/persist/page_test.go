package persist

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"github.com/hotindex/hot/internal/dataset"
)

// buildIndexedSnap is buildSnap with the per-block index enabled, the
// format the cold tier's PageReader consumes.
func buildIndexedSnap(t *testing.T, kind uint16, es []entry) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, kind)
	if err != nil {
		t.Fatal(err)
	}
	w.EnableBlockIndex()
	for _, e := range es {
		if err := w.WriteEntry(e.key, e.tid); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// pageEntries copies out what p's iterator yields from the start.
func pageEntries(p *Page) []entry {
	var es []entry
	var it PageIter
	for p.Seek(&it, nil); it.Valid(); it.Next() {
		es = append(es, entry{append([]byte{}, it.Key()...), it.TID()})
	}
	return es
}

// checkPointReads verifies every entry is found through the paged path
// (FindBlock + ReadBlock + Find) and a few absent probes miss.
func checkPointReads(t *testing.T, pr *PageReader, es []entry) {
	t.Helper()
	if pr.Count() != uint64(len(es)) {
		t.Fatalf("Count = %d, want %d", pr.Count(), len(es))
	}
	for _, e := range es {
		b := pr.FindBlock(e.key)
		if b < 0 {
			t.Fatalf("FindBlock(%q) = %d", e.key, b)
		}
		page, err := pr.ReadBlock(b)
		if err != nil {
			t.Fatalf("ReadBlock(%d): %v", b, err)
		}
		i, ok := page.Find(e.key)
		if !ok || page.TID(i) != e.tid {
			t.Fatalf("Find(%q) = (%d, %v), want tid %d", e.key, i, ok, e.tid)
		}
	}
	for _, probe := range [][]byte{[]byte(""), []byte("zzzz-absent"), []byte("00000000x")} {
		if slices.ContainsFunc(es, func(e entry) bool { return bytes.Equal(e.key, probe) }) {
			continue // a shape may hold the empty key
		}
		if b := pr.FindBlock(probe); b >= 0 {
			page, err := pr.ReadBlock(b)
			if err != nil {
				t.Fatalf("ReadBlock(%d): %v", b, err)
			}
			if _, ok := page.Find(probe); ok {
				t.Fatalf("absent probe %q reported found", probe)
			}
		}
	}
}

func TestPageReaderIndexed(t *testing.T) {
	for _, n := range []int{1, 2, 100, 5000} {
		es := genEntries(n, 32)
		blob := buildIndexedSnap(t, KindTree, es)
		pr, err := OpenPageReader(bytes.NewReader(blob), int64(len(blob)), KindTree)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !pr.Indexed() {
			t.Fatalf("n=%d: footer not used", n)
		}
		if n >= 5000 && pr.Blocks() < 2 {
			t.Fatalf("n=%d spans %d blocks, want >1 to exercise FindBlock", n, pr.Blocks())
		}
		checkPointReads(t, pr, es)
	}
}

func TestPageReaderScanFallback(t *testing.T) {
	es := genEntries(3000, 32)
	// A plain (pre-extension) snapshot has no footer: the index is rebuilt
	// by the sequential scan and reads work identically.
	blob := buildSnap(t, KindTree, es)
	pr, err := OpenPageReader(bytes.NewReader(blob), int64(len(blob)), KindTree)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Indexed() {
		t.Fatal("plain snapshot claims an index footer")
	}
	checkPointReads(t, pr, es)

	// A damaged footer must degrade to the scan, not fail the open.
	dam := append([]byte(nil), buildIndexedSnap(t, KindTree, es)...)
	dam[len(dam)-20] ^= 0xff // inside the index payload
	pr, err = OpenPageReader(bytes.NewReader(dam), int64(len(dam)), KindTree)
	if err != nil {
		t.Fatalf("damaged footer: %v", err)
	}
	if pr.Indexed() {
		t.Fatal("damaged footer was trusted")
	}
	checkPointReads(t, pr, es)
}

func TestPageReaderBlockDamage(t *testing.T) {
	es := genEntries(5000, 32)
	blob := buildIndexedSnap(t, KindTree, es)
	pr, err := OpenPageReader(bytes.NewReader(blob), int64(len(blob)), KindTree)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Blocks() < 2 {
		t.Fatalf("want multiple blocks, got %d", pr.Blocks())
	}
	// Opening with a valid footer never touches block payloads, so damage
	// inside a block surfaces at ReadBlock time, as a checksum error.
	dam := append([]byte(nil), blob...)
	dam[headerSize+20] ^= 0x01
	dpr, err := OpenPageReader(bytes.NewReader(dam), int64(len(dam)), KindTree)
	if err != nil {
		t.Fatalf("open with damaged block: %v", err)
	}
	if _, err := dpr.ReadBlock(0); err == nil {
		t.Fatal("ReadBlock over flipped payload succeeded")
	}
	if _, err := pr.ReadBlock(pr.Blocks()); err == nil {
		t.Fatal("out-of-range ReadBlock succeeded")
	}
}

func TestSaveIndexedFileSequentialCompat(t *testing.T) {
	// The HIDX extension must be invisible to the sequential reader: a
	// SaveIndexedFile snapshot loads byte-for-byte like a plain one.
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.hot")
	es := genEntries(4000, 24)
	err := SaveIndexedFile(path, KindTree, func(w *Writer) error {
		for _, e := range es {
			if err := w.WriteEntry(e.key, e.tid); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, n, err := readAll(blob, KindTree)
	if err != nil || n != uint64(len(es)) {
		t.Fatalf("sequential read = (%d, %v), want %d entries", n, err, len(es))
	}
	for i, e := range es {
		if !bytes.Equal(got[i].key, e.key) || got[i].tid != e.tid {
			t.Fatalf("entry %d = %q/%d, want %q/%d", i, got[i].key, got[i].tid, e.key, e.tid)
		}
	}

	secs, err := ScanSections(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(secs) != 1 {
		t.Fatalf("ScanSections found %d sections, want 1", len(secs))
	}
	s := secs[0]
	if s.Kind != KindTree || s.Entries != uint64(len(es)) || s.Blocks < 1 || s.IndexBytes <= 0 {
		t.Fatalf("section = %+v, want kind %d, %d entries, an index tail", s, KindTree, len(es))
	}
}

// FuzzPageReader feeds arbitrary bytes to the paged open path: it must
// never panic, and any file it accepts must serve internally consistent
// reads — every block's keys strictly ascending, every self-lookup
// through FindBlock landing back on its entry, (on the scan path, which
// decodes everything) the trailer count matching the entries, and the
// stream reader delivering exactly the entries the pages hold.
func FuzzPageReader(f *testing.F) {
	seed := func(es []entry, indexed bool) []byte {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, KindTree)
		if err != nil {
			f.Fatal(err)
		}
		if indexed {
			w.EnableBlockIndex()
		}
		for _, e := range es {
			if err := w.WriteEntry(e.key, e.tid); err != nil {
				f.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	gen := func(n int) []entry {
		es := make([]entry, n)
		for i := range es {
			es[i] = entry{key: []byte(fmt.Sprintf("%08d", i)), tid: uint64(i) + 1}
		}
		return es
	}
	f.Add(seed(nil, true))
	f.Add(seed(gen(1), true))
	f.Add(seed(gen(100), true))
	f.Add(seed(gen(5000), true))
	f.Add(seed(gen(100), false))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xa5}, 64))
	// The cold tier's files are packed: one indexed seed per key and TID
	// stream form (front-coded, delta-packed, embedded), two blocks each.
	for _, shape := range []string{"strings", "int-store", "int-embedded", "prefix-chain"} {
		es := codecShapes()[shape]
		blob, packed := buildSnapCodec(f, KindTree, es[:min(len(es), 3500)], CodecPacked, true)
		if packed < 2 {
			f.Fatalf("%s: %d packed blocks", shape, packed)
		}
		f.Add(blob)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		pr, err := OpenPageReader(bytes.NewReader(data), int64(len(data)), KindTree)
		if err != nil {
			return
		}
		var total uint64
		var prevLast []byte
		var paged []entry
		ordered, clean := true, true
		for b := 0; b < pr.Blocks(); b++ {
			page, err := pr.ReadBlock(b)
			if err != nil {
				// A valid footer vouches only for the index; block damage
				// legitimately surfaces here.
				clean = false
				break
			}
			if page.Len() == 0 {
				t.Fatalf("block %d decoded to %d entries", b, page.Len())
			}
			es := pageEntries(page)
			if len(es) != page.Len() {
				t.Fatalf("block %d iterates %d entries, Len says %d", b, len(es), page.Len())
			}
			if prevLast != nil && bytes.Compare(prevLast, es[0].key) >= 0 {
				ordered = false
			}
			checkPageReads(t, fmt.Sprintf("block %d", b), page, es)
			paged = append(paged, es...)
			prevLast = es[len(es)-1].key
			total += uint64(page.Len())
		}
		if clean && !pr.Indexed() && total != pr.Count() {
			t.Fatalf("scan-opened file decodes %d entries, trailer says %d", total, pr.Count())
		}
		if !pr.Indexed() || (clean && ordered && total == pr.Count()) {
			// The scan path is the stream reader's own loop, and a footer
			// whose every block then pages in, in order, to the trailer's
			// count leaves nothing the stream reader could still object to:
			// it must accept the same bytes and deliver the same entries.
			streamed, _, err := readAll(data, KindTree)
			if err != nil {
				t.Fatalf("PageReader accepts what Read rejects: %v", err)
			}
			if len(streamed) != len(paged) {
				t.Fatalf("Read delivered %d entries, pages hold %d", len(streamed), len(paged))
			}
			for i, e := range streamed {
				if !bytes.Equal(e.key, paged[i].key) || e.tid != paged[i].tid {
					t.Fatalf("entry %d: Read %q/%d, page %q/%d", i, e.key, e.tid, paged[i].key, paged[i].tid)
				}
			}
		}
		if clean && ordered {
			// Globally ordered and fully readable: every first key must be
			// locatable through the sparse index.
			for b := 0; b < pr.Blocks(); b++ {
				k := pr.FirstKey(b)
				if got := pr.FindBlock(k); got != b {
					t.Fatalf("FindBlock(%q) = %d, want %d", k, got, b)
				}
			}
		}
	})
}

// checkPageReads holds a page's point reads to es, the entries its iterator
// yields: every key is found by Find at its own index and by Lookup with its
// TID, and absent probes — the empty key and the first key less its last
// byte below the first key, just above every key (key+0x00, unless that is
// the next key) and above them all — are missed by both, Find naming where
// each would go. The probes run the search's
// every branch: the page prefix missed either way, an entry skipped on its
// lcp alone, a suffix compared below, above or used up.
func checkPageReads(t *testing.T, name string, page *Page, es []entry) {
	t.Helper()
	for i, e := range es {
		if j, ok := page.Find(e.key); !ok || j != i || page.TID(j) != e.tid {
			t.Fatalf("%s: Find(%q) = (%d, %v), want (%d, true)", name, e.key, j, ok, i)
		}
		if tid, ok := page.Lookup(e.key); !ok || tid != e.tid {
			t.Fatalf("%s: Lookup(%q) = (%d, %v), want %d", name, e.key, tid, ok, e.tid)
		}
	}
	probe := func(key []byte, want int) {
		t.Helper()
		i, ok := page.Find(key)
		tid, found := page.Lookup(key)
		if ok || found || i != want {
			t.Fatalf("%s: absent %q: Find = (%d, %v), Lookup = (%d, %v); want index %d", name, key, i, ok, tid, found, want)
		}
	}
	if first := es[0].key; len(first) > 0 {
		probe([]byte{}, 0)
		probe(first[:len(first)-1], 0)
	}
	for i, e := range es {
		if above := append(append([]byte{}, e.key...), 0); i+1 == len(es) || !bytes.Equal(above, es[i+1].key) {
			probe(above, i+1)
		}
	}
	probe(bytes.Repeat([]byte{0xff}, len(es[len(es)-1].key)+1), len(es))
}

// TestPageMatchesModel holds a Page to the sorted entry list it stands for:
// every codecShapes() shape under both codecs, in blocks of 1, 15, 16 and 17
// entries (either side of the first restart) and at full size. The iterator
// from the start is Read's stream; the point reads pass checkPageReads;
// SeekIndex lands on every entry; a seek at every 7th key yields the sorted
// tail. (The same seeks across block boundaries, through the cold
// cursor, are TestColdCursorMatchesModel in the root package.)
func TestPageMatchesModel(t *testing.T) {
	for name, all := range codecShapes() {
		for _, codec := range []Codec{CodecRaw, CodecPacked} {
			for _, n := range []int{1, 15, 16, 17, len(all)} {
				if n > len(all) {
					continue
				}
				blob, _ := buildSnapCodec(t, KindTree, all[:n], codec, true)
				pr, err := OpenPageReader(bytes.NewReader(blob), int64(len(blob)), KindTree)
				if err != nil {
					t.Fatalf("%s/%s/%d: %v", name, codec, n, err)
				}
				streamed, _, err := readAll(blob, KindTree)
				if err != nil || len(streamed) != n {
					t.Fatalf("%s/%s/%d: Read = %d entries, %v", name, codec, n, len(streamed), err)
				}
				done := 0
				for b := 0; b < pr.Blocks(); b++ {
					p, err := pr.ReadBlock(b)
					if err != nil {
						t.Fatalf("%s/%s/%d: ReadBlock(%d): %v", name, codec, n, b, err)
					}
					if done+p.Len() > n {
						t.Fatalf("%s/%s/%d: pages hold more than the %d entries streamed", name, codec, n, n)
					}
					checkPageModel(t, fmt.Sprintf("%s/%s/%d block %d", name, codec, n, b), p, streamed[done:done+p.Len()])
					done += p.Len()
				}
				if done != n {
					t.Fatalf("%s/%s/%d: pages hold %d entries", name, codec, n, done)
				}
			}
		}
	}
}

func checkPageModel(t *testing.T, name string, p *Page, model []entry) {
	t.Helper()
	same := func(what string, got, want []entry) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %s yields %d entries, want %d", name, what, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i].key, want[i].key) || got[i].tid != want[i].tid {
				t.Fatalf("%s: %s entry %d = %q/%d, want %q/%d", name, what, i, got[i].key, got[i].tid, want[i].key, want[i].tid)
			}
		}
	}
	same("iterator from the start", pageEntries(p), model)
	checkPageReads(t, name, p, model)
	var it PageIter
	for i, e := range model {
		if p.SeekIndex(&it, i); it.it.i != i || !bytes.Equal(it.Key(), e.key) || it.TID() != e.tid {
			t.Fatalf("%s: SeekIndex(%d) lands on %d %q/%d", name, i, it.it.i, it.Key(), it.TID())
		}
		if i%7 == 0 {
			var tail []entry
			for p.Seek(&it, e.key); it.Valid(); it.Next() {
				tail = append(tail, entry{append([]byte{}, it.Key()...), it.TID()})
			}
			same(fmt.Sprintf("seek at entry %d", i), tail, model[i:])
		}
	}
}

// TestPageSearchShortLCP holds a page to its keys when its front coding
// stores lcps shorter than the keys share — canonical, shortened by up to
// two bytes, or none at all, each key whole. The walk admits all three, so
// an entry whose lcp is below the match length is not thereby above the
// key: the search must compare its suffix.
func TestPageSearchShortLCP(t *testing.T) {
	keys := shortLCPKeys()
	model := make([]entry, len(keys))
	for i, k := range keys {
		model[i] = entry{k, uint64(i) + 1}
	}
	for name, lcpOf := range map[string]func(i, lcp int) int{
		"canonical": func(_, l int) int { return l },
		"short":     func(i, l int) int { return max(0, l-i%3) },
		"none":      func(int, int) int { return 0 },
	} {
		page, damage := newPage(frameBlock(CodecPacked, frontPayload(keys, lcpOf)), 0)
		if damage != nil {
			t.Fatalf("%s: %v", name, damage)
		}
		checkPageModel(t, name, page, model)
	}
}

// TestPageBytesIsItsFootprint pins the unit the page cache budgets in to
// what a page really keeps alive: the struct plus the capacity of every
// slice reachable from it, found by reflection so that a field added later
// is counted or fails here — and, for the cold tier's own shape, to at most
// 1.3 times the stored payload, the guard against a decoded copy of the
// block growing back beside the stored one.
func TestPageBytesIsItsFootprint(t *testing.T) {
	for _, codec := range []Codec{CodecRaw, CodecPacked} {
		blob, _ := buildSnapCodec(t, KindTree, codecShapes()["urls"], codec, true)
		pr, err := OpenPageReader(bytes.NewReader(blob), int64(len(blob)), KindTree)
		if err != nil {
			t.Fatal(err)
		}
		for b := 0; b < pr.Blocks(); b++ {
			p, err := pr.ReadBlock(b)
			if err != nil {
				t.Fatal(err)
			}
			footprint := int(unsafe.Sizeof(*p))
			var walk func(v reflect.Value)
			walk = func(v reflect.Value) {
				switch v.Kind() {
				case reflect.Struct:
					for i := 0; i < v.NumField(); i++ {
						walk(v.Field(i))
					}
				case reflect.Slice:
					footprint += v.Cap() * int(v.Type().Elem().Size())
				case reflect.Pointer, reflect.Map, reflect.Interface, reflect.Chan, reflect.String:
					t.Fatalf("Page reaches a %s this test does not know how to weigh", v.Kind())
				}
			}
			walk(reflect.ValueOf(p).Elem())
			stored := pr.blocks[b].Len
			if p.Bytes != footprint {
				t.Fatalf("%s block %d: Bytes = %d, the page retains %d", codec, b, p.Bytes, footprint)
			}
			// The fetch buffer is retained whole, prefix included, and is
			// exactly the block: nothing rides along uncounted.
			if cap(p.unit) != 8+stored || cap(p.restarts) != len(p.restarts) || cap(p.arena) != len(p.arena) {
				t.Fatalf("%s block %d: unit cap %d for %d stored, restarts %d/%d, arena %d/%d", codec, b,
					cap(p.unit), stored, len(p.restarts), cap(p.restarts), len(p.arena), cap(p.arena))
			}
			if float64(p.Bytes) > 1.3*float64(stored) {
				t.Fatalf("%s block %d: %d resident bytes for %d stored", codec, b, p.Bytes, stored)
			}
		}
	}
}

// BenchmarkReadBlock is one fault of the cold read path without the page
// cache: fetch a ~32 KiB block of url-like keys from memory, verify and
// admit it. raw and packed name the codec the file was written with.
func BenchmarkReadBlock(b *testing.B) {
	es := codecShapes()["urls"]
	for _, codec := range []Codec{CodecRaw, CodecPacked} {
		b.Run(codec.String(), func(b *testing.B) {
			blob, _ := buildSnapCodec(b, KindTree, es, codec, true)
			pr, err := OpenPageReader(bytes.NewReader(blob), int64(len(blob)), KindTree)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, err := pr.ReadBlock(i % pr.Blocks())
				if err != nil {
					b.Fatal(err)
				}
				benchSink += p.Len()
			}
			b.ReportMetric(float64(len(es))/float64(pr.Blocks()), "entries/block")
		})
	}
}

// BenchmarkPageLookup is a cold point read with every page resident: one
// packed section of 62 500 url keys — the size of one cold-url shard — with
// every block admitted up front, then FindBlock and Page.Lookup over a fixed
// uniform stream of its keys. It prices the page search alone, without a
// tree to build or a page cache to consult; pageB/key is the admitted
// pages' Bytes per key.
func BenchmarkPageLookup(b *testing.B) {
	const n = 62_500
	rng := rand.New(rand.NewSource(2018))
	es := make([]entry, n)
	for i, k := range dataset.SortedCopy(dataset.Generate(dataset.URL, n, 2018)) {
		es[i] = entry{key: k, tid: uint64(rng.Intn(1 << 22))}
	}
	blob, _ := buildSnapCodec(b, KindTree, es, CodecPacked, true)
	pr, err := OpenPageReader(bytes.NewReader(blob), int64(len(blob)), KindTree)
	if err != nil {
		b.Fatal(err)
	}
	pages := make([]*Page, pr.Blocks())
	pageBytes := 0
	for i := range pages {
		if pages[i], err = pr.ReadBlock(i); err != nil {
			b.Fatal(err)
		}
		pageBytes += pages[i].Bytes
	}
	picks := make([]int32, 1<<16)
	for i := range picks {
		picks[i] = int32(rng.Intn(n))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := es[picks[i%len(picks)]]
		if tid, ok := pages[pr.FindBlock(e.key)].Lookup(e.key); !ok || tid != e.tid {
			b.Fatalf("Lookup(%q) = (%d, %v), want %d", e.key, tid, ok, e.tid)
		}
	}
	b.ReportMetric(float64(pageBytes)/n, "pageB/key")
}

var benchSink int
