package persist

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
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
			if prevLast != nil && bytes.Compare(prevLast, page.Key(0)) >= 0 {
				ordered = false
			}
			for i := 0; i < page.Len(); i++ {
				k := page.Key(i)
				if j, ok := page.Find(k); !ok || j != i {
					t.Fatalf("block %d: Find(%q) = (%d, %v), want (%d, true)", b, k, j, ok, i)
				}
				paged = append(paged, entry{k, page.TID(i)})
			}
			prevLast = page.Key(page.Len() - 1)
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
