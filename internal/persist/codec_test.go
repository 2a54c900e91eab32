package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/hotindex/hot/internal/bits"
	"github.com/hotindex/hot/internal/dataset"
)

// buildSnapCodec is buildSnap with a codec selected (and optionally the
// block index enabled), returning the blob and how many blocks packed.
func buildSnapCodec(t testing.TB, kind uint16, es []entry, codec Codec, indexed bool) ([]byte, int) {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, kind)
	if err != nil {
		t.Fatal(err)
	}
	w.SetCodec(codec)
	if indexed {
		w.EnableBlockIndex()
	}
	for _, e := range es {
		if err := w.WriteEntry(e.key, e.tid); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), w.PackedBlocks()
}

// rawPayload is the raw entry stream of es.
func rawPayload(es []entry) []byte {
	var payload []byte
	for _, e := range es {
		payload = binary.AppendUvarint(payload, uint64(len(e.key)))
		payload = append(payload, e.key...)
		payload = binary.AppendUvarint(payload, e.tid)
	}
	return payload
}

// frameBlock frames payload as one block unit of codec with a valid CRC, so
// that what it holds is judged by the walker and not by the checksum.
func frameBlock(codec Codec, payload []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(codec)<<24|uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, blockChecksum(codec, payload))
	return append(b, payload...)
}

// blockEntries runs one block unit through the sequential driver.
func blockEntries(unit []byte) ([]entry, *FormatError) {
	var es []entry
	_, _, damage, _ := decodeBlock(unit, 0, &keyOrder{}, func(k []byte, tid uint64) error {
		es = append(es, entry{append([]byte{}, k...), tid})
		return nil
	})
	return es, damage
}

// codecShapes enumerates the entry shapes the packed codec specializes
// for: embedded-TID integers (key stream only), integer keys with store
// TIDs (delta keys + packed TID stream), string keys (front coding), sparse
// random integers (wide deltas), and front coding's edges (prefix-chain).
func codecShapes() map[string][]entry {
	intEmbedded := make([]entry, 6000)
	for i := range intEmbedded {
		v := uint64(1_000_000 + 3*i)
		k := make([]byte, 8)
		binary.BigEndian.PutUint64(k, v)
		intEmbedded[i] = entry{key: k, tid: v}
	}
	rng := rand.New(rand.NewSource(7))
	intStore := make([]entry, 6000)
	perm := rng.Perm(len(intStore))
	for i := range intStore {
		v := uint64(1_000_000 + 5*i)
		k := make([]byte, 8)
		binary.BigEndian.PutUint64(k, v)
		intStore[i] = entry{key: k, tid: uint64(perm[i])}
	}
	sparse := make([]entry, 4000)
	v := uint64(0)
	for i := range sparse {
		v += 1 + rng.Uint64()%(1<<40)
		k := make([]byte, 8)
		binary.BigEndian.PutUint64(k, v)
		sparse[i] = entry{key: k, tid: uint64(i)}
	}
	// The cold tier's own shape: long keys with long shared prefixes, TIDs
	// in load order rather than key order.
	urls := make([]entry, 4000)
	for i, k := range dataset.SortedCopy(dataset.Generate(dataset.URL, len(urls), 7)) {
		urls[i] = entry{key: k, tid: uint64(rng.Intn(1 << 20))}
	}
	// Front coding's edges: the empty key, keys that are proper prefixes of
	// their successors, and a 140-byte shared prefix, so that an lcp takes a
	// two-byte uvarint and a page prefix runs past 127 bytes.
	chain := []entry{{key: []byte{}}}
	long := bytes.Repeat([]byte("prefix/"), 20)
	for g := 0; len(chain) < 1500; g++ {
		k := fmt.Appendf(append([]byte{}, long...), "%03d", g)
		for d := 0; d < 24; d++ {
			chain = append(chain, entry{key: append([]byte{}, k...), tid: uint64(len(chain))})
			k = append(k, byte('a'+d))
		}
	}
	return map[string][]entry{
		"prefix-chain": chain,
		"urls":         urls,
		"int-embedded": intEmbedded,
		"int-store":    intStore,
		"int-sparse":   sparse,
		"strings":      genEntries(4000, 24),
		"long-strings": genEntries(500, 300),
		"single":       genEntries(1, 12),
	}
}

// frontPayload front-codes keys as a packed payload with TIDs 1, 2, …,
// storing each key's lcp with its predecessor as lcpOf makes it from the
// true one: a shorter lcp stores a longer suffix, and the format admits it.
func frontPayload(keys [][]byte, lcpOf func(i, lcp int) int) []byte {
	p := binary.AppendUvarint([]byte{0}, uint64(len(keys)))
	tids := make([]uint64, len(keys))
	for i, k := range keys {
		l := 0
		if i > 0 {
			l = lcpOf(i, lcpLen(keys[i-1], k))
			p = binary.AppendUvarint(p, uint64(l))
		}
		p = binary.AppendUvarint(p, uint64(len(k)-l))
		p = append(p, k[l:]...)
		tids[i] = uint64(i)
	}
	w := bits.PackWidth(uint64(len(keys) - 1))
	p = append(binary.AppendUvarint(p, 1), byte(w))
	return bits.AppendPacked(p, tids, w)
}

// shortLCPKeys is 40 ascending keys past two restarts, every other one a
// proper prefix of its successor.
func shortLCPKeys() [][]byte {
	var keys [][]byte
	for i := 0; i < 40; i++ {
		k := fmt.Appendf(nil, "key/%02d", i/2)
		if i%2 == 1 {
			k = append(k, "/x"...)
		}
		keys = append(keys, k)
	}
	return keys
}

// TestCodecRoundTrip writes every shape with CodecPacked and requires the
// read-back to match entry for entry — through the sequential reader, and
// byte-for-byte against what the raw writer produces when re-encoded.
func TestCodecRoundTrip(t *testing.T) {
	for name, es := range codecShapes() {
		t.Run(name, func(t *testing.T) {
			packed, nPacked := buildSnapCodec(t, KindTree, es, CodecPacked, false)
			raw, _ := buildSnapCodec(t, KindTree, es, CodecRaw, false)
			got, count, err := readAll(packed, KindTree)
			if err != nil {
				t.Fatalf("packed read: %v", err)
			}
			if count != uint64(len(es)) || len(got) != len(es) {
				t.Fatalf("count=%d len=%d, want %d", count, len(got), len(es))
			}
			for i, e := range es {
				if !bytes.Equal(got[i].key, e.key) || got[i].tid != e.tid {
					t.Fatalf("entry %d: got (%q,%d), want (%q,%d)", i, got[i].key, got[i].tid, e.key, e.tid)
				}
			}
			if nPacked > 0 && len(packed) >= len(raw) {
				t.Fatalf("packed file (%d B, %d packed blocks) not smaller than raw (%d B)",
					len(packed), nPacked, len(raw))
			}
			if name != "single" && nPacked == 0 {
				t.Fatalf("no block packed for a compressible shape")
			}
			t.Logf("%s: raw %d B, packed %d B (%.1f%%), %d packed blocks",
				name, len(raw), len(packed), 100*float64(len(packed))/float64(len(raw)), nPacked)
		})
	}
}

// TestCodecRawIdentical verifies SetCodec(CodecRaw) — and not calling
// SetCodec at all — produce files byte-identical to each other: the codec
// machinery is invisible until opted into.
func TestCodecRawIdentical(t *testing.T) {
	es := genEntries(3000, 16)
	explicit, n := buildSnapCodec(t, KindTree, es, CodecRaw, false)
	if n != 0 {
		t.Fatalf("raw writer reported %d packed blocks", n)
	}
	implicit := buildSnap(t, KindTree, es)
	if !bytes.Equal(explicit, implicit) {
		t.Fatal("explicit CodecRaw file differs from default writer output")
	}
}

// TestCodecFallbackRaw checks the per-block raw fallback: a block the
// packing cannot shrink (a single tiny entry) is stored raw even under
// CodecPacked, and the file is byte-identical to the raw one.
func TestCodecFallbackRaw(t *testing.T) {
	es := genEntries(1, 12)
	packed, n := buildSnapCodec(t, KindTree, es, CodecPacked, false)
	raw, _ := buildSnapCodec(t, KindTree, es, CodecRaw, false)
	if n != 0 {
		t.Fatalf("single-entry block reported packed")
	}
	if !bytes.Equal(packed, raw) {
		t.Fatal("incompressible block under CodecPacked is not stored raw")
	}
}

// TestCodecEncodeDecodeExact round-trips raw payloads through encodePacked
// and the walker directly: the entries it delivers must re-encode to the
// input byte for byte (the property the CRC envelope and salvage rely on).
func TestCodecEncodeDecodeExact(t *testing.T) {
	for name, es := range codecShapes() {
		t.Run(name, func(t *testing.T) {
			var payload []byte
			for _, e := range es[:min(len(es), 500)] {
				if len(payload) >= blockTarget {
					break // the writer never lets a block grow past this
				}
				payload = append(payload, rawPayload([]entry{e})...)
			}
			enc, ok := encodePacked(nil, payload)
			if !ok {
				if name == "single" {
					return // too small to shrink, by design
				}
				t.Fatal("encodePacked declined a compressible payload")
			}
			dec, damage := blockEntries(frameBlock(CodecPacked, enc))
			if damage != nil {
				t.Fatalf("packed block: %v", damage)
			}
			if !bytes.Equal(rawPayload(dec), payload) {
				t.Fatal("decode is not byte-identical to the original payload")
			}
		})
	}
}

// TestCodecTruncationSweep is TestTruncationSweep over a packed snapshot:
// cutting the file at every byte offset must fail strict reads and leave
// Recover salvaging only clean prefixes.
func TestCodecTruncationSweep(t *testing.T) {
	es := codecShapes()["int-store"][:3000]
	blob, nPacked := buildSnapCodec(t, KindTree, es, CodecPacked, false)
	if nPacked == 0 {
		t.Fatal("shape did not pack")
	}
	for cut := 0; cut < len(blob); cut++ {
		if _, _, err := readAll(blob[:cut], KindTree); err == nil {
			t.Fatalf("cut=%d: strict read of truncated snapshot succeeded", cut)
		}
		var got []entry
		rep, err := Recover(bytes.NewReader(blob[:cut]), KindTree, func(k []byte, tid uint64) error {
			got = append(got, entry{key: append([]byte(nil), k...), tid: tid})
			return nil
		})
		if cut >= headerSize && err != nil {
			t.Fatalf("cut=%d: recover errored: %v", cut, err)
		}
		if rep.Complete {
			t.Fatalf("cut=%d: truncated snapshot reported complete", cut)
		}
		if rep.Entries != uint64(len(got)) {
			t.Fatalf("cut=%d: report says %d entries, delivered %d", cut, rep.Entries, len(got))
		}
		for i, e := range got {
			if !bytes.Equal(e.key, es[i].key) || e.tid != es[i].tid {
				t.Fatalf("cut=%d: salvaged entry %d is not a prefix of the original", cut, i)
			}
		}
	}
}

// TestCodecBitFlipSweep is TestBitFlipSweep over a packed snapshot,
// including the codec byte in every block's length word: a flip there must
// surface as typed damage (checksum or codec), never as silently
// reinterpreted entries.
func TestCodecBitFlipSweep(t *testing.T) {
	es := codecShapes()["int-store"][:2000]
	blob, _ := buildSnapCodec(t, KindTree, es, CodecPacked, false)
	mut := make([]byte, len(blob))
	for off := 0; off < len(blob); off++ {
		copy(mut, blob)
		mut[off] ^= 0x01
		if _, _, err := readAll(mut, KindTree); err == nil {
			t.Fatalf("off=%d: strict read of bit-flipped snapshot succeeded", off)
		}
		var got []entry
		rep, _ := Recover(bytes.NewReader(mut), KindTree, func(k []byte, tid uint64) error {
			got = append(got, entry{key: append([]byte(nil), k...), tid: tid})
			return nil
		})
		if rep.Complete {
			t.Fatalf("off=%d: flipped snapshot reported complete", off)
		}
		for i, e := range got {
			if !bytes.Equal(e.key, es[i].key) || e.tid != es[i].tid {
				t.Fatalf("off=%d: salvaged entry %d diverges from the original", off, i)
			}
		}
	}
}

// TestCodecSkewMatrix pins the version/codec-skew contract: raw files load
// under any reader; a packed file read by a codec-disabled reader fails
// with ErrUnsupportedCodec (never a checksum mismatch); an unknown future
// codec byte fails the same way under the current reader.
func TestCodecSkewMatrix(t *testing.T) {
	es := codecShapes()["int-store"][:3000]
	raw, _ := buildSnapCodec(t, KindTree, es, CodecRaw, false)
	packed, _ := buildSnapCodec(t, KindTree, es, CodecPacked, true)

	t.Run("old-raw-under-new-reader", func(t *testing.T) {
		if _, _, err := readAll(raw, KindTree); err != nil {
			t.Fatalf("raw snapshot: %v", err)
		}
	})

	t.Run("packed-under-codec-disabled-reader", func(t *testing.T) {
		defer func(limit Codec) { readerCodecLimit = limit }(readerCodecLimit)
		readerCodecLimit = CodecRaw
		_, _, err := readAll(packed, KindTree)
		var fe *FormatError
		if !errors.As(err, &fe) || fe.Kind != ErrUnsupportedCodec {
			t.Fatalf("got %v, want ErrUnsupportedCodec", err)
		}
		if fe.Kind == ErrChecksum {
			t.Fatal("codec skew misreported as checksum mismatch")
		}
		// The paged reader must agree (its footer carries no codec, so the
		// rejection comes from the block fetch).
		pr, err := OpenPageReader(bytes.NewReader(packed), int64(len(packed)), KindTree)
		if err == nil {
			_, err = pr.ReadBlock(0)
		}
		if !errors.As(err, &fe) || fe.Kind != ErrUnsupportedCodec {
			t.Fatalf("paged read got %v, want ErrUnsupportedCodec", err)
		}
		// Raw files keep loading under the restricted reader.
		if _, _, err := readAll(raw, KindTree); err != nil {
			t.Fatalf("raw snapshot under restricted reader: %v", err)
		}
	})

	t.Run("unknown-future-codec", func(t *testing.T) {
		mut := append([]byte(nil), raw...)
		// First block's length word starts right after the header; stamp a
		// codec this build has never heard of.
		mut[headerSize+3] = 0x7F
		_, _, err := readAll(mut, KindTree)
		var fe *FormatError
		if !errors.As(err, &fe) || fe.Kind != ErrUnsupportedCodec {
			t.Fatalf("got %v, want ErrUnsupportedCodec", err)
		}
		if got := fmt.Sprint(fe); got == "" {
			t.Fatal("empty error text")
		}
		// Recover treats it as damage at that block: the prefix before it
		// (nothing here) is salvaged, the report carries the typed kind.
		rep, rerr := Recover(bytes.NewReader(mut), KindTree, func([]byte, uint64) error { return nil })
		if rerr != nil {
			t.Fatalf("recover errored: %v", rerr)
		}
		if rep.Damage == nil || rep.Damage.Kind != ErrUnsupportedCodec {
			t.Fatalf("recover damage = %v, want ErrUnsupportedCodec", rep.Damage)
		}
	})
}

// TestCodecPageReader serves point reads over a packed indexed snapshot —
// the cold tier's access path — via both the HIDX footer and the
// sequential-scan fallback, and checks ScanSections' compression stats.
func TestCodecPageReader(t *testing.T) {
	for name, es := range codecShapes() {
		t.Run(name, func(t *testing.T) {
			blob, nPacked := buildSnapCodec(t, KindTree, es, CodecPacked, true)
			pr, err := OpenPageReader(bytes.NewReader(blob), int64(len(blob)), KindTree)
			if err != nil {
				t.Fatal(err)
			}
			if !pr.Indexed() {
				t.Fatal("HIDX footer not used")
			}
			checkPointReads(t, pr, es)

			// Strip the footer: the sequential-scan fallback must decode the
			// packed blocks identically. Point reads without an index scan
			// from the start, so sweep only two representative shapes.
			if name == "int-store" || name == "strings" {
				var ft [indexFooterSize]byte
				copy(ft[:], blob[len(blob)-indexFooterSize:])
				idxLen := int(binary.LittleEndian.Uint32(ft[4:]))
				bare := blob[:len(blob)-indexFooterSize-idxLen]
				pr2, err := OpenPageReader(bytes.NewReader(bare), int64(len(bare)), KindTree)
				if err != nil {
					t.Fatal(err)
				}
				if pr2.Indexed() {
					t.Fatal("footerless file claimed indexed")
				}
				checkPointReads(t, pr2, es)
			}

			// Write the indexed file to disk and let ScanSections audit it.
			path := filepath.Join(t.TempDir(), "snap.hot")
			if err := os.WriteFile(path, blob, 0o644); err != nil {
				t.Fatal(err)
			}
			secs, err := ScanSections(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(secs) != 1 || secs[0].Entries != uint64(len(es)) {
				t.Fatalf("sections = %+v", secs)
			}
			if secs[0].PackedBlocks != nPacked {
				t.Fatalf("ScanSections counted %d packed blocks, writer reported %d",
					secs[0].PackedBlocks, nPacked)
			}
			if nPacked > 0 && secs[0].Bytes >= secs[0].UnpackedBytes {
				t.Fatalf("packed section bytes %d not below unpacked %d",
					secs[0].Bytes, secs[0].UnpackedBytes)
			}
			if nPacked == 0 && secs[0].Bytes != secs[0].UnpackedBytes {
				t.Fatalf("all-raw section bytes %d != unpacked %d",
					secs[0].Bytes, secs[0].UnpackedBytes)
			}
		})
	}
}

// FuzzBlockCodec fuzzes both codec directions: the walker must never panic
// on arbitrary bytes framed as a packed block, and must refuse them with a
// typed error or deliver a valid entry list — the same verdict and the same
// entries through the sequential driver and through a Page; payloads that
// encode cleanly must come back entry for entry.
func FuzzBlockCodec(f *testing.F) {
	for _, es := range codecShapes() {
		var payload []byte
		for _, e := range es[:min(len(es), 200)] {
			if len(payload) >= blockTarget {
				break
			}
			payload = append(payload, rawPayload([]entry{e})...)
		}
		f.Add(payload)
		if enc, ok := encodePacked(nil, payload); ok {
			f.Add(enc)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0x03, 0x01})
	// Regression: front-coded payload (flags 0x00, n=2, key "a", lcp=1,
	// slen=2^64-1) whose lcp+slen sum wrapped below MaxKeyLen; int(slen)
	// then went negative and the suffix slice paniced.
	f.Add([]byte{0x00, 0x02, 0x01, 'a', 0x01,
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	// Front coding that stores shorter lcps than the keys share, which the
	// walk admits and a search must not read as an order.
	f.Add(frontPayload(shortLCPKeys(), func(i, l int) int { return max(0, l-i%3) }))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Direction 1: data as a hostile packed payload under a valid CRC.
		// Must not panic; what is accepted must be a valid entry list, and
		// the page built from the same bytes must hold exactly it.
		unit := frameBlock(CodecPacked, data)
		dec, damage := blockEntries(unit)
		page, pdamage := newPage(unit, 0)
		if (damage == nil) != (pdamage == nil) || (damage != nil && *damage != *pdamage) {
			t.Fatalf("sequential driver: %v, page: %v", damage, pdamage)
		}
		if damage == nil {
			paged := pageEntries(page)
			if len(dec) == 0 || len(paged) != len(dec) || page.Len() != len(dec) {
				t.Fatalf("%d entries delivered, page holds %d of %d", len(dec), len(paged), page.Len())
			}
			for i, e := range dec {
				if len(e.key) > MaxKeyLen || e.tid > MaxTID || (i > 0 && bytes.Compare(dec[i-1].key, e.key) >= 0) {
					t.Fatalf("entry %d (%q, %d) breaks the format's rules", i, e.key, e.tid)
				}
				if !bytes.Equal(paged[i].key, e.key) || paged[i].tid != e.tid {
					t.Fatalf("entry %d: page %q/%d, stream %q/%d", i, paged[i].key, paged[i].tid, e.key, e.tid)
				}
			}
			checkPageReads(t, "page", page, dec)
		}
		// Direction 2: data as a raw payload. If it encodes, the walker
		// must deliver the input's own entries. Oversized payloads are out
		// of contract — the writer seals blocks at blockTarget — so skip
		// them: the walker rightly rejects what expands past the block cap.
		if enc, ok := encodePacked(nil, data); ok && len(data) <= blockTarget {
			want, damage := blockEntries(frameBlock(CodecRaw, data))
			if damage != nil {
				t.Fatalf("encoded a payload the raw walk rejects: %v", damage)
			}
			rt, damage := blockEntries(frameBlock(CodecPacked, enc))
			if damage != nil {
				t.Fatalf("clean encode failed to decode: %v", damage)
			}
			if !bytes.Equal(rawPayload(rt), rawPayload(want)) {
				t.Fatal("encode/decode round trip lost or changed an entry")
			}
		}
	})
}
