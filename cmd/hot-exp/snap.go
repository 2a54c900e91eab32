package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	hot "github.com/hotindex/hot"
	"github.com/hotindex/hot/internal/bench"
	"github.com/hotindex/hot/internal/dataset"
	"github.com/hotindex/hot/internal/persist"
	"github.com/hotindex/hot/internal/tidstore"
)

// snapRecord is one data set's result in the -json output.
type snapRecord struct {
	Dataset     string  `json:"dataset"`
	Codec       string  `json:"codec"`
	N           int     `json:"n"`
	Bytes       int64   `json:"bytes"`
	BytesPerKey float64 `json:"bytes_per_key"`
	// UnpackedBytes is what the same snapshot occupies with every block
	// raw; Bytes/UnpackedBytes is the achieved compression ratio.
	UnpackedBytes int64         `json:"unpacked_bytes"`
	PackedBlocks  int           `json:"packed_blocks"`
	SaveMs        float64       `json:"save_ms"`
	LoadMs        float64       `json:"load_ms"`
	RebuildMs     float64       `json:"rebuild_ms"`
	Speedup       float64       `json:"speedup"`
	Sections      []snapSection `json:"sections"`
}

// snapBaseline is the checked-in bytes/key reference the nightly CI job
// compares against (results/codec_baseline.json).
type snapBaseline struct {
	Codec       string             `json:"codec"`
	N           int                `json:"n"`
	BytesPerKey map[string]float64 `json:"bytes_per_key"`
}

// snapSection is the on-disk layout of one snapshot section, from
// persist.ScanSections — how the bytes divide into CRC-framed blocks
// and (for indexed files) the trailing HIDX block index.
type snapSection struct {
	Kind          string  `json:"kind"`
	Bytes         int64   `json:"bytes"`
	Blocks        int     `json:"blocks"`
	PackedBlocks  int     `json:"packed_blocks"`
	UnpackedBytes int64   `json:"unpacked_bytes"`
	Entries       uint64  `json:"entries"`
	BytesPerKey   float64 `json:"bytes_per_key"`
	IndexBytes    int64   `json:"index_bytes,omitempty"`
}

// kindNames maps a section header's content kind to a stable label.
var kindNames = map[uint16]string{
	persist.KindTree:          "tree",
	persist.KindMap:           "map",
	persist.KindUint64Set:     "uint64set",
	persist.KindShardManifest: "manifest",
	persist.KindWAL:           "wal",
}

// runSnap measures snapshot persistence: for each data set it builds a
// Tree, saves a crash-safe snapshot to disk, then times loading that
// snapshot back against rebuilding the index from raw keys — the recovery
// path a database restart would take. The loaded tree is verified against
// the original on every run.
//
//	hot-exp snap                             # all four data sets, 1M keys
//	hot-exp snap -n 200000 -datasets url,integer
//	hot-exp snap -json SNAP.json             # machine-readable records
//	hot-exp snap -codec packed               # delta-compressed blocks
//	hot-exp snap -codec packed -baseline results/codec_baseline.json
//
// The integer data set is saved under the embedded-TID convention (every
// TID is the big-endian decode of its 8-byte key, resolved through
// tidstore.Uint64Key), the shape the packed codec elides TID streams for
// entirely — the paper's key-embedding optimization. With -baseline, each
// data set's bytes/key is compared against the checked-in baseline and
// the run fails if any regresses by more than 5%.
func runSnap(args []string, out io.Writer) error {
	c := newFlags("snap", 1_000_000, "url,email,yago,integer")
	var (
		dir       = c.fs.String("dir", "", "directory for snapshot files (default: a temp dir, removed on exit)")
		indexed   = c.fs.Bool("indexed", false, "save with the sparse block index (the cold tier's on-disk lookup format)")
		jsonPath  = c.fs.String("json", "", "additionally write results as a JSON array to this file")
		codecName = c.fs.String("codec", "raw", "snapshot block codec: raw or packed")
		basePath  = c.fs.String("baseline", "", "compare bytes/key against this baseline JSON; fail on a >5% regression")
	)
	kinds, _, err := c.parse(args)
	if err != nil {
		return err
	}
	// Like the list flags, the codec and the baseline are checked before any
	// work: a typo is a hard error, not a silent fall-through to raw.
	codec, err := hot.ParseSnapshotCodec(*codecName)
	if err != nil {
		return err
	}
	var base *snapBaseline
	if *basePath != "" {
		blob, err := os.ReadFile(*basePath)
		if err != nil {
			return err
		}
		base = &snapBaseline{}
		if err := json.Unmarshal(blob, base); err != nil {
			return fmt.Errorf("%s: %w", *basePath, err)
		}
		if base.Codec != codec.String() {
			return fmt.Errorf("baseline %s was recorded for codec %q, this run uses %q", *basePath, base.Codec, codec)
		}
		if base.N != *c.n {
			return fmt.Errorf("baseline %s was recorded at -n %d, this run uses -n %d", *basePath, base.N, *c.n)
		}
		for _, kind := range kinds {
			if _, ok := base.BytesPerKey[kind.String()]; !ok {
				return fmt.Errorf("baseline %s has no entry for data set %q", *basePath, kind)
			}
		}
	}

	if *dir == "" {
		tmp, err := os.MkdirTemp("", "hot-exp-snap-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		*dir = tmp
	}

	fmt.Fprintf(out, "%d keys per data set, codec %s, snapshots in %s\n", *c.n, codec, *dir)
	fmt.Fprintf(out, "%-9s %10s %12s %9s %9s %11s %8s\n",
		"dataset", "n", "bytes", "save_ms", "load_ms", "rebuild_ms", "speedup")

	var records []snapRecord
	var regressed []string
	for _, kind := range kinds {
		rec, err := snapOne(kind, *c.n, *c.seed, codec, *indexed, filepath.Join(*dir, kind.String()+".hot"))
		if err != nil {
			return fmt.Errorf("%s: %w", kind, err)
		}
		records = append(records, rec)
		fmt.Fprintf(out, "%-9s %10d %12d %9.1f %9.1f %11.1f %7.2fx\n",
			rec.Dataset, rec.N, rec.Bytes, rec.SaveMs, rec.LoadMs, rec.RebuildMs, rec.Speedup)
		for _, s := range rec.Sections {
			fmt.Fprintf(out, "          section %-9s %8d blocks (%d packed), %5.1f B/key, index %d B\n",
				s.Kind, s.Blocks, s.PackedBlocks, s.BytesPerKey, s.IndexBytes)
		}
		if rec.PackedBlocks > 0 {
			fmt.Fprintf(out, "          packed to %.1f%% of the raw layout (%d of %d B)\n",
				100*float64(rec.Bytes)/float64(rec.UnpackedBytes), rec.Bytes, rec.UnpackedBytes)
		}
		if base == nil {
			continue
		}
		want := base.BytesPerKey[rec.Dataset]
		if rec.BytesPerKey > want*1.05 {
			regressed = append(regressed, fmt.Sprintf("%s bytes/key regressed: %.2f vs baseline %.2f (+%.1f%%)",
				rec.Dataset, rec.BytesPerKey, want, 100*(rec.BytesPerKey/want-1)))
		} else {
			fmt.Fprintf(out, "          baseline %.2f B/key, measured %.2f (%+.1f%%)\n",
				want, rec.BytesPerKey, 100*(rec.BytesPerKey/want-1))
		}
	}

	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, records); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", *jsonPath)
	}
	if len(regressed) > 0 {
		return errors.New(strings.Join(regressed, "\n"))
	}
	return nil
}

// snapOne builds, saves, reloads and rebuilds one data set's tree and
// reports the timings and the on-disk layout of the snapshot at path.
func snapOne(kind dataset.Kind, n int, seed int64, codec hot.SnapshotCodec, indexed bool, path string) (snapRecord, error) {
	// Integer keys use the embedded-TID convention: the TID is the key,
	// so the snapshot needs no TID storage at all (and the packed codec
	// elides the TID stream). Everything else resolves through a store.
	var keys [][]byte
	var tids []uint64
	loader := hot.Loader(tidstore.Uint64Key)
	if kind == dataset.Integer {
		keys = dataset.Generate(kind, n, seed)
		tids = make([]uint64, len(keys))
		for i, k := range keys {
			tids[i] = binary.BigEndian.Uint64(k)
		}
	} else {
		data := bench.Load(kind, n, 0, seed)
		keys, tids, loader = data.Keys, data.TIDs, data.Store.Key
	}

	// Build the original index (also the rebuild-path baseline shape).
	build := func() (*hot.Tree, time.Duration) {
		start := time.Now()
		tr := hot.New(loader)
		tr.SetSnapshotCodec(codec)
		for i, k := range keys {
			tr.Insert(k, tids[i])
		}
		return tr, time.Since(start)
	}
	orig, _ := build()

	save := orig.SaveFile
	if indexed {
		save = orig.SaveIndexedFile
	}
	start := time.Now()
	if err := save(path); err != nil {
		return snapRecord{}, err
	}
	saveDur := time.Since(start)
	fi, err := os.Stat(path)
	if err != nil {
		return snapRecord{}, err
	}

	start = time.Now()
	loaded, err := hot.LoadTreeFile(path, loader)
	if err != nil {
		return snapRecord{}, err
	}
	loadDur := time.Since(start)

	// The rebuild path: what a restart costs without a snapshot.
	rebuilt, rebuildDur := build()

	if err := sameTree(orig, loaded); err != nil {
		return snapRecord{}, fmt.Errorf("loaded tree %w", err)
	}
	if err := sameTree(orig, rebuilt); err != nil {
		return snapRecord{}, fmt.Errorf("rebuilt tree %w", err)
	}

	infos, err := persist.ScanSections(path)
	if err != nil {
		return snapRecord{}, err
	}
	rec := snapRecord{
		Dataset:     kind.String(),
		Codec:       codec.String(),
		N:           len(keys),
		Bytes:       fi.Size(),
		BytesPerKey: float64(fi.Size()) / float64(len(keys)),
		SaveMs:      ms(saveDur),
		LoadMs:      ms(loadDur),
		RebuildMs:   ms(rebuildDur),
		Speedup:     rebuildDur.Seconds() / loadDur.Seconds(),
	}
	for _, si := range infos {
		s := snapSection{
			Kind:          kindNames[si.Kind],
			Bytes:         si.Bytes,
			Blocks:        si.Blocks,
			PackedBlocks:  si.PackedBlocks,
			UnpackedBytes: si.UnpackedBytes,
			Entries:       si.Entries,
			IndexBytes:    si.IndexBytes,
		}
		if s.Kind == "" {
			s.Kind = fmt.Sprintf("kind%d", si.Kind)
		}
		if si.Entries > 0 {
			s.BytesPerKey = float64(si.Bytes) / float64(si.Entries)
		}
		rec.PackedBlocks += si.PackedBlocks
		rec.UnpackedBytes += si.UnpackedBytes + si.IndexBytes
		rec.Sections = append(rec.Sections, s)
	}
	return rec, nil
}

// sameTree reports whether got is structurally valid and indexes exactly
// the same entries as want, by Len and a paired full scan.
func sameTree(want, got *hot.Tree) error {
	if err := got.Verify(); err != nil {
		return fmt.Errorf("fails Verify: %w", err)
	}
	if got.Len() != want.Len() {
		return fmt.Errorf("has %d entries, want %d", got.Len(), want.Len())
	}
	wantTIDs := make([]uint64, 0, want.Len())
	want.Scan(nil, want.Len(), func(tid hot.TID) bool {
		wantTIDs = append(wantTIDs, tid)
		return true
	})
	i := 0
	ok := true
	got.Scan(nil, got.Len(), func(tid hot.TID) bool {
		ok = i < len(wantTIDs) && tid == wantTIDs[i]
		i++
		return ok
	})
	if !ok || i != len(wantTIDs) {
		return fmt.Errorf("diverges from the original at entry %d", i)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
