package hot

import (
	"fmt"
	"io"
	"sync/atomic"

	"github.com/hotindex/hot/internal/core"
	"github.com/hotindex/hot/internal/persist"
)

// Snapshot persistence: every index type can save a versioned, checksummed
// binary snapshot (internal/persist format: magic + header, per-block
// CRC32, trailer with the authoritative entry count) and load it back.
// SaveFile variants are crash-safe — temp file, fsync, atomic rename,
// directory fsync — so a crash mid-save leaves the previous snapshot
// intact. Load variants validate everything (checksums, key order, entry
// counts) and return typed *SnapshotError values with exact byte offsets;
// Recover variants additionally salvage the longest valid prefix of a
// damaged file.

// SnapshotError is the typed error the snapshot loaders return for a
// damaged or incompatible file: the damage kind, the exact byte offset of
// the damaged unit, and a description.
type SnapshotError = persist.FormatError

// SnapshotErrKind classifies a SnapshotError.
type SnapshotErrKind = persist.ErrKind

// SnapshotError kinds.
const (
	// SnapErrBadMagic: the file is not a HOT snapshot.
	SnapErrBadMagic = persist.ErrBadMagic
	// SnapErrVersionSkew: the snapshot was written by an incompatible
	// format version.
	SnapErrVersionSkew = persist.ErrVersionSkew
	// SnapErrWrongKind: the snapshot holds a different index type (e.g. a
	// Map snapshot loaded as a Uint64Set).
	SnapErrWrongKind = persist.ErrWrongKind
	// SnapErrTruncated: the file ends mid-structure (torn tail).
	SnapErrTruncated = persist.ErrTruncated
	// SnapErrChecksum: a block or trailer checksum mismatch (bit rot).
	SnapErrChecksum = persist.ErrChecksum
	// SnapErrCorrupt: structurally invalid contents despite clean
	// checksums (out-of-order keys, bad lengths, count mismatch).
	SnapErrCorrupt = persist.ErrCorrupt
	// SnapErrUnsupportedCodec: a block is stored with a payload codec this
	// build does not decode — a snapshot from a newer build, not damage.
	// Reported from the codec byte alone, never as a checksum mismatch.
	SnapErrUnsupportedCodec = persist.ErrUnsupportedCodec
)

// SnapshotCodec selects how snapshot blocks are encoded on disk.
type SnapshotCodec = persist.Codec

const (
	// SnapshotCodecRaw stores block payloads verbatim — the default, and
	// byte-identical to snapshots written before codecs existed.
	SnapshotCodecRaw = persist.CodecRaw
	// SnapshotCodecPacked delta-compresses each block's sorted key stream
	// and bit-packs its TIDs, falling back to raw storage for any block the
	// packing would not shrink. Files remain loadable by any reader that
	// knows the codec; readers that do not reject them with a typed
	// SnapErrUnsupportedCodec error.
	SnapshotCodecPacked = persist.CodecPacked
)

// ParseSnapshotCodec parses a codec name ("raw" or "packed"), rejecting
// anything else with an error naming the valid options.
func ParseSnapshotCodec(s string) (SnapshotCodec, error) { return persist.ParseCodec(s) }

// codecOpt carries an index's snapshot codec selection. Every index type
// embeds it; the sharded set delegates to its underlying tree. Atomic so a
// configuration call cannot race a concurrent snapshot.
type codecOpt struct{ codec atomic.Uint32 }

// SetSnapshotCodec selects the block codec used by this index's subsequent
// Save/Snapshot/checkpoint writes. The default is SnapshotCodecRaw; the
// choice affects only files written from now on — every reader accepts
// both codecs regardless of this setting.
func (c *codecOpt) SetSnapshotCodec(codec SnapshotCodec) { c.codec.Store(uint32(codec)) }

// SnapshotCodec returns the codec subsequent snapshot writes will use.
func (c *codecOpt) SnapshotCodec() SnapshotCodec { return SnapshotCodec(c.codec.Load()) }

// RecoveryReport describes what a Recover* loader salvaged: how many
// entries were delivered from the valid prefix, whether the snapshot was in
// fact complete, and the first damage found (nil when complete).
type RecoveryReport = persist.RecoveryReport

// ---- Tree ----

// Save writes a snapshot of the tree — every (key, TID) entry in ascending
// key order, keys resolved through the loader — to w. Use SaveFile for
// crash-safe on-disk snapshots.
func (t *Tree) Save(w io.Writer) error {
	return writeSnapshot(w, persist.KindTree, t.SnapshotCodec(), false, walkSource(t.t.Walk))
}

// SaveFile atomically writes a snapshot of the tree to path: the stream
// goes to path+".tmp", is fsynced, renamed over path, and the directory is
// fsynced. On any error path is left untouched.
func (t *Tree) SaveFile(path string) error {
	return writeSnapshotFile(path, persist.KindTree, t.SnapshotCodec(), false, walkSource(t.t.Walk))
}

// SaveIndexedFile is SaveFile with the sparse per-block key index
// appended after the trailer, so the snapshot can later serve point
// lookups directly from disk (via the cold tier's page cache) without
// being loaded. The file remains fully readable by LoadTreeFile and
// older readers, which stop at the trailer.
func (t *Tree) SaveIndexedFile(path string) error {
	return writeSnapshotFile(path, persist.KindTree, t.SnapshotCodec(), true, walkSource(t.t.Walk))
}

// LoadTree rebuilds a Tree from a snapshot, validating checksums, key
// order and prefix-freeness as it streams entries, and returns a typed
// *SnapshotError (with the byte offset of the damage) on any corruption.
// The loader must resolve every TID stored in the snapshot, exactly as it
// did when the snapshot was saved.
func LoadTree(r io.Reader, loader Loader) (*Tree, error) {
	t := New(loader)
	if _, err := persist.Read(r, persist.KindTree, loadInto(t.t.Insert)); err != nil {
		return nil, err
	}
	return t, nil
}

// LoadTreeFile is LoadTree over the file at path.
func LoadTreeFile(path string, loader Loader) (*Tree, error) {
	t := New(loader)
	if _, err := persist.ReadFile(path, persist.KindTree, loadInto(t.t.Insert)); err != nil {
		return nil, err
	}
	return t, nil
}

// RecoverTreeFile rebuilds a Tree from the longest valid prefix of a
// possibly damaged snapshot. The report says how much was salvaged and what
// damage stopped the read; the error is non-nil only when nothing could be
// loaded at all (unreadable file, or not a tree snapshot).
func RecoverTreeFile(path string, loader Loader) (*Tree, RecoveryReport, error) {
	t := New(loader)
	rep, err := persist.RecoverFile(path, persist.KindTree, loadInto(t.t.Insert))
	if err != nil {
		return nil, rep, err
	}
	return t, rep, nil
}

// loadInto returns the sink every tree-shaped load ends in — Tree and a
// shard's writer batch alike: insert, converting a rejection (a duplicate
// key under zero-padding, i.e. a non-prefix-free key set) into a typed
// corruption error instead of building a silently wrong tree.
func loadInto(insert func(key []byte, tid TID) bool) persist.EntryFunc {
	return func(key []byte, tid TID) error {
		if !insert(key, tid) {
			return &SnapshotError{Kind: persist.ErrCorrupt,
				Detail: fmt.Sprintf("key %q not prefix-free under zero-padding", key)}
		}
		return nil
	}
}

// entrySource streams entries in ascending key order into fn, stopping at
// and returning fn's first error (or its own: a cold section's read can fail).
type entrySource func(fn persist.EntryFunc) error

// walkSource adapts a trie walk, whose callback cannot return an error, to
// an entrySource.
func walkSource(walk func(func(key []byte, tid core.TID) bool) int) entrySource {
	return func(fn persist.EntryFunc) error {
		var err error
		walk(func(key []byte, tid core.TID) bool {
			err = fn(key, tid)
			return err == nil
		})
		return err
	}
}

// writeSnapshot is the write side of every Save/Snapshot entry point: one
// complete section of the given kind — header, src's entries as blocks under
// codec, trailer, and the HIDX block index when indexed — streamed to w.
func writeSnapshot(w io.Writer, kind uint16, codec SnapshotCodec, indexed bool, src entrySource) error {
	sw, err := persist.NewWriter(w, kind)
	if err != nil {
		return err
	}
	sw.SetCodec(codec)
	if indexed {
		sw.EnableBlockIndex()
	}
	if err := src(sw.WriteEntry); err != nil {
		return err
	}
	return sw.Close()
}

// writeSnapshotFile is writeSnapshot under the crash-safe file protocol:
// temp file, fsync, atomic rename, directory fsync.
func writeSnapshotFile(path string, kind uint16, codec SnapshotCodec, indexed bool, src entrySource) error {
	return persist.AtomicFile(path, func(w io.Writer) error {
		return writeSnapshot(w, kind, codec, indexed, src)
	})
}

// ---- ConcurrentTree ----

// Snapshot writes a snapshot of the live tree to w without blocking
// concurrent writers: the walk runs under a single epoch guard, so writers
// proceed — inserts and deletes copy-on-write, their retired nodes simply
// not reclaimed until the snapshot finishes, and upserts of present keys in
// place. Entries committed while the snapshot streams may or may not be
// included, exactly like the paper's wait-free scans: each included entry
// is a value its key held during the walk, and what is included is always
// a structurally consistent ascending key sequence.
func (t *ConcurrentTree) Snapshot(w io.Writer) error {
	return writeSnapshot(w, persist.KindTree, t.SnapshotCodec(), false, walkSource(t.t.SnapshotWalk))
}

// SnapshotFile atomically writes a snapshot of the live tree to path (see
// Snapshot for the concurrency semantics and SaveFile for the durability
// protocol).
func (t *ConcurrentTree) SnapshotFile(path string) error {
	return writeSnapshotFile(path, persist.KindTree, t.SnapshotCodec(), false, walkSource(t.t.SnapshotWalk))
}

// ---- Map ----

// Save writes a snapshot of the map — every (key, value) pair in ascending
// key order, keys in their original (unescaped) bytes — to w.
func (m *Map) Save(w io.Writer) error {
	return writeSnapshot(w, persist.KindMap, m.SnapshotCodec(), false, walkSource(m.walk))
}

// SaveFile atomically writes a snapshot of the map to path (see
// Tree.SaveFile for the durability protocol).
func (m *Map) SaveFile(path string) error {
	return writeSnapshotFile(path, persist.KindMap, m.SnapshotCodec(), false, walkSource(m.walk))
}

// walk hands out every pair with its original (unescaped) key bytes.
func (m *Map) walk(emit func(key []byte, val uint64) bool) int {
	return m.Range(nil, -1, emit)
}

// LoadMap rebuilds a Map from a snapshot, returning a typed
// *SnapshotError on any corruption.
func LoadMap(r io.Reader) (*Map, error) {
	m := NewMap()
	if _, err := persist.Read(r, persist.KindMap, m.loadEntry); err != nil {
		return nil, err
	}
	return m, nil
}

// LoadMapFile is LoadMap over the file at path.
func LoadMapFile(path string) (*Map, error) {
	m := NewMap()
	if _, err := persist.ReadFile(path, persist.KindMap, m.loadEntry); err != nil {
		return nil, err
	}
	return m, nil
}

// RecoverMapFile rebuilds a Map from the longest valid prefix of a
// possibly damaged snapshot (see RecoverTreeFile).
func RecoverMapFile(path string) (*Map, RecoveryReport, error) {
	m := NewMap()
	rep, err := persist.RecoverFile(path, persist.KindMap, m.loadEntry)
	if err != nil {
		return nil, rep, err
	}
	return m, rep, nil
}

func (m *Map) loadEntry(key []byte, val uint64) error {
	if len(key) > MaxMapKeyLen {
		return &SnapshotError{Kind: persist.ErrCorrupt,
			Detail: fmt.Sprintf("map key length %d exceeds MaxMapKeyLen %d", len(key), MaxMapKeyLen)}
	}
	if !m.Set(key, val) {
		return &SnapshotError{Kind: persist.ErrCorrupt,
			Detail: fmt.Sprintf("duplicate map key %q", key)}
	}
	return nil
}

// ---- Uint64Set ----

// Save writes a snapshot of the set — every value as its 8-byte big-endian
// key with the value embedded as the TID — to w.
func (s *Uint64Set) Save(w io.Writer) error {
	return writeSnapshot(w, persist.KindUint64Set, s.SnapshotCodec(), false, walkSource(s.t.Walk))
}

// SaveFile atomically writes a snapshot of the set to path (see
// Tree.SaveFile for the durability protocol).
func (s *Uint64Set) SaveFile(path string) error {
	return writeSnapshotFile(path, persist.KindUint64Set, s.SnapshotCodec(), false, walkSource(s.t.Walk))
}

// LoadUint64Set rebuilds a Uint64Set from a snapshot, returning a typed
// *SnapshotError on any corruption.
func LoadUint64Set(r io.Reader) (*Uint64Set, error) {
	s := NewUint64Set()
	if _, err := persist.Read(r, persist.KindUint64Set, s.loadEntry); err != nil {
		return nil, err
	}
	return s, nil
}

// LoadUint64SetFile is LoadUint64Set over the file at path.
func LoadUint64SetFile(path string) (*Uint64Set, error) {
	s := NewUint64Set()
	if _, err := persist.ReadFile(path, persist.KindUint64Set, s.loadEntry); err != nil {
		return nil, err
	}
	return s, nil
}

// loadEntry holds the entry to the embedded-key convention (checkSetEntry)
// before inserting it.
func (s *Uint64Set) loadEntry(key []byte, tid TID) error {
	if err := checkSetEntry(key, tid); err != nil {
		return err
	}
	if !s.Insert(tid) {
		return &SnapshotError{Kind: persist.ErrCorrupt,
			Detail: fmt.Sprintf("duplicate set value %d", tid)}
	}
	return nil
}
