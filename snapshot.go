package hot

import (
	"errors"
	"fmt"
	"io"
	"sync/atomic"

	"github.com/hotindex/hot/internal/core"
	"github.com/hotindex/hot/internal/persist"
)

// Snapshot persistence: every index type saves a versioned, checksummed
// binary snapshot (internal/persist format: magic + header, per-block
// CRC32, trailer with the authoritative entry count) through Save, or
// crash-safely through SaveFile — temp file, fsync, atomic rename,
// directory fsync — the one place this package applies that protocol to a
// snapshot. Load fills an empty Tree, ConcurrentTree or Map back from one,
// and LoadShardedTree rebuilds a ShardedTree with the boundaries its file
// records. Both validate everything (checksums, key order, entry counts)
// and return typed *SnapshotError values with exact byte offsets, or, asked
// to salvage, keep the longest valid prefix of a damaged file. A section's
// kind byte names the index type that wrote it, and every loader refuses
// another type's section.

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
	// Map snapshot loaded into a Tree).
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
// embeds it. Atomic so a configuration call cannot race a concurrent
// snapshot.
type codecOpt struct{ codec atomic.Uint32 }

// SetSnapshotCodec selects the block codec used by this index's subsequent
// Save/SaveFile/checkpoint writes. The default is SnapshotCodecRaw; the
// choice affects only files written from now on — every reader accepts
// both codecs regardless of this setting.
func (c *codecOpt) SetSnapshotCodec(codec SnapshotCodec) { c.codec.Store(uint32(codec)) }

// SnapshotCodec returns the codec subsequent snapshot writes will use.
func (c *codecOpt) SnapshotCodec() SnapshotCodec { return SnapshotCodec(c.codec.Load()) }

// RecoveryReport describes what a load delivered: how many entries came
// from the valid prefix, whether the snapshot was in fact complete, and the
// first damage found (nil when complete).
type RecoveryReport = persist.RecoveryReport

// snapshotter is the sealed set of index types Save and SaveFile accept:
// *Tree, *ConcurrentTree, *ShardedTree and *Map.
type snapshotter interface {
	save(w io.Writer) error
}

// Save writes a snapshot of x — a *Tree, *ConcurrentTree, *ShardedTree or
// *Map — to w under x's SnapshotCodec: every entry in ascending key order,
// a Tree's keys resolved through its loader, a Map's in their original
// (unescaped) bytes. A ShardedTree's snapshot is its manifest (the shard
// boundary table) followed by one section per shard.
//
// A ConcurrentTree or ShardedTree is saved without blocking concurrent
// writers: each walk reads as a wait-free reader does, so inserts and
// deletes proceed copy-on-write (a node they replace stays intact while the
// walk holds it) and upserts of present keys in place. Entries
// committed while the snapshot streams may or may not be included, exactly
// like the paper's wait-free scans: each included entry is a value its key
// held during the walk, and the sequence is always ascending and
// structurally consistent. A ShardedTree's shards are walked one after
// another.
func Save(w io.Writer, x snapshotter) error { return x.save(w) }

// SaveFile atomically writes Save's snapshot of x to path: the stream goes
// to path+".tmp", is fsynced, renamed over path, and the directory is
// fsynced, so a crash mid-save leaves the previous snapshot intact. On any
// error path is left untouched.
func SaveFile(path string, x snapshotter) error { return persist.AtomicFile(path, x.save) }

func (t *Tree) save(w io.Writer) error {
	return writeSnapshot(w, persist.KindTree, t.SnapshotCodec(), false, walkSource(t.t.Walk))
}

func (t *ConcurrentTree) save(w io.Writer) error {
	return writeSnapshot(w, persist.KindTree, t.SnapshotCodec(), false, walkSource(t.t.SnapshotWalk))
}

func (m *Map) save(w io.Writer) error {
	return writeSnapshot(w, persist.KindMap, m.SnapshotCodec(), false, walkSource(m.walk))
}

// loadTarget is the sealed set of index types Load fills: *Tree,
// *ConcurrentTree and *Map. sink returns the section kind the type reads
// and the function every loaded entry goes through.
type loadTarget interface {
	Len() int
	sink() (kind uint16, fn persist.EntryFunc)
}

// Load fills x — an empty *Tree, *ConcurrentTree or *Map — from the
// snapshot in r, validating checksums, key order, prefix-freeness and the
// entry count as it streams. A Tree's loader must resolve every TID stored
// in the snapshot, exactly as it did when the snapshot was saved.
//
// In strict mode (salvage false) any damage is returned as a typed
// *SnapshotError carrying the byte offset of the damaged unit. With salvage
// true, Load keeps the longest valid prefix of a damaged snapshot instead:
// the report says how many entries were salvaged and what damage stopped
// the read, and the error is non-nil only when nothing could be loaded at
// all (an unreadable header, or a snapshot of another index kind, which
// leaves x empty). After a strict-mode error x holds the entries before
// the damage and should be discarded.
func Load(r io.Reader, x loadTarget, salvage bool) (RecoveryReport, error) {
	if x.Len() != 0 {
		return RecoveryReport{}, errors.New("hot: Load into a non-empty index")
	}
	kind, fn := x.sink()
	if salvage {
		return persist.Recover(r, kind, fn)
	}
	n, err := persist.Read(r, kind, fn)
	rep := RecoveryReport{Entries: n, Complete: err == nil}
	errors.As(err, &rep.Damage)
	return rep, err
}

// sink loads tree entries into a Tree or a ConcurrentTree.
func (b *base) sink() (uint16, persist.EntryFunc) { return persist.KindTree, loadInto(b.ic.Insert) }

// sink loads map entries, keys in their original bytes.
func (m *Map) sink() (uint16, persist.EntryFunc) { return persist.KindMap, m.loadEntry }

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

// writeSnapshot is the write side of every snapshot and cut: one
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

// walk hands out every pair with its original (unescaped) key bytes.
func (m *Map) walk(emit func(key []byte, val uint64) bool) int {
	return m.Range(nil, -1, emit)
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
