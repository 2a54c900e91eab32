package hot

import (
	"errors"
	"fmt"
	"io"
	"os"

	"github.com/hotindex/hot/internal/core"
	"github.com/hotindex/hot/internal/persist"
	"github.com/hotindex/hot/internal/shard"
)

// Sharded snapshot persistence: a ShardedTree multiplexes its whole state
// into ONE crash-safe file — a manifest section holding the boundary key
// table (kind KindShardManifest, entry i's TID is its boundary position)
// followed by one complete snapshot section per shard, each a full
// header/blocks/trailer stream of the internal/persist format. Sections
// carry their own checksums, so damage is localized to the section it
// hits: the Recover loaders rebuild every shard before the first damaged
// byte and report exactly what was lost. SnapshotFile uses the same
// tmp+fsync+rename protocol as every other SaveFile in this package, so a
// crash mid-save never clobbers the previous snapshot. The durable
// directory (durable_sharded.go) stores the same two section shapes as
// separate files; the replication bootstrap (replicate.go) frames them.

// writeManifest streams the manifest section: the boundary key table.
func (t *ShardedTree) writeManifest(w io.Writer) error {
	return writeSnapshot(w, persist.KindShardManifest, t.SnapshotCodec(), false, func(fn persist.EntryFunc) error {
		for i, b := range t.bounds {
			if err := fn(b, uint64(i)); err != nil {
				return err
			}
		}
		return nil
	})
}

// writeShard streams shard i's data section. A cold shard streams its
// section merged with its delta (shardState.walk): the file is immutable
// and the delta's walk observes nodes atomically, so the section is as
// consistent as a hot shard's walk.
func (t *ShardedTree) writeShard(w io.Writer, i int) error {
	return writeSnapshot(w, t.kind, t.SnapshotCodec(), false, t.shards[i].Load().walk)
}

// writeSections streams the manifest plus one data section per shard.
func (t *ShardedTree) writeSections(w io.Writer) error {
	if err := t.writeManifest(w); err != nil {
		return err
	}
	for i := range t.shards {
		if err := t.writeShard(w, i); err != nil {
			return err
		}
	}
	return nil
}

// Snapshot writes a snapshot of the live sharded tree to w without
// blocking concurrent writers: each shard section walks its shard under an
// epoch guard exactly like ConcurrentTree.Snapshot. The sections are taken
// one after another; entries committed while the snapshot streams may or
// may not be included, and each included entry is a value its key held
// during its section's walk (wait-free reader semantics).
func (t *ShardedTree) Snapshot(w io.Writer) error {
	return t.writeSections(w)
}

// SnapshotFile atomically writes a snapshot of the live sharded tree to
// path: manifest and all shard sections stream to path+".tmp", which is
// fsynced, renamed over path, and the directory is fsynced. On any error
// path is left untouched.
func (t *ShardedTree) SnapshotFile(path string) error {
	return persist.AtomicFile(path, t.Snapshot)
}

// load is the one way a sorted section enters shard i: it returns the sink
// that vets each entry and inserts it into tr — the shard's trie, or the
// one about to become it — through the trie's exclusive Writer, without
// the writer lock. load is exclusive by construction: the trie is not
// published yet (a file load, a durable open, a promotion), or its only
// writer is a follower's one feed goroutine. File snapshots, a durable
// open's bases, a follower's bootstrap and a promotion all load through
// here, so a key that is foreign to the shard, fails the tree's check or
// is not prefix-free is the same typed corruption error at each.
func (t *ShardedTree) load(i int, tr *core.ConcurrentTrie) persist.EntryFunc {
	insert := loadInto(tr.Writer().Insert)
	return func(key []byte, tid TID) error {
		if err := t.vet(i, key, tid); err != nil {
			return err
		}
		return insert(key, tid)
	}
}

// vet is the admission rule of shard i's sections, with or without an
// insert behind it: the tree's own check, then the shard's range — a key
// whose bytes belong to another shard is a manifest/section mismatch.
func (t *ShardedTree) vet(i int, key []byte, tid TID) error {
	if t.check != nil {
		if err := t.check(key, tid); err != nil {
			return err
		}
	}
	if !shard.Check(t.bounds, i, key) {
		return &SnapshotError{Kind: persist.ErrCorrupt,
			Detail: fmt.Sprintf("key %q belongs to shard %d but was stored in shard section %d",
				key, shard.Find(t.bounds, key), i)}
	}
	return nil
}

// countingReader tracks the absolute byte offset of a sequential read so
// per-section damage offsets can be reported as absolute file offsets.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// absolutize rebases a section-relative *FormatError offset to the
// absolute file offset of the section at base.
func absolutize(err error, base int64) {
	var fe *persist.FormatError
	if errors.As(err, &fe) {
		fe.Offset += base
	}
}

// readSharded parses one multiplexed sharded snapshot of flavor fl: the
// manifest, then one section per shard, each loaded into the shard whose
// section delivered it. In salvage mode a damaged or corrupt section stops
// the load and returns the tree built from everything before the damage
// (later shards stay empty), with the report describing the loss; in
// strict mode any damage is an error. A damaged manifest is always an
// error — without the boundary table there is no tree to build.
func readSharded(r io.Reader, fl flavor, salvage bool) (*ShardedTree, RecoveryReport, error) {
	cr := &countingReader{r: r}
	var rep RecoveryReport
	t, err := readManifest(cr, fl)
	if err != nil {
		errors.As(err, &rep.Damage)
		return nil, rep, err
	}
	for i := range t.shards {
		base := cr.n
		n, err := persist.Read(cr, t.kind, t.load(i, t.shards[i].Load().delta.Load()))
		rep.Entries += n
		if err != nil {
			absolutize(err, base)
			errors.As(err, &rep.Damage)
			if salvage {
				return t, rep, nil
			}
			return nil, rep, err
		}
	}
	rep.Complete = true
	return t, rep, nil
}

// readManifest parses a manifest section from r and returns the empty tree
// its boundary table defines. Every consumer of a manifest — the file
// loaders above, the durable open and the replication follower — starts
// here.
func readManifest(r io.Reader, fl flavor) (*ShardedTree, error) {
	var bounds [][]byte
	_, err := persist.Read(r, persist.KindShardManifest, func(key []byte, tid TID) error {
		if tid != uint64(len(bounds)) {
			return &SnapshotError{Kind: persist.ErrCorrupt,
				Detail: fmt.Sprintf("manifest boundary %d carries TID %d", len(bounds), tid)}
		}
		bounds = append(bounds, append([]byte(nil), key...))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return newShardedFromBounds(fl, bounds), nil
}

// LoadShardedTree rebuilds a ShardedTree from a sharded snapshot,
// restoring the original shard boundaries, validating checksums, key
// order, per-shard key routing and prefix-freeness as it streams, and
// returning a typed *SnapshotError (with the absolute byte offset of the
// damage) on any corruption. The loader must resolve every TID stored in
// the snapshot, exactly as it did when the snapshot was saved.
func LoadShardedTree(r io.Reader, loader Loader) (*ShardedTree, error) {
	t, _, err := readSharded(r, treeFlavor(loader), false)
	if err != nil {
		return nil, err
	}
	return t, nil
}

// LoadShardedTreeFile is LoadShardedTree over the file at path.
func LoadShardedTreeFile(path string, loader Loader) (*ShardedTree, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadShardedTree(f, loader)
}

// RecoverShardedTreeFile rebuilds a ShardedTree from the longest valid
// prefix of a possibly damaged sharded snapshot: every shard section
// before the first damage is restored completely, the damaged section
// contributes its valid block prefix, and later shards are left empty.
// The report says how much was salvaged and what damage stopped the read;
// the error is non-nil only when nothing could be loaded at all (an
// unreadable file or manifest).
func RecoverShardedTreeFile(path string, loader Loader) (*ShardedTree, RecoveryReport, error) {
	fl := treeFlavor(loader)
	f, err := os.Open(path)
	if err != nil {
		return nil, RecoveryReport{}, err
	}
	defer f.Close()
	return readSharded(f, fl, true)
}

// ---- ShardedUint64Set ----

// checkSetEntry validates the embedded-key convention for sharded set
// sections: the 8-byte big-endian key must decode to exactly the stored
// TID.
func checkSetEntry(key []byte, tid TID) error {
	if len(key) != 8 {
		return &SnapshotError{Kind: persist.ErrCorrupt,
			Detail: fmt.Sprintf("set key length %d, want 8", len(key))}
	}
	var v uint64
	for _, b := range key {
		v = v<<8 | uint64(b)
	}
	if v != tid {
		return &SnapshotError{Kind: persist.ErrCorrupt,
			Detail: fmt.Sprintf("set key decodes to %d, TID is %d", v, tid)}
	}
	return nil
}

// SetSnapshotCodec selects the block codec for the set's subsequent
// snapshot and checkpoint writes (see codecOpt.SetSnapshotCodec).
func (s *ShardedUint64Set) SetSnapshotCodec(c SnapshotCodec) { s.t.SetSnapshotCodec(c) }

// SnapshotCodec returns the codec subsequent snapshot writes will use.
func (s *ShardedUint64Set) SnapshotCodec() SnapshotCodec { return s.t.SnapshotCodec() }

// Snapshot writes a snapshot of the live sharded set to w without
// blocking concurrent writers (see ShardedTree.Snapshot).
func (s *ShardedUint64Set) Snapshot(w io.Writer) error { return s.t.Snapshot(w) }

// SnapshotFile atomically writes a snapshot of the live sharded set to
// path (see ShardedTree.SnapshotFile).
func (s *ShardedUint64Set) SnapshotFile(path string) error { return s.t.SnapshotFile(path) }

// LoadShardedUint64Set rebuilds a ShardedUint64Set from a sharded
// snapshot, returning a typed *SnapshotError on any corruption.
func LoadShardedUint64Set(r io.Reader) (*ShardedUint64Set, error) {
	t, _, err := readSharded(r, setFlavor, false)
	if err != nil {
		return nil, err
	}
	return &ShardedUint64Set{t: t}, nil
}

// LoadShardedUint64SetFile is LoadShardedUint64Set over the file at path.
func LoadShardedUint64SetFile(path string) (*ShardedUint64Set, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadShardedUint64Set(f)
}

// RecoverShardedUint64SetFile rebuilds a ShardedUint64Set from the longest
// valid prefix of a possibly damaged sharded snapshot (see
// RecoverShardedTreeFile).
func RecoverShardedUint64SetFile(path string) (*ShardedUint64Set, RecoveryReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, RecoveryReport{}, err
	}
	defer f.Close()
	t, rep, err := readSharded(f, setFlavor, true)
	if err != nil {
		return nil, rep, err
	}
	return &ShardedUint64Set{t: t}, rep, nil
}
