package hot

import (
	"errors"
	"fmt"
	"io"

	"github.com/hotindex/hot/internal/core"
	"github.com/hotindex/hot/internal/persist"
	"github.com/hotindex/hot/internal/shard"
)

// Sharded snapshot persistence: Save multiplexes a ShardedTree's whole
// state into ONE stream — a manifest section holding the boundary key
// table (kind KindShardManifest, entry i's TID is its boundary position)
// followed by one complete snapshot section per shard, each a full
// header/blocks/trailer stream of the internal/persist format. Sections
// carry their own checksums, so damage is localized to the section it
// hits: a salvaging LoadShardedTree rebuilds every shard before the first
// damaged byte and reports exactly what was lost. The durable directory
// (durable_sharded.go) stores the same two section shapes as separate
// files; the replication bootstrap (replicate.go) frames them.

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
	return writeSnapshot(w, persist.KindTree, t.SnapshotCodec(), false, t.shards[i].Load().walk)
}

// save streams the manifest plus one data section per shard (see Save).
func (t *ShardedTree) save(w io.Writer) error {
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

// SnapshotFile is SaveFile(path, t). It goes once the benchmark ladder
// seeds its durable directory through Checkpoint instead of through a
// single-file snapshot.
func (t *ShardedTree) SnapshotFile(path string) error { return SaveFile(path, t) }

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

// readSharded parses one multiplexed sharded snapshot, every entry held to
// check (nil: none) as it loads: the manifest, then one section per shard,
// each loaded into the shard whose section delivered it. In salvage mode a
// damaged or corrupt section stops the load and returns the tree built from
// everything before the damage (later shards stay empty), with the report
// describing the loss; in strict mode any damage is an error, and so in
// either mode is a section of another index kind. A damaged manifest is
// always an error — without the boundary table there is no tree to build.
func readSharded(r io.Reader, loader Loader, check persist.EntryFunc, salvage bool) (*ShardedTree, RecoveryReport, error) {
	cr := &countingReader{r: r}
	var rep RecoveryReport
	t, err := readManifest(cr, loader, check)
	if err != nil {
		errors.As(err, &rep.Damage)
		return nil, rep, err
	}
	for i := range t.shards {
		base := cr.n
		n, err := persist.Read(cr, persist.KindTree, t.load(i, t.shards[i].Load().delta.Load()))
		rep.Entries += n
		if err != nil {
			absolutize(err, base)
			errors.As(err, &rep.Damage)
			if salvage && !foreign(err) {
				return t, rep, nil
			}
			return nil, rep, err
		}
	}
	rep.Complete = true
	return t, rep, nil
}

// foreign reports a section of another index kind: a file that is not a
// ShardedTree's, which no salvage may cut down to an empty prefix.
func foreign(err error) bool {
	var se *SnapshotError
	return errors.As(err, &se) && se.Kind == SnapErrWrongKind
}

// readManifest parses a manifest section from r and returns the empty tree
// its boundary table defines, resolving through loader and vetting every
// entry that enters it with check. Every consumer of a manifest — the file
// loader above, the durable open and the replication follower — starts
// here.
func readManifest(r io.Reader, loader Loader, check persist.EntryFunc) (*ShardedTree, error) {
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
	t := newShardedFromBounds(loader, bounds)
	t.check = check
	return t, nil
}

// LoadShardedTree rebuilds a ShardedTree from a sharded snapshot,
// restoring the original shard boundaries and validating checksums, key
// order, per-shard key routing and prefix-freeness as it streams. The
// loader must resolve every TID stored in the snapshot, exactly as it did
// when the snapshot was saved.
//
// In strict mode (salvage false) any damage is a typed *SnapshotError
// carrying the absolute byte offset of the damage. With salvage true,
// every shard section before the first damage is restored completely, the
// damaged section contributes its valid block prefix, and later shards are
// left empty; the report says how much was salvaged and what damage
// stopped the read. In either mode the error is non-nil, and the tree nil,
// when nothing could be loaded at all (an unreadable manifest) or a section
// is of another index kind — a file that is not a ShardedTree's, which
// salvage must not cut down.
func LoadShardedTree(r io.Reader, loader Loader, salvage bool) (*ShardedTree, RecoveryReport, error) {
	return readSharded(r, mustLoader(loader), nil, salvage)
}
