package hot

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/hotindex/hot/internal/chaos"
	"github.com/hotindex/hot/internal/dataset"
	"github.com/hotindex/hot/internal/persist"
	"github.com/hotindex/hot/internal/shard"
	"github.com/hotindex/hot/internal/tidstore"
	"github.com/hotindex/hot/internal/wire"
)

// Tests of the two ways into a shard (DESIGN.md "Entering a shard"): one
// parity table per way — every entrance that ends in run/replay must leave
// the same tree for the same operations, every entrance that ends in
// load/vet must admit and refuse the same sections — plus the two
// divergences the single entrances close: a contract violation that
// panicked with a lock held, and a cold section that was never vetted.
// Both tables take their fixture as an argument, so a generator can later
// replace the fixtures without touching the harness.

// pathEntry is one (key, TID) pair of a tree's contents, in scan order.
type pathEntry struct {
	key []byte
	tid TID
}

func sameEntries(a, b []pathEntry) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d entries, want %d", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i].key, b[i].key) || a[i].tid != b[i].tid {
			return fmt.Errorf("entry %d = (%q, %d), want (%q, %d)", i, a[i].key, a[i].tid, b[i].key, b[i].tid)
		}
	}
	return nil
}

// treeEntries is tr's full ordered scan.
func treeEntries(tr *ShardedTree) []pathEntry {
	var out []pathEntry
	for c := tr.Iter(nil); c.Valid(); c.Next() {
		out = append(out, pathEntry{append([]byte(nil), c.Key()...), c.TID()})
	}
	return out
}

func followerEntries(t *testing.T, f *Follower) []pathEntry {
	t.Helper()
	var out []pathEntry
	if _, err := f.Scan(nil, 1<<30, func(key []byte, tid TID) bool {
		out = append(out, pathEntry{append([]byte(nil), key...), tid})
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// checkTree holds a tree to the model: contents, scan order, Len,
// invariants.
func checkTree(t *testing.T, tr *ShardedTree, want []pathEntry) {
	t.Helper()
	if err := sameEntries(treeEntries(tr), want); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != len(want) {
		t.Fatalf("Len %d, want %d", tr.Len(), len(want))
	}
	if err := tr.Verify(); err != nil {
		t.Fatal(err)
	}
}

// copyDir copies the regular files of dir into a fresh temporary directory
// — a durable store as a crash at this instant would leave it.
func copyDir(t *testing.T, dir string) string {
	t.Helper()
	cp := t.TempDir()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err == nil {
			err = os.WriteFile(filepath.Join(cp, e.Name()), b, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return cp
}

// ---- write path ----

// writeFixture is the input of the write-path table: a key table, a loader
// under which every key owns several TIDs (so an upsert can change a key's
// TID and still resolve), and the operation sequence.
type writeFixture struct {
	store *tidstore.Store
	keys  [][]byte
	ops   []shard.Op
}

// seededWriteFixture draws nops operations over nkeys url keys: inserts of
// fresh and present keys, upserts of present and fresh keys, deletes of
// present and absent keys.
func seededWriteFixture(nkeys, nops int, seed int64) writeFixture {
	const tidsPerKey = 4
	fx := writeFixture{store: &tidstore.Store{}, keys: dataset.Generate(dataset.URL, nkeys, seed)}
	for v := 0; v < tidsPerKey; v++ {
		for _, k := range fx.keys {
			fx.store.Add(k) // TID v*nkeys+i resolves to keys[i]
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for len(fx.ops) < nops {
		i := rng.Intn(nkeys)
		op := shard.Op{Key: fx.keys[i], TID: TID(rng.Intn(tidsPerKey)*nkeys + i)}
		switch r := rng.Intn(10); {
		case r < 5:
			op.Kind = shard.OpInsert
		case r < 8:
			op.Kind = shard.OpUpsert
		default:
			op.Kind, op.TID = shard.OpDelete, 0
		}
		fx.ops = append(fx.ops, op)
	}
	return fx
}

// opResult is what an op's synchronous method returns.
type opResult struct {
	old TID
	ok  bool
}

// modelRun applies ops to a map and returns, per op, the result its
// synchronous method must return and whether its async form counts as
// rejected, plus the final contents in key order.
func modelRun(ops []shard.Op) (results []opResult, rejected []bool, final []pathEntry) {
	m := map[string]TID{}
	for _, op := range ops {
		cur, present := m[string(op.Key)]
		var r opResult
		switch op.Kind {
		case shard.OpInsert:
			if r.ok = !present; r.ok {
				m[string(op.Key)] = op.TID
			}
		case shard.OpUpsert:
			r = opResult{cur, present}
			m[string(op.Key)] = op.TID
		case shard.OpDelete:
			r.ok = present
			delete(m, string(op.Key))
		}
		results = append(results, r)
		rejected = append(rejected, !r.ok && op.Kind != shard.OpUpsert)
	}
	for k, tid := range m {
		final = append(final, pathEntry{[]byte(k), tid})
	}
	sort.Slice(final, func(i, j int) bool { return bytes.Compare(final[i].key, final[j].key) < 0 })
	return results, rejected, final
}

func countTrue(bs []bool) (n uint64) {
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

// driveSync runs ops through the synchronous methods, holding every return
// value to the model's.
func driveSync(t *testing.T, tr *ShardedTree, ops []shard.Op, want []opResult) {
	t.Helper()
	for i, op := range ops {
		var got opResult
		switch op.Kind {
		case shard.OpInsert:
			got.ok = tr.Insert(op.Key, op.TID)
		case shard.OpUpsert:
			got.old, got.ok = tr.Upsert(op.Key, op.TID)
		case shard.OpDelete:
			got.ok = tr.Delete(op.Key)
		}
		if got != want[i] {
			t.Fatalf("op %d (kind %d, key %q) returned %+v, model says %+v", i, op.Kind, op.Key, got, want[i])
		}
	}
}

// driveAsync submits ops from this one goroutine (so per-key FIFO holds)
// and holds Flush's totals to the model's counts.
func driveAsync(t *testing.T, tr *ShardedTree, ops []shard.Op, rejected []bool) {
	t.Helper()
	a0, r0 := tr.Flush()
	for _, op := range ops {
		switch op.Kind {
		case shard.OpInsert:
			tr.InsertAsync(op.Key, op.TID)
		case shard.OpUpsert:
			tr.UpsertAsync(op.Key, op.TID)
		case shard.OpDelete:
			tr.DeleteAsync(op.Key)
		}
	}
	a, r := tr.Flush()
	if a-a0 != uint64(len(ops)) || r-r0 != countTrue(rejected) {
		t.Fatalf("Flush = (+%d, +%d), model says (+%d, +%d)", a-a0, r-r0, len(ops), countTrue(rejected))
	}
}

// runWritePathTable drives fx through every entrance that ends in run or
// replay and holds each resulting tree to the sorted-map model.
func runWritePathTable(t *testing.T, fx writeFixture) {
	results, rejected, want := modelRun(fx.ops)
	const shards = 4
	open := func(t *testing.T, dir string) *ShardedTree {
		t.Helper()
		tr, _, err := OpenDurableShardedTree(dir, fx.store.Key, shards, fx.keys, DurableOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	// replayed closes tr and reopens its directory: the whole history comes
	// back through the log, record by record.
	replayed := func(t *testing.T, tr *ShardedTree, dir string) {
		t.Helper()
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		tr = open(t, dir)
		defer tr.Close()
		checkTree(t, tr, want)
	}

	t.Run("sync", func(t *testing.T) {
		tr := NewShardedTree(fx.store.Key, shards, fx.keys)
		driveSync(t, tr, fx.ops, results)
		checkTree(t, tr, want)
	})
	t.Run("async", func(t *testing.T) {
		tr := NewShardedTree(fx.store.Key, shards, fx.keys)
		driveAsync(t, tr, fx.ops, rejected)
		checkTree(t, tr, want)
	})
	t.Run("durable-sync", func(t *testing.T) {
		dir := t.TempDir()
		tr := open(t, dir)
		// The acknowledgement point, pinned: a synchronous durable write
		// returns after its own fsync, one per write from one goroutine.
		reg := chaos.New(1)
		reg.Arm()
		driveSync(t, tr, fx.ops, results)
		chaos.Disarm()
		if got := reg.Hits(chaos.WalSync); got != uint64(len(fx.ops)) {
			t.Fatalf("%d synchronous durable writes took %d fsyncs, want one each", len(fx.ops), got)
		}
		checkTree(t, tr, want)
		replayed(t, tr, dir)
	})
	t.Run("durable-async", func(t *testing.T) {
		dir := t.TempDir()
		tr := open(t, dir)
		reg := chaos.New(1)
		reg.Arm()
		driveAsync(t, tr, fx.ops, rejected)
		chaos.Disarm()
		// The acknowledgement point, pinned: async durable writes owe their
		// fsync to the barrier, which pays at most one per shard.
		if got := reg.Hits(chaos.WalSync); got == 0 || got > shards {
			t.Fatalf("%d async durable writes and one Flush took %d fsyncs, want 1..%d", len(fx.ops), got, shards)
		}
		checkTree(t, tr, want)
		replayed(t, tr, dir)
	})
	// byShard groups the fixture's keys by owning shard: index i of a group
	// is the key's index in fx.keys, which is also a TID that resolves to it.
	byShard := func(tr *ShardedTree) [][]int {
		out := make([][]int, tr.Shards())
		for i, k := range fx.keys {
			out[tr.Shard(k)] = append(out[tr.Shard(k)], i)
		}
		return out
	}
	t.Run("durable-async-one", func(t *testing.T) {
		tr := open(t, t.TempDir())
		defer tr.Close()
		reg := chaos.New(1)
		reg.Arm()
		tr.UpsertAsync(fx.keys[0], 0)
		tr.Flush()
		tr.Flush() // nothing owed: no fsync
		chaos.Disarm()
		if got := reg.Hits(chaos.WalSync); got != 1 {
			t.Fatalf("one async durable write and its Flush took %d fsyncs, want exactly 1", got)
		}
	})
	t.Run("durable-sync-behind-async", func(t *testing.T) {
		// A synchronous write is a barrier for its shard: its one fsync
		// covers every async record the shard still owed.
		dir := t.TempDir()
		tr := open(t, dir)
		defer tr.Close()
		var idx []int
		for _, g := range byShard(tr) {
			if len(g) > len(idx) {
				idx = g
			}
		}
		reg := chaos.New(1)
		reg.Arm()
		for n := 0; n < 100; n++ {
			i := idx[n%len(idx)]
			tr.UpsertAsync(fx.keys[i], TID(n%4*len(fx.keys)+i))
		}
		tr.Upsert(fx.keys[idx[0]], TID(idx[0]))
		chaos.Disarm()
		if got := reg.Hits(chaos.WalSync); got != 1 {
			t.Fatalf("a synchronous write behind 100 owed async writes took %d fsyncs, want exactly 1", got)
		}
		// What a crash right now would leave: the directory as it stands,
		// nothing closed, nothing flushed.
		re, info, err := OpenDurableShardedTree(copyDir(t, dir), fx.store.Key, shards, nil, DurableOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		if info.WALRecords != 101 {
			t.Fatalf("recovered %d log records, want all 101", info.WALRecords)
		}
		checkTree(t, re, treeEntries(tr))
	})
	t.Run("durable-concurrent-flush", func(t *testing.T) {
		// Two barriers racing over the same debt share each shard's fsync
		// (the log's group commit): nobody syncs a shard twice.
		tr := open(t, t.TempDir())
		defer tr.Close()
		groups := byShard(tr)
		reg := chaos.New(1)
		reg.Arm()
		const rounds = 20
		for r := 0; r < rounds; r++ {
			for _, g := range groups {
				tr.UpsertAsync(fx.keys[g[0]], TID(r%4*len(fx.keys)+g[0]))
			}
			done := make(chan struct{})
			go func() {
				tr.Flush()
				close(done)
			}()
			tr.Flush()
			<-done
		}
		chaos.Disarm()
		if got, want := reg.Hits(chaos.WalSync), uint64(rounds*len(groups)); got != want {
			t.Fatalf("%d rounds of two concurrent Flushes over %d dirty shards took %d fsyncs, want %d", rounds, len(groups), got, want)
		}
	})
	// tiered drives fx.ops through drive in steps of tierStep ops with every
	// shard demoted before each step: every write lands in a delta over a
	// section — an insert of a section key rejected, an upsert replacing the
	// section's TID, a delete of a section key leaving a tombstone — and the
	// next step's Demote folds the delta. The tree must have folded, and
	// never promoted.
	const tierStep = 40
	tiered := func(t *testing.T, tr *ShardedTree, drive func(lo, hi int)) {
		t.Helper()
		for lo := 0; lo < len(fx.ops); lo += tierStep {
			for s := 0; s < tr.Shards(); s++ {
				if err := tr.Demote(s); err != nil {
					t.Fatal(err)
				}
			}
			drive(lo, min(lo+tierStep, len(fx.ops)))
		}
		if cs := tr.ColdStats(); cs.Folds == 0 || cs.Promotions != 0 {
			t.Fatalf("tiered run never folded, or promoted: %+v", cs)
		}
	}
	newTiered := func(t *testing.T) *ShardedTree {
		t.Helper()
		tr := NewShardedTree(fx.store.Key, shards, fx.keys)
		if err := tr.EnableColdTier(ColdTierConfig{Dir: t.TempDir()}); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	t.Run("tiered-sync", func(t *testing.T) {
		tr := newTiered(t)
		tiered(t, tr, func(lo, hi int) { driveSync(t, tr, fx.ops[lo:hi], results[lo:hi]) })
		checkTree(t, tr, want)
	})
	t.Run("tiered-async", func(t *testing.T) {
		tr := newTiered(t)
		tiered(t, tr, func(lo, hi int) { driveAsync(t, tr, fx.ops[lo:hi], rejected[lo:hi]) })
		checkTree(t, tr, want)
	})
	t.Run("tiered-durable", func(t *testing.T) {
		// A reopen with the tier armed replays the cold shards' tails into
		// their deltas; one without it folds everything into tries.
		dir := t.TempDir()
		opts := DurableOptions{ColdTier: &ColdTierConfig{}}
		tr, _, err := OpenDurableShardedTree(dir, fx.store.Key, shards, fx.keys, opts)
		if err != nil {
			t.Fatal(err)
		}
		tiered(t, tr, func(lo, hi int) { driveSync(t, tr, fx.ops[lo:hi], results[lo:hi]) })
		checkTree(t, tr, want)
		for _, opts := range []DurableOptions{opts, {}} {
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
			if tr, _, err = OpenDurableShardedTree(dir, fx.store.Key, shards, nil, opts); err != nil {
				t.Fatal(err)
			}
			checkTree(t, tr, want)
		}
		tr.Close()
	})
	t.Run("follower", func(t *testing.T) {
		// The first half reaches the follower as bootstrap sections, the
		// second as tail records — written half synchronously, half async.
		tr := open(t, t.TempDir())
		defer tr.Close()
		half := len(fx.ops) / 2
		driveSync(t, tr, fx.ops[:half], results)
		pr, pw := io.Pipe()
		fol := NewFollower(fx.store.Key, nil)
		fed := make(chan error, 1)
		go func() { fed <- fol.Feed(pr) }()
		sess, err := tr.NewReplicationSession(pw)
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		if err := sess.StreamSnapshot(); err != nil {
			t.Fatal(err)
		}
		mid := half + (len(fx.ops)-half)/2
		driveSync(t, tr, fx.ops[half:mid], results[half:])
		driveAsync(t, tr, fx.ops[mid:], rejected[mid:])
		stop := make(chan struct{})
		close(stop) // one pass over everything committed so far
		if err := sess.StreamTail(stop); err != nil {
			t.Fatal(err)
		}
		pw.Close()
		if err := <-fed; err != nil {
			t.Fatal(err)
		}
		if got := fol.TailRecords(); got != uint64(len(fx.ops)-half) {
			t.Fatalf("follower applied %d tail records, want %d", got, len(fx.ops)-half)
		}
		if err := sameEntries(followerEntries(t, fol), want); err != nil {
			t.Fatal(err)
		}
		if err := fol.Verify(); err != nil {
			t.Fatal(err)
		}
		checkTree(t, tr, want)
	})
}

func TestWritePathParity(t *testing.T) {
	fx := seededWriteFixture(300, 2400, 17)
	// The fixture must exercise both outcomes of every kind.
	results, _, _ := modelRun(fx.ops)
	seen := map[string]int{}
	for i, op := range fx.ops {
		seen[fmt.Sprintf("kind %d ok=%v", op.Kind, results[i].ok)]++
	}
	if len(seen) != 6 {
		t.Fatalf("fixture covers %v, want both outcomes of insert, upsert and delete", seen)
	}
	runWritePathTable(t, fx)
}

// ---- load path ----

// loadFixture is the input of the load-path table: a boundary table and
// one sorted entry list per shard, exactly as the sections will carry them
// — a clean fixture holds every key in its own shard, a doctored one does
// not.
type loadFixture struct {
	store  *tidstore.Store
	bounds [][]byte
	secs   [][]pathEntry
}

func seededLoadFixture(nkeys, shards int, seed int64) loadFixture {
	keys := dataset.Generate(dataset.URL, nkeys, seed)
	fx := loadFixture{store: &tidstore.Store{}, bounds: shard.Boundaries(shards, keys)}
	fx.secs = make([][]pathEntry, len(fx.bounds)+1)
	sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })
	for _, k := range keys {
		s := shard.Find(fx.bounds, k)
		fx.secs[s] = append(fx.secs[s], pathEntry{k, fx.store.Add(k)})
	}
	return fx
}

func (fx loadFixture) all() (out []pathEntry) {
	for _, sec := range fx.secs {
		out = append(out, sec...)
	}
	return out
}

func (fx loadFixture) manifest(w io.Writer) error {
	return newShardedFromBounds(treeFlavor(fx.store.Key), fx.bounds).writeManifest(w)
}

func (fx loadFixture) section(w io.Writer, s int, indexed bool) error {
	return writeSnapshot(w, persist.KindTree, SnapshotCodecRaw, indexed, func(fn persist.EntryFunc) error {
		for _, e := range fx.secs[s] {
			if err := fn(e.key, e.tid); err != nil {
				return err
			}
		}
		return nil
	})
}

// multiplexed is the file-snapshot shape: manifest, then every section.
func (fx loadFixture) multiplexed(w io.Writer) error {
	if err := fx.manifest(w); err != nil {
		return err
	}
	for s := range fx.secs {
		if err := fx.section(w, s, false); err != nil {
			return err
		}
	}
	return nil
}

// directory is the durable shape: the manifest plus one base per shard
// under name — snapFileName, or the legacy coldFileName — with or without
// the HIDX block index.
func (fx loadFixture) directory(t *testing.T, name func(int) string, indexed bool) string {
	t.Helper()
	dir := t.TempDir()
	err := persist.AtomicFile(filepath.Join(dir, durableSnapName), fx.manifest)
	for s := 0; s < len(fx.secs) && err == nil; s++ {
		err = persist.AtomicFile(filepath.Join(dir, name(s)), func(w io.Writer) error { return fx.section(w, s, indexed) })
	}
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// stream is the replication-bootstrap shape, hung up right after TAILSTART.
func (fx loadFixture) stream(t *testing.T) []byte {
	t.Helper()
	var b bytes.Buffer
	err := wire.WriteFrame(&b, wire.RepManifest, nil)
	if err == nil {
		err = fx.manifest(&b)
	}
	for s := 0; s < len(fx.secs) && err == nil; s++ {
		if err = wire.WriteFrame(&b, wire.RepSection, wire.AppendSection(nil, uint32(s), 0)); err == nil {
			err = fx.section(&b, s, false)
		}
	}
	if err == nil {
		err = wire.WriteFrame(&b, wire.RepTailStart, nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// loadOutcome is what one entrance made of a fixture: the contents it
// serves (nil when it refused outright), the error it returned, and the
// damage it reported while salvaging.
type loadOutcome struct {
	got    []pathEntry
	err    error
	damage *SnapshotError
}

// loadEntrance is one way a sorted section reaches a shard. A strict
// entrance returns a refused section as its error; the others salvage
// around it and report it as damage.
type loadEntrance struct {
	name   string
	strict bool
	run    func(t *testing.T) loadOutcome
}

func loadEntrances(fx loadFixture) []loadEntrance {
	file := func(t *testing.T) string {
		path := filepath.Join(t.TempDir(), "sharded.snap")
		if err := persist.AtomicFile(path, fx.multiplexed); err != nil {
			t.Fatal(err)
		}
		return path
	}
	durable := func(t *testing.T, dir string, opts DurableOptions) loadOutcome {
		tr, info, err := OpenDurableShardedTree(dir, fx.store.Key, len(fx.secs), nil, opts)
		if err != nil {
			return loadOutcome{err: err}
		}
		defer tr.Close()
		for s := range fx.secs {
			if err := tr.Promote(s); opts.ColdTier != nil && err != nil {
				return loadOutcome{err: err}
			}
		}
		if err := tr.Verify(); err != nil {
			t.Fatal(err)
		}
		return loadOutcome{got: treeEntries(tr), damage: info.SnapshotDamage}
	}
	out := []loadEntrance{
		{"LoadShardedTreeFile", true, func(t *testing.T) loadOutcome {
			tr, err := LoadShardedTreeFile(file(t), fx.store.Key)
			if err != nil {
				return loadOutcome{err: err}
			}
			return loadOutcome{got: treeEntries(tr)}
		}},
		{"RecoverShardedTreeFile", false, func(t *testing.T) loadOutcome {
			tr, rep, err := RecoverShardedTreeFile(file(t), fx.store.Key)
			if err != nil {
				return loadOutcome{err: err}
			}
			if err := tr.Verify(); err != nil {
				t.Fatal(err)
			}
			return loadOutcome{got: treeEntries(tr), damage: rep.Damage}
		}},
		{"durable/legacy-snap", false, func(t *testing.T) loadOutcome {
			dir := t.TempDir()
			if err := persist.AtomicFile(filepath.Join(dir, durableSnapName), fx.multiplexed); err != nil {
				t.Fatal(err)
			}
			return durable(t, dir, DurableOptions{})
		}},
		{"follower-bootstrap", true, func(t *testing.T) loadOutcome {
			fol := NewFollower(fx.store.Key, nil)
			if err := fol.Feed(bytes.NewReader(fx.stream(t))); err != nil {
				return loadOutcome{err: err}
			}
			if err := fol.Verify(); err != nil {
				t.Fatal(err)
			}
			return loadOutcome{got: followerEntries(t, fol)}
		}},
	}
	// A per-shard base — an indexed snap-NNN.hot as every cut writes it, an
	// unindexed one as older cuts wrote it, a legacy cold-NNN.hot — enters
	// as the open option says: folded into memory and salvaged without a
	// tier, served and strict under one (then promoted here, so it is
	// walked whole).
	for _, base := range []struct {
		name    string
		file    func(int) string
		indexed bool
	}{
		{"snap-NNN", snapFileName, true},
		{"snap-NNN-unindexed", snapFileName, false},
		{"cold-NNN", coldFileName, true},
	} {
		out = append(out,
			loadEntrance{"durable/" + base.name + "-folded", false, func(t *testing.T) loadOutcome {
				return durable(t, fx.directory(t, base.file, base.indexed), DurableOptions{})
			}},
			loadEntrance{"durable/" + base.name + "-opened-then-promoted", true, func(t *testing.T) loadOutcome {
				return durable(t, fx.directory(t, base.file, base.indexed), DurableOptions{ColdTier: &ColdTierConfig{}})
			}})
	}
	return out
}

// runLoadPathTable delivers clean through every entrance and requires
// identical contents, then delivers doctored — clean with a foreign key at
// the end of shard bad's section — and requires every entrance to refuse
// exactly that key as SnapErrCorrupt.
func runLoadPathTable(t *testing.T, clean, doctored loadFixture, bad int) {
	want := clean.all()
	for _, e := range loadEntrances(clean) {
		t.Run("clean/"+e.name, func(t *testing.T) {
			out := e.run(t)
			if out.err != nil || out.damage != nil {
				t.Fatalf("clean fixture: err=%v damage=%v", out.err, out.damage)
			}
			if err := sameEntries(out.got, want); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, e := range loadEntrances(doctored) {
		t.Run("doctored/"+e.name, func(t *testing.T) {
			out := e.run(t)
			damage := out.damage
			if e.strict {
				if out.err == nil {
					t.Fatalf("foreign key in shard %d's section admitted", bad)
				}
				if !errors.As(out.err, &damage) {
					t.Fatalf("refused with an untyped error: %v", out.err)
				}
			} else if out.err != nil {
				t.Fatalf("salvaging entrance failed outright: %v", out.err)
			}
			if damage == nil || damage.Kind != SnapErrCorrupt {
				t.Fatalf("damage = %v, want SnapErrCorrupt", damage)
			}
			// A salvaging entrance keeps what preceded the foreign key —
			// at least every shard before bad and bad's own entries — and
			// never the key itself (Verify, above, checked containment).
			if !e.strict {
				var prefix []pathEntry
				for s := 0; s <= bad; s++ {
					prefix = append(prefix, clean.secs[s]...)
				}
				if len(out.got) < len(prefix) {
					t.Fatalf("salvaged %d entries, want at least the %d before the damage", len(out.got), len(prefix))
				}
				if err := sameEntries(out.got[:len(prefix)], prefix); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

func TestLoadPathParity(t *testing.T) {
	clean := seededLoadFixture(1200, 4, 29)
	if len(clean.secs) != 4 {
		t.Fatalf("fixture has %d shards, want 4", len(clean.secs))
	}
	// CRC-valid (the writer computes it) and order-valid (every key of
	// shard 2 sorts after every key of shard 1), but not shard 1's.
	const bad = 1
	doctored := clean
	doctored.secs = append([][]pathEntry(nil), clean.secs...)
	doctored.secs[bad] = append(append([]pathEntry(nil), clean.secs[bad]...), clean.secs[bad+1][0])
	runLoadPathTable(t, clean, doctored, bad)
}

// ---- the two closed divergences ----

// recovered runs fn and returns the value it panicked with, nil if none.
func recovered(fn func()) (r any) {
	defer func() { r = recover() }()
	fn()
	return nil
}

// within fails the test when fn has not returned after two seconds: the
// shape of a leaked lock.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { fn(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatalf("%s still blocked after 2s: a lock was left held", what)
	}
}

// TestShardedContractViolationLeavesNoLock: an oversize key or TID is
// rejected before routing and locking, identically at every entrance, so
// the panic strands no shard writer lock and no write guard.
func TestShardedContractViolationLeavesNoLock(t *testing.T) {
	keys := dataset.Generate(dataset.Integer, 400, 3)
	store := &tidstore.Store{}
	for _, k := range keys {
		store.Add(k)
	}
	durable, _, err := OpenDurableShardedTree(t.TempDir(), store.Key, 2, keys, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer durable.Close()
	tiered := NewShardedTree(store.Key, 2, keys)
	if err := tiered.EnableColdTier(ColdTierConfig{Dir: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	k := keys[0]

	t.Run("durable commit lock", func(t *testing.T) {
		if recovered(func() { durable.Insert(k, MaxTID+1) }) == nil {
			t.Fatal("Insert with a TID above MaxTID did not panic")
		}
		within(t, "the next Insert to the same shard", func() { durable.Insert(k, 0) })
	})
	t.Run("cold tier write guard", func(t *testing.T) {
		if recovered(func() { tiered.Insert(k, MaxTID+1) }) == nil {
			t.Fatal("Insert with a TID above MaxTID did not panic")
		}
		within(t, "Demote of the shard", func() {
			if err := tiered.Demote(tiered.Shard(k)); err != nil {
				t.Error(err)
			}
		})
	})
	t.Run("one message", func(t *testing.T) {
		plain := NewShardedTree(store.Key, 2, keys)
		long := make([]byte, MaxKeyLen+1)
		for _, v := range []struct {
			what string
			key  []byte
			tid  TID
		}{{"key above MaxKeyLen", long, 1}, {"TID above MaxTID", k, MaxTID + 1}} {
			texts := map[string]any{
				"sync":         recovered(func() { plain.Upsert(v.key, v.tid) }),
				"durable sync": recovered(func() { durable.Upsert(v.key, v.tid) }),
				"async":        recovered(func() { plain.UpsertAsync(v.key, v.tid) }),
			}
			for name, text := range texts {
				if text == nil || text != texts["async"] {
					t.Errorf("%s: %s entrance panicked with %v, async with %v", v.what, name, text, texts["async"])
				}
			}
		}
	})
}

// TestColdTierSwappedSectionsRefused: two bases swapped in a closed
// durable directory fail every reopen that would serve them — with a
// recovery hook (the full walk) and without one (the two ends alone) — and
// every reopen that loads them salvages around them, reporting the foreign
// keys as corruption. Each open gets its own copy: a salvaging open heals
// the shards it salvaged.
func TestColdTierSwappedSectionsRefused(t *testing.T) {
	dir := t.TempDir()
	keys := dataset.Generate(dataset.URL, 3000, 5)
	store := &tidstore.Store{}
	for _, k := range keys {
		store.Add(k)
	}
	tr, _, err := OpenDurableShardedTree(dir, store.Key, 4, keys, DurableOptions{ColdTier: &ColdTierConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		tr.Insert(k, TID(i))
	}
	for _, s := range []int{1, 2} {
		if err := tr.Demote(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	one, two, tmp := filepath.Join(dir, snapFileName(1)), filepath.Join(dir, snapFileName(2)), filepath.Join(dir, "swap")
	for _, mv := range [][2]string{{one, tmp}, {two, one}, {tmp, two}} {
		if err := os.Rename(mv[0], mv[1]); err != nil {
			t.Fatal(err)
		}
	}
	hook := func([]byte, TID) error { return nil }
	for name, opts := range map[string]DurableOptions{
		"opened cold":               {ColdTier: &ColdTierConfig{}},
		"opened cold, RecoverEntry": {ColdTier: &ColdTierConfig{}, RecoverEntry: hook},
		"folded, no tier":           {},
		"folded, RecoverEntry":      {RecoverEntry: hook},
	} {
		tr, info, err := OpenDurableShardedTree(copyDir(t, dir), store.Key, 4, keys, opts)
		var se *SnapshotError
		if opts.ColdTier == nil {
			if err != nil {
				t.Fatalf("%s: reopen over swapped bases = %v, want them salvaged", name, err)
			}
			tr.Close()
			if se = info.SnapshotDamage; se == nil || se.Kind != SnapErrCorrupt || !strings.Contains(se.Error(), "shard section 1") {
				t.Fatalf("%s: salvage reported %v, want SnapErrCorrupt in shard 1's section", name, se)
			}
			continue
		}
		if err == nil {
			tr.Close()
			t.Fatalf("%s: reopen over swapped bases returned nil", name)
		}
		if !errors.As(err, &se) || se.Kind != SnapErrCorrupt || !strings.Contains(err.Error(), "shard 1 ") {
			t.Fatalf("%s: reopen = %v, want SnapErrCorrupt naming shard 1", name, err)
		}
	}
}

// TestColdTierPromoteRefusesForeignSection: promotion enters through load,
// so a section that went bad under an open cold shard is a typed error out
// of Promote — the shard stays cold, serving and writable.
func TestColdTierPromoteRefusesForeignSection(t *testing.T) {
	fx := seededLoadFixture(800, 4, 41)
	tr := newShardedFromBounds(treeFlavor(fx.store.Key), fx.bounds)
	for _, e := range fx.all() {
		tr.Insert(e.key, e.tid)
	}
	dir := t.TempDir()
	if err := tr.EnableColdTier(ColdTierConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Demote(1); err != nil {
		t.Fatal(err)
	}
	// Rewrite the open file in place (same inode, same block layout): its
	// last entry becomes a key of the same length that sorts after every
	// url, far outside shard 1.
	sec := fx.secs[1]
	last := sec[len(sec)-1]
	foreign := append([]byte(nil), last.key...)
	foreign[0] = 0xff
	fx.secs = append([][]pathEntry(nil), fx.secs...)
	fx.secs[1] = append(append([]pathEntry(nil), sec[:len(sec)-1]...), pathEntry{foreign, last.tid})
	var doctored bytes.Buffer
	if err := fx.section(&doctored, 1, true); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, snapFileName(1)), doctored.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	err := tr.Promote(1)
	var se *SnapshotError
	if !errors.As(err, &se) || se.Kind != SnapErrCorrupt {
		t.Fatalf("Promote = %v, want SnapErrCorrupt", err)
	}
	if !tr.IsCold(1) {
		t.Fatal("shard 1 left the cold tier on a refused promotion")
	}
	if tid, ok := tr.Lookup(sec[0].key); !ok || tid != sec[0].tid {
		t.Fatalf("cold shard stopped serving after a refused promotion: (%d, %v)", tid, ok)
	}
	if !tr.Delete(sec[0].key) || !tr.IsCold(1) {
		t.Fatal("a delete from the cold shard a promotion refused failed or promoted it")
	}
	if _, ok := tr.Lookup(sec[0].key); ok {
		t.Fatal("the deleted key is still found")
	}
}
