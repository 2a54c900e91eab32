package hot

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"github.com/hotindex/hot/internal/core"
	"github.com/hotindex/hot/internal/pager"
	"github.com/hotindex/hot/internal/persist"
	"github.com/hotindex/hot/internal/shard"
)

// Larger-than-RAM operation for the sharded index types. Every shard is one
// immutable state behind one atomic pointer (shardSlot): a SECTION — the
// shard's entries cut to its indexed base file, snap-NNN.hot — under a DELTA,
// a resident trie that takes the shard's writes. A HOT shard has no section:
// its delta is the whole shard, a plain trie. A COLD shard is served from
// its section through a fixed-budget LRU page cache (internal/pager) —
// reads binary-search the section's sparse block index, fault exactly the
// blocks they touch and are answered from the block as stored — and from
// its delta, allocated at the shard's first write (a cold shard nobody
// writes costs nothing), which every read consults first.
//
// A cold shard's delta takes every write. An insert or upsert stores its
// TID. A delete of a key the section holds stores a TOMBSTONE: the marked
// TID tombBit | block<<tombShift | index, the key's position in the shard's
// own section, which the delta's loader (shardState.key) resolves from the
// section's page — never through the caller's Loader. Reads treat a
// tombstone as a miss, and every merged stream drops it together with its
// section twin. The section is immutable and a state owns exactly one, so a
// position never goes stale.
//
// Transitions. Each builds a fresh state and installs it with one store:
//
//	hot  --Demote-->                   cold  cut the delta to a section
//	cold --Demote/Checkpoint/budget--> cold  cut section and delta, merged, to a fresh section
//	cold --Promote-->                  hot   rebuild a delta from section and delta, merged
//
// A Checkpoint of a hot shard writes the same file without a transition:
// the shard stays hot, and a reopen under a tier serves it from that base.
//
// A cut or a rebuild drops every tombstone with its twin, so a state
// without a section never holds one. Readers stay wait-free: no read path
// takes a lock, and one that loaded the old state finishes on it (its
// section file is released by the runtime once the last cursor drops it —
// never closed eagerly). A MemoryBudget counts hot tries and cold deltas
// alike: the budget pass demotes the least-recently-written hot shards
// down to one, then folds the largest deltas, so the resident set tracks
// the write skew while the full key space stays serviceable.
//
// Write guard. Every write path — synchronous, durable and the async
// submission queues — holds the shard's wmu in shared mode across its ring
// deposits, writer-token acquisitions and applies, and applies to the state
// it loaded under it (lockShardWrite). Transitions take wmu exclusively, so
// a transition observes a quiescent shard whose submission ring it can
// drain inline into the state it replaces (the writer token is necessarily
// free under the exclusive lock) and never races an apply.
//
// Demotion, fold and Checkpoint are one cut (ShardedTree.cut in
// durable_sharded.go), which always writes the indexed snap-NNN.hot: under
// d.ckpt (serializing against Checkpoint, Close and replication sessions),
// and the exclusive write guard when the file is to be served, the shard's
// drained stream is written out, its log is rotated to its last LSN, and
// the file becomes the section of a shard that had one or is being demoted. The cut is exact — every logged
// operation of the shard is in the base, nothing after the base is logged —
// so a shard's durable state is always its base plus the log tail past it,
// which is exactly what a cold shard's delta holds: Checkpoint folds a cold
// shard whose log moved and skips one whose log did not, and an open with a
// tier serves every base as a section and replays the tail into the delta.
//
// Promotion deliberately takes neither d.ckpt nor any log lock: it only
// rebuilds in memory exactly what section and delta hold. The promoted
// shard's subsequent writes land in its log; the file stays its base until
// the shard's next cut replaces it, and a tiered reopen before then serves
// the shard from it again.
//
// Cold read I/O failures panic, matching the durable log convention: a
// store whose backing file rots under it cannot honor its contract.

// ColdTierConfig configures EnableColdTier.
type ColdTierConfig struct {
	// Dir is where a non-durable tree keeps its per-shard section files
	// (snap-NNN.hot); it is required there. A durable tree ignores it: its
	// sections are its bases, in the durable directory, where recovery
	// looks for them.
	Dir string
	// MemoryBudget is the resident byte budget: the estimated footprint
	// of the hot shards' tries plus the cold shards' deltas. Once it is
	// exceeded, the least-recently-written hot shards are demoted (the
	// pass keeps one hot, but after a tiered reopen none may be: every
	// shard that has a base reopens cold), then the largest deltas are
	// folded into their sections, until it fits. A budget the last hot
	// shard's trie alone exceeds cannot be met: the deltas may then grow
	// to the whole budget beside that trie before the largest are folded.
	// Resident bytes then stay under the trie plus the budget, and a pass
	// does not rewrite every section that has a delta each time it runs (a
	// fold costs its whole section, however small the delta). Zero
	// disables the pass — Demote/Promote remain available explicitly, and
	// deltas grow until a Checkpoint or a Demote folds them.
	MemoryBudget int64
	// CacheBytes bounds the pages the cold read path keeps resident. A
	// page is a block as stored — for a packed section, the compressed
	// payload — plus a small restart table, so the budget buys roughly
	// CacheBytes of the section files themselves. Zero selects
	// MemoryBudget/8, floored at 8 MiB.
	CacheBytes int64
}

// ColdTierStats is a point-in-time snapshot of the cold tier's state and
// counters, all zero when no cold tier is enabled.
type ColdTierStats struct {
	Enabled        bool
	MemoryBudget   int64  // configured resident budget (0: manual only)
	ResidentShards int    // shards served from in-memory tries
	ColdShards     int    // shards served from their cold section
	ColdBytes      int64  // on-disk bytes of the cold sections
	DeltaKeys      int    // leaves of the cold shards' deltas right now, tombstones included
	CacheHits      uint64 // cold reads served from the page cache
	CacheMisses    uint64 // cold reads that faulted a block from disk
	CacheEvictions uint64 // pages evicted to keep the cache in budget
	CacheBytes     int64  // resident page bytes right now: stored blocks + their restart tables
	CachePages     int    // pages resident right now
	Demotions      uint64 // hot→cold transitions
	Promotions     uint64 // cold→hot transitions
	Folds          uint64 // cold shards' deltas cut into fresh sections
}

// HitRate returns the page-cache hit fraction, 0 when no cold reads ran.
func (s ColdTierStats) HitRate() float64 {
	if s.CacheHits+s.CacheMisses == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(s.CacheHits+s.CacheMisses)
}

// errNoColdTier is returned by cold-tier-only methods on a tree without
// EnableColdTier.
var errNoColdTier = errors.New("hot: cold tier not enabled (see EnableColdTier)")

// coldWard is one shard's write guard and recency/size bookkeeping.
type coldWard struct {
	// wmu is held shared by every write path of the shard and
	// exclusively by transitions; see the file comment.
	wmu sync.RWMutex

	access atomic.Uint64 // coarse clock value of the last write
	// goBytes caches GoBytes of the shard's delta (0: not measured) at Len
	// lenAt.
	goBytes atomic.Int64
	lenAt   atomic.Int64
	gen     atomic.Uint64 // cold generation; bumped at every transition
}

// coldTier is the per-tree cold state: the transition lock, the page
// cache, the per-shard guards and the counters of shards gone by.
type coldTier struct {
	t      *ShardedTree
	dir    string
	budget int64 // resident byte budget (0: manual only)
	cache  *pager.Cache

	mu sync.Mutex // serializes transitions
	ws []coldWard

	clock      atomic.Uint64 // coarse recency clock, advanced every 1<<10 writes
	writes     atomic.Uint64
	demotions  atomic.Uint64
	promotions atomic.Uint64
	folds      atomic.Uint64

	// Replaced deltas' final counters, folded into the aggregates so
	// OpStats and ReclaimStats never go backwards across a transition.
	statsMu      sync.Mutex
	retired      OpStats
	retiredFreed uint64
}

// shardState is one shard as readers and writers find it: a section under
// a delta (see the file comment). Nothing in it changes after it is
// installed but the delta's contents, its one-time allocation and added; a
// transition installs a fresh state and abandons this one.
type shardState struct {
	// pr is the section, nil for a hot shard; ct, shard and gen name its
	// pages in the cache.
	pr    *persist.PageReader
	ct    *coldTier
	shard int
	gen   uint64
	// delta holds the writes the shard took since its section was cut — the
	// whole shard when there is none — and is nil in a cold shard before its
	// first write. It is written by apply alone — under the shard's writer
	// lock, or by replay — and read wait-free.
	delta atomic.Pointer[core.ConcurrentTrie]
	// added is, in a sectioned state, the live delta keys the section lacks
	// minus the tombstones: len is Count + added.
	added atomic.Int64
}

// hotState is the state of a hot shard whose trie is tr.
func hotState(tr *core.ConcurrentTrie) *shardState {
	st := &shardState{}
	st.delta.Store(tr)
	return st
}

// A tombstone's TID: tombBit, above every TID a caller may store, then the
// deleted key's block in the section, then its index in the block.
const (
	tombBit   = 1 << 63
	tombShift = 15
)

// Every index of a block fits below tombShift.
var _ = [1]struct{}{}[persist.MaxBlockEntries>>tombShift]

// coldFileName is a shard's base as a demotion wrote it before every cut
// wrote snap-NNN.hot: recovery still reads it, and the next cut removes it.
func coldFileName(s int) string { return fmt.Sprintf("cold-%03d.hot", s) }

// EnableColdTier arms the pager-backed cold tier: shards may be demoted
// to per-shard section files under cfg.Dir and served through the LRU
// page cache. It must be called before any concurrent writes (typically
// right after construction or a durable open; DurableOptions.ColdTier
// does the latter for you) and at most once.
func (t *ShardedTree) EnableColdTier(cfg ColdTierConfig) error {
	ct, err := t.armCold(cfg)
	if err != nil {
		return err
	}
	// Enforce the budget now rather than 1024 writes from now, so a tree
	// loaded above budget and then served read-only still runs cold.
	if ct.budget > 0 {
		ct.maintain()
	}
	return nil
}

// armCold installs the cold tier without EnableColdTier's immediate budget
// pass; the durable open arms it before recovering the shards and runs
// the pass itself once they are all in place.
func (t *ShardedTree) armCold(cfg ColdTierConfig) (*coldTier, error) {
	if d := t.dur; d != nil {
		// A durable tree keeps its cold files where recovery looks for them.
		cfg.Dir = d.dir
	} else if cfg.Dir == "" {
		return nil, errors.New("hot: EnableColdTier on a non-durable tree requires ColdTierConfig.Dir")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	cacheBytes := cfg.CacheBytes
	if cacheBytes <= 0 {
		cacheBytes = cfg.MemoryBudget / 8
		if cacheBytes < 8<<20 {
			cacheBytes = 8 << 20
		}
	}
	ct := &coldTier{
		t:      t,
		dir:    cfg.Dir,
		budget: cfg.MemoryBudget,
		cache:  pager.New(cacheBytes),
		ws:     make([]coldWard, len(t.shards)),
	}
	if !t.cold.CompareAndSwap(nil, ct) {
		return nil, errors.New("hot: cold tier already enabled")
	}
	return ct, nil
}

// Demote cuts shard s to its base file, snap-NNN.hot, and serves it from
// there: a hot shard's trie is dropped from memory, a cold shard's delta is
// folded into a fresh section (a cold shard without one is left as it is).
// Reads are then served through the page cache, and writes go to the
// shard's delta. Errors leave the shard as it was and serving; in durable
// mode a failure to rotate the log behind the installed section
// additionally poisons the logs, exactly like Checkpoint's (both are the
// same cut).
func (t *ShardedTree) Demote(s int) error {
	ct := t.cold.Load()
	if ct == nil {
		return errNoColdTier
	}
	if s < 0 || s >= len(t.shards) {
		return fmt.Errorf("hot: shard %d out of range [0,%d)", s, len(t.shards))
	}
	if d := t.dur; d != nil {
		d.ckpt.Lock()
		defer d.ckpt.Unlock()
		if d.closed.Load() {
			return ErrClosed
		}
	}
	ct.mu.Lock()
	defer ct.mu.Unlock()
	if st := t.shards[s].Load(); st.pr != nil && st.delta.Load() == nil {
		return nil // cold, with nothing to fold
	}
	return t.cut(s, true)
}

// Promote folds shard s's cold section and its delta into a fresh
// in-memory trie, deleted keys dropped, and retires the section from
// serving. The file stays on disk as the shard's durable base until its
// next cut, so a reopen under DurableOptions.ColdTier before that cut
// serves the shard from it again. Promoting a hot shard is a no-op; no
// write promotes.
func (t *ShardedTree) Promote(s int) error {
	ct := t.cold.Load()
	if ct == nil {
		return errNoColdTier
	}
	if s < 0 || s >= len(t.shards) {
		return fmt.Errorf("hot: shard %d out of range [0,%d)", s, len(t.shards))
	}
	return ct.promote(s)
}

// IsCold reports whether shard s currently has a section: served from its
// base file and its delta.
func (t *ShardedTree) IsCold(s int) bool {
	return t.shards[s].Load().pr != nil
}

// ColdStats returns the cold tier's current state and counters; the zero
// value when no cold tier is enabled. Its walk over the shards is the one
// shard census: Memory and the STATS rows read it.
func (t *ShardedTree) ColdStats() ColdTierStats {
	ct := t.cold.Load()
	if ct == nil {
		return ColdTierStats{}
	}
	cs := ct.cache.Stats()
	st := ColdTierStats{
		Enabled:        true,
		MemoryBudget:   ct.budget,
		CacheHits:      cs.Hits,
		CacheMisses:    cs.Misses,
		CacheEvictions: cs.Evictions,
		CacheBytes:     cs.Bytes,
		CachePages:     cs.Pages,
		Demotions:      ct.demotions.Load(),
		Promotions:     ct.promotions.Load(),
		Folds:          ct.folds.Load(),
	}
	for s := range t.shards {
		sh := t.shards[s].Load()
		if sh.pr == nil {
			st.ResidentShards++
			continue
		}
		st.ColdShards++
		st.ColdBytes += sh.pr.SizeBytes()
		if d := sh.delta.Load(); d != nil {
			st.DeltaKeys += d.Len()
		}
	}
	return st
}

// ---- transitions ----

// install serves shard s from the file at path, just cut from st, its
// state (ShardedTree.cut): a hot shard's demotion or a cold shard's fold,
// ending with no delta. Callers hold the shard's write guard exclusively.
func (ct *coldTier) install(s int, st *shardState, path string) error {
	pr, err := persist.OpenPageReaderFile(path, ct.t.kind)
	if err != nil {
		return fmt.Errorf("hot: shard %d: reopening %s: %w", s, filepath.Base(path), err)
	}
	ct.retire(st)
	if st.pr == nil {
		ct.demotions.Add(1)
	} else {
		// The fresh section's block layout need not match the old one's.
		ct.cache.InvalidateShard(s)
		ct.folds.Add(1)
	}
	ct.t.shards[s].Store(ct.section(s, pr))
	ct.ws[s].goBytes.Store(0)
	ct.ws[s].lenAt.Store(0)
	return nil
}

// section is a state serving shard s from pr, under a fresh generation of
// the shard's cached pages.
func (ct *coldTier) section(s int, pr *persist.PageReader) *shardState {
	return &shardState{ct: ct, pr: pr, shard: s, gen: ct.ws[s].gen.Add(1)}
}

// retire folds the final counters of st's delta, about to be replaced,
// into the retired aggregates. It runs before the slot flip: OpStats and
// ReclaimStats read the aggregates first, then the live deltas, so this
// order at worst double-counts the delta for an instant — never the
// transient dip that would break the "aggregates never decrease across a
// transition" guarantee.
func (ct *coldTier) retire(st *shardState) {
	d := st.delta.Load()
	if d == nil {
		return
	}
	ops := d.OpStats()
	freed, _ := d.ReclaimStats()
	ct.statsMu.Lock()
	ct.retired = ct.retired.Add(ops)
	ct.retiredFreed += freed
	ct.statsMu.Unlock()
}

// promote performs the cold→hot transition of shard s (no-op when hot): a
// new trie, section and delta walked into the shard's loader — the section
// sequentially, bypassing the page cache (every block is touched exactly
// once and the shard is about to stop being cold). A stream that load
// refuses leaves the shard cold.
func (ct *coldTier) promote(s int) error {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	t := ct.t
	st := t.shards[s].Load()
	if st.pr == nil {
		return nil // already hot
	}
	w := &ct.ws[s]
	w.wmu.Lock()
	defer w.wmu.Unlock()
	// Writes deposited while cold go to the delta first, so the trie is
	// built from the shard's complete state.
	t.drainExclusive(s, st)
	tr := t.newTrie()
	if err := st.walk(t.load(s, tr)); err != nil {
		return fmt.Errorf("hot: promoting shard %d: %w", s, err)
	}
	ct.retire(st)
	t.shards[s].Store(hotState(tr))
	// Bump the generation and drop the image's cached pages: a future
	// demotion writes a fresh section whose block layout need not match.
	w.gen.Add(1)
	ct.cache.InvalidateShard(s)
	m := tr.Memory()
	w.goBytes.Store(int64(m.GoBytes))
	w.lenAt.Store(max(int64(tr.Len()), 1))
	w.access.Store(ct.clock.Load())
	ct.promotions.Add(1)
	return nil
}

// vetCold is load without the insert, for a base a durable open is about
// to serve from its file: the section is held to vet — by a full walk when
// the tree has a check, which must see every entry (a later promotion
// resolves the shard's TIDs through loader state that RecoverEntry rebuilds
// right here); else by its first and last key alone, one block decode, so a
// larger-than-RAM store reopens without reading its cold data. Keys ascend
// within a section, so the two ends bound everything between them.
func (t *ShardedTree) vetCold(s int, pr *persist.PageReader) error {
	if t.check != nil {
		return walkPageReader(pr, func(key []byte, tid TID) error { return t.vet(s, key, tid) })
	}
	last := pr.Blocks() - 1
	if last < 0 {
		return nil
	}
	p, err := pr.ReadBlock(last)
	if err == nil {
		err = t.vet(s, pr.FirstKey(0), 0)
	}
	if err == nil {
		var it persist.PageIter
		p.SeekIndex(&it, p.Len()-1)
		err = t.vet(s, it.Key(), 0)
	}
	return err
}

// ---- write guard ----

// lockShardWrite takes shard s's shared write guard and returns the state
// the write applies to, which the guard keeps current until
// unlockShardWrite. Without a cold tier it is a plain load.
func (t *ShardedTree) lockShardWrite(s int) *shardState {
	if ct := t.cold.Load(); ct != nil {
		ct.ws[s].wmu.RLock()
	}
	return t.shards[s].Load()
}

// unlockShardWrite releases the shared guard and runs the recency/budget
// bookkeeping — after the release, so a transition it triggers never
// deadlocks against our own read lock.
func (t *ShardedTree) unlockShardWrite(s int) {
	ct := t.cold.Load()
	if ct == nil {
		return
	}
	ct.ws[s].wmu.RUnlock()
	ct.noteWrite(s)
}

// noteWrite stamps shard s with the current recency clock, advances the
// clock every 1024 writes tree-wide, and opportunistically enforces the
// memory budget.
func (ct *coldTier) noteWrite(s int) {
	c := ct.clock.Load()
	w := &ct.ws[s]
	if w.access.Load() != c {
		w.access.Store(c)
	}
	if ct.writes.Add(1)&1023 == 0 {
		ct.clock.Add(1)
		if ct.budget > 0 {
			ct.maintain()
		}
	}
}

// shardBytes estimates the resident footprint of tr, shard s's trie or
// delta: the cached GoBytes measurement scaled by the Len ratio,
// remeasured with a full walk only when Len has drifted beyond ±25%.
func (ct *coldTier) shardBytes(s int, tr *core.ConcurrentTrie) int64 {
	w := &ct.ws[s]
	n := int64(tr.Len())
	at := w.lenAt.Load()
	gb := w.goBytes.Load()
	if gb == 0 || at == 0 || n > at+at/4 || n < at-at/4 {
		gb = int64(tr.Memory().GoBytes)
		if n < 1 {
			n = 1
		}
		w.goBytes.Store(gb)
		w.lenAt.Store(n)
		return gb
	}
	return gb * n / at
}

// survey estimates the resident footprint — the hot tries' bytes and the
// cold deltas' — and names the budget pass's two candidates: the
// least-recently-written hot shard, and the cold shard with the largest
// delta (-1: none).
func (ct *coldTier) survey() (tries, deltas int64, hot, victim, fold int) {
	victim, fold = -1, -1
	var victimAccess uint64
	var foldBytes int64
	for s := range ct.t.shards {
		st := ct.t.shards[s].Load()
		tr := st.delta.Load()
		if st.pr != nil {
			if tr == nil {
				continue
			}
			b := ct.shardBytes(s, tr)
			deltas += b
			if fold < 0 || b > foldBytes {
				fold, foldBytes = s, b
			}
			continue
		}
		hot++
		tries += ct.shardBytes(s, tr)
		if a := ct.ws[s].access.Load(); victim < 0 || a < victimAccess {
			victim, victimAccess = s, a
		}
	}
	return tries, deltas, hot, victim, fold
}

// deltaRoom is what the budget leaves the deltas next to tries bytes of
// hot tries: the rest of it, or — when the tries alone exceed it, which no
// fold can mend — the whole budget, so the pass does not rewrite every
// section with a delta each time it runs.
func (ct *coldTier) deltaRoom(tries int64) int64 {
	if tries >= ct.budget {
		return ct.budget
	}
	return ct.budget - tries
}

// maintain brings the estimated resident footprint within the budget:
// it demotes least-recently-written hot shards while more than one is
// hot, then folds the largest deltas while they exceed their room. It
// only ever TryLocks — a maintenance pass that loses a race simply lets
// the next one retry — so the write path never blocks on it.
func (ct *coldTier) maintain() {
	t := ct.t
	if d := t.dur; d != nil {
		if !d.ckpt.TryLock() {
			return
		}
		defer d.ckpt.Unlock()
		if d.closed.Load() {
			return
		}
	}
	if !ct.mu.TryLock() {
		return
	}
	defer ct.mu.Unlock()
	for {
		tries, deltas, hot, victim, fold := ct.survey()
		var err error
		switch {
		case tries+deltas <= ct.budget:
			return
		case hot > 1:
			err = t.cut(victim, true)
		case fold >= 0 && deltas > ct.deltaRoom(tries):
			err = t.cut(fold, true)
		default:
			return
		}
		if err != nil {
			return
		}
	}
}

// ---- writes ----

// apply runs op on the state; callers hold the shard's writer lock, or are
// replay. A hot shard writes its trie through applyOp. A cold shard writes
// its delta, allocated here at the first write, with the results the
// shard's one map must give:
//   - an insert of a key the section holds is rejected, unless the delta
//     holds the key's tombstone, which it replaces;
//   - an upsert replaces the delta's TID, else the section's, if any — but
//     not a tombstone, which it replaces as an insert would;
//   - a delete of a key the section holds stores the key's tombstone over
//     whatever the delta held (rejected when that is the tombstone), and a
//     delete of any other key is the delta's own.
//
// An insert or delete looks the section up first, an upsert only on a
// delta miss.
func (st *shardState) apply(op shard.Op) (old TID, ok bool) {
	d := st.delta.Load()
	if st.pr == nil {
		return applyOp(d.Writer(), op)
	}
	if d == nil {
		d = core.NewConcurrent(st.key)
		st.delta.Store(d)
	}
	w := d.Writer()
	switch op.Kind {
	case shard.OpInsert:
		if _, held := st.find(op.Key); held {
			if tid, ok := d.Lookup(op.Key); !ok || tid&tombBit == 0 {
				return 0, false
			}
			w.Upsert(op.Key, op.TID)
		} else if !w.Insert(op.Key, op.TID) {
			return 0, false
		}
		st.added.Add(1)
		return 0, true
	case shard.OpUpsert:
		old, ok = w.Upsert(op.Key, op.TID)
		switch {
		case ok && old&tombBit != 0:
			st.added.Add(1)
			return 0, false
		case !ok:
			// New to the delta: the TID it replaces is the section's, if any.
			if old, ok = st.lookupSection(op.Key); !ok {
				st.added.Add(1)
			}
		}
		return old, ok
	default:
		if tomb, held := st.find(op.Key); held {
			if old, ok = w.Upsert(op.Key, tomb); ok && old&tombBit != 0 {
				return 0, false
			}
		} else if !w.Delete(op.Key) {
			return 0, false
		}
		st.added.Add(-1)
		return 0, true
	}
}

// find returns the tombstone of key — its position in the section — and
// whether the section holds key at all.
func (st *shardState) find(key []byte) (tomb TID, held bool) {
	b := st.pr.FindBlock(key)
	if b < 0 {
		return 0, false
	}
	i, held := st.mustPage(b).Find(key)
	return tombBit | TID(b)<<tombShift | TID(i), held
}

// ---- cold reads ----

// key is a cold shard's delta loader: a tombstone resolves to a copy of
// the key of the section entry it names, every other TID through the
// tree's loader. The copy is fresh: buf may alias what the tree's loader
// returned last (a tuple store's key), and the next buf may alias this
// result, which the tree's loader may write into.
func (st *shardState) key(tid TID, buf []byte) []byte {
	if tid&tombBit == 0 {
		return st.ct.t.loader(tid, buf)
	}
	var it persist.PageIter
	st.mustPage(int(tid&^tombBit>>tombShift)).SeekIndex(&it, int(tid&(1<<tombShift-1)))
	return bytes.Clone(it.Key())
}

// page fetches block b of the cold image through the page cache.
func (st *shardState) page(b int) (*persist.Page, error) {
	return st.ct.cache.Get(pager.Key{Shard: st.shard, Gen: st.gen, Block: b}, func() (*persist.Page, error) {
		return st.pr.ReadBlock(b)
	})
}

// mustPage is page for the read paths, which have no error channel: cold
// I/O failure panics (see the file comment).
func (st *shardState) mustPage(b int) *persist.Page {
	p, err := st.page(b)
	if err != nil {
		panic(fmt.Sprintf("hot: shard %d cold read failed: %v", st.shard, err))
	}
	return p
}

// lookup serves a cold point read: the delta, where a tombstone is a miss,
// then the section.
func (st *shardState) lookup(key []byte) (TID, bool) {
	if d := st.delta.Load(); d != nil {
		if tid, ok := d.Lookup(key); ok {
			if tid&tombBit != 0 {
				return 0, false
			}
			return tid, true
		}
	}
	return st.lookupSection(key)
}

// lookupSection reads the section alone: block via the sparse index, entry
// via the page's restart table and a short step through its stored stream.
func (st *shardState) lookupSection(key []byte) (TID, bool) {
	b := st.pr.FindBlock(key)
	if b < 0 {
		return 0, false
	}
	return st.mustPage(b).Lookup(key)
}

// len returns the shard's key count: its trie's, or the entry count
// recorded in the section trailer plus added.
func (st *shardState) len() int {
	if st.pr == nil {
		return st.delta.Load().Len()
	}
	return int(st.pr.Count()) + int(st.added.Load())
}

// deltaStream is a cold shard's delta as one ordered stream: the trie's
// iterator and the key it is on, resolved through the delta's loader once
// per step.
type deltaStream struct {
	it  core.Iterator
	key []byte
	st  *shardState
}

// seek positions the stream on st's first delta key ≥ from in byte order,
// the section's; without a delta it is exhausted.
func (ds *deltaStream) seek(st *shardState, from []byte) {
	ds.it, ds.st = core.Iterator{}, st
	if d := st.delta.Load(); d != nil {
		ds.it = d.Iter(from)
		ds.resolve()
		// The trie seeks under zero padding, where a key equals itself
		// extended by zero bytes; byte order puts it below.
		for from != nil && ds.valid() && bytes.Compare(ds.key, from) < 0 {
			ds.next()
		}
	}
}

func (ds *deltaStream) valid() bool { return ds.it.Valid() }
func (ds *deltaStream) tid() TID    { return ds.it.TID() }
func (ds *deltaStream) tomb() bool  { return ds.it.TID()&tombBit != 0 }

func (ds *deltaStream) next() {
	ds.it.Next()
	ds.resolve()
}

func (ds *deltaStream) resolve() {
	if ds.it.Valid() {
		ds.key = ds.st.key(ds.it.TID(), ds.key[:0])
	}
}

// walk streams every entry of the shard into fn in ascending order. A hot
// shard walks its trie. A cold shard walks its section — sequentially,
// bypassing the page cache (a cut, a promotion or a verify touches every
// block exactly once), its CRCs, entry structure and order verified by the
// reader on every decode — merged with the delta, whose TID wins a key both
// hold and whose tombstone drops it.
func (st *shardState) walk(fn persist.EntryFunc) error {
	if st.pr == nil {
		return walkSource(st.delta.Load().SnapshotWalk)(fn)
	}
	var ds deltaStream
	ds.seek(st, nil)
	// below streams the delta's entries up to key (all of them for nil)
	// and reports whether the last was key itself.
	below := func(key []byte) (bool, error) {
		for ds.valid() {
			c := -1
			if key != nil {
				c = bytes.Compare(ds.key, key)
			}
			if c > 0 {
				break
			}
			if !ds.tomb() {
				if err := fn(ds.key, ds.tid()); err != nil {
					return false, err
				}
			} else if c < 0 {
				return false, fmt.Errorf("tombstone of %q has no section entry", ds.key)
			}
			ds.next()
			if c == 0 {
				return true, nil
			}
		}
		return false, nil
	}
	err := walkPageReader(st.pr, func(key []byte, tid TID) error {
		if held, err := below(key); held || err != nil {
			return err
		}
		return fn(key, tid)
	})
	if err == nil {
		_, err = below(nil)
	}
	return err
}

// verify checks the delta's structure, that every entry of the shard lies
// in its boundary range, and that len counts them.
func (st *shardState) verify(s int, bounds [][]byte) error {
	if d := st.delta.Load(); d != nil {
		if err := d.Verify(); err != nil {
			return fmt.Errorf("hot: shard %d: %w", s, err)
		}
	}
	n := 0
	err := st.walk(func(k []byte, _ TID) error {
		if !shard.Check(bounds, s, k) {
			return fmt.Errorf("key %q outside shard range", k)
		}
		n++
		return nil
	})
	if err == nil && n != st.len() {
		err = fmt.Errorf("%d entries, Len counts %d", n, st.len())
	}
	if err != nil {
		return fmt.Errorf("hot: shard %d: %w", s, err)
	}
	return nil
}

// coldCursor iterates a cold shard in ascending key order: the section's
// blocks pulled through the page cache, merged with the delta's stream,
// whose entry wins a tie and whose tombstone skips it. A ShardedCursor owns
// exactly one and seeks it on each cold shard its stream reaches. It
// captures the state it was seeked on, so a concurrent transition does not
// disturb it: the section file stays open and immutable, the cursor simply
// observes the shard as of its seek (the same wait-free semantics as a trie
// cursor observing an old root).
type coldCursor struct {
	st   *shardState
	blk  int
	page *persist.Page // nil: the section stream is exhausted
	it   persist.PageIter
	ds   deltaStream
	// delta reports that the entry under the cursor is the delta's.
	delta bool
}

// release drops the image, and with it the cursor's hold on the section's
// file handle; the iterators' key buffers stay for the next seek.
func (c *coldCursor) release() {
	c.st, c.page, c.delta = nil, nil, false
	c.ds.it, c.ds.st = core.Iterator{}, nil
}

func (c *coldCursor) seek(st *shardState, from []byte) {
	c.st = st
	c.page = nil
	c.ds.seek(st, from)
	if st.pr.Blocks() > 0 {
		c.blk = 0
		if from != nil {
			c.blk = st.pr.FindBlock(from)
		}
		c.loadBlock(from)
		if c.page != nil && !c.it.Valid() {
			// from sorts after the block's last entry: the next block
			// starts at the first key > from (its FirstKey exceeds from).
			c.blk++
			c.loadBlock(nil)
		}
	}
	c.pick()
}

// loadBlock faults block c.blk and positions on its first key ≥ from.
func (c *coldCursor) loadBlock(from []byte) {
	if c.blk >= c.st.pr.Blocks() {
		c.page = nil
		return
	}
	c.page = c.st.mustPage(c.blk)
	c.page.Seek(&c.it, from)
}

// pick puts the smaller of the two streams' keys under the cursor — the
// delta's on a tie, stepping the section past its twin — and steps past a
// tombstone and its twin.
func (c *coldCursor) pick() {
	for c.delta = c.ds.valid(); c.delta; c.delta = c.ds.valid() {
		if c.page != nil {
			switch cmp := bytes.Compare(c.ds.key, c.it.Key()); {
			case cmp > 0:
				c.delta = false
				return
			case cmp == 0:
				c.stepPage()
			}
		}
		if !c.ds.tomb() {
			return
		}
		c.ds.next()
	}
}

func (c *coldCursor) stepPage() {
	if c.it.Next(); !c.it.Valid() {
		c.blk++
		c.loadBlock(nil)
	}
}

func (c *coldCursor) valid() bool { return c.page != nil || c.ds.valid() }

// key is stepped off the stored page, or resolved for a delta entry, and
// valid until next.
func (c *coldCursor) key() []byte {
	if c.delta {
		return c.ds.key
	}
	return c.it.Key()
}

func (c *coldCursor) tid() uint64 {
	if c.delta {
		return c.ds.tid()
	}
	return c.it.TID()
}

func (c *coldCursor) next() {
	if c.delta {
		c.ds.next()
	} else {
		c.stepPage()
	}
	c.pick()
}

// ---- ShardedUint64Set surface ----

// EnableColdTier arms the pager-backed cold tier on the sharded set (see
// ShardedTree.EnableColdTier).
func (s *ShardedUint64Set) EnableColdTier(cfg ColdTierConfig) error { return s.t.EnableColdTier(cfg) }

// Demote cuts shard i to its cold section — dropping its trie from memory,
// or folding its delta (see ShardedTree.Demote).
func (s *ShardedUint64Set) Demote(i int) error { return s.t.Demote(i) }

// Promote rebuilds shard i's trie from its cold section and delta (see
// ShardedTree.Promote).
func (s *ShardedUint64Set) Promote(i int) error { return s.t.Promote(i) }

// IsCold reports whether shard i is currently cold.
func (s *ShardedUint64Set) IsCold(i int) bool { return s.t.IsCold(i) }

// ColdStats returns the cold tier's state and counters (see
// ShardedTree.ColdStats).
func (s *ShardedUint64Set) ColdStats() ColdTierStats { return s.t.ColdStats() }
