package hot

import (
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

// Larger-than-RAM operation for the sharded index types: a shard can be
// DEMOTED — its trie snapshotted to a per-shard indexed section on disk
// and dropped from memory — and served cold from that section through a
// fixed-budget LRU page cache (internal/pager). Reads against a cold
// shard binary-search the section's sparse block index, fault exactly
// the blocks they touch and are answered from the block as stored;
// writes transparently PROMOTE the shard back to an in-memory trie
// first. A MemoryBudget drives automatic demotion of the
// least-recently-written shards, so the resident working set tracks the
// write skew while the full key space stays serviceable.
//
// State machine. Each shard slot holds two atomic pointers, (tree, cold),
// of which exactly one is non-nil in steady state. Transitions install
// the new backing before clearing the old (readers may transiently see
// both and prefer the tree, whose content equals the cold image at that
// instant), so readers stay wait-free: no read path ever takes a lock.
//
//	hot  --Demote-->  cold      snapshot section + page cache
//	cold --Promote--> hot       rebuild trie from the section
//
// Write guard. Every write path — synchronous, durable and the async
// submission queues — holds the shard's wmu in shared mode across its
// ring deposits, writer-token acquisitions and trie applies, after
// verifying the shard is hot. Demotion and promotion take wmu
// exclusively, so a demote observes a quiescent shard whose submission
// ring it can drain inline (the writer token is necessarily free under
// the exclusive lock) and a promote never races an apply.
//
// Demotion cut. A demote is the same cut a Checkpoint takes of a hot
// shard (ShardedTree.cut in durable_sharded.go), aimed at the indexed
// cold-NNN.hot: under d.ckpt (serializing against Checkpoint, Close and
// replication sessions) and the exclusive write guard, the drained trie
// is written out and the shard's log is rotated to its last LSN. The cut
// is exact — every logged operation of the shard is in the section,
// nothing after the section start is logged — so a cold shard needs no
// WAL overlay at all: its section IS its durable state, which is why
// Checkpoint skips cold shards and recovery opens the file instead of
// loading it.
//
// Promotion deliberately takes neither d.ckpt nor any log lock: it only
// rebuilds in memory exactly what the section holds. The promoted
// shard's subsequent writes land in its (already rotated) log; the cold
// file stays its recovery base until the shard's next cut — a Checkpoint
// (to snap-NNN.hot) or a re-demotion — replaces it.
//
// Cold read I/O failures panic, matching the durable log convention: a
// store whose backing file rots under it cannot honor its contract.

// ColdTierConfig configures EnableColdTier.
type ColdTierConfig struct {
	// Dir is where a non-durable tree keeps its per-shard cold section
	// files (cold-NNN.hot); it is required there. A durable tree ignores
	// it: its cold files live in the durable directory, where recovery
	// looks for them.
	Dir string
	// MemoryBudget is the resident-trie byte budget: once the estimated
	// footprint of the hot shards exceeds it, the least-recently-written
	// hot shards are demoted until it fits (at least one shard always
	// stays hot). Zero disables automatic demotion — Demote/Promote
	// remain available explicitly.
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
	CacheHits      uint64 // cold reads served from the page cache
	CacheMisses    uint64 // cold reads that faulted a block from disk
	CacheEvictions uint64 // pages evicted to keep the cache in budget
	CacheBytes     int64  // resident page bytes right now: stored blocks + their restart tables
	CachePages     int    // pages resident right now
	Demotions      uint64 // hot→cold transitions
	Promotions     uint64 // cold→hot transitions
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
	// exclusively by demotion/promotion; see the file comment.
	wmu sync.RWMutex

	access  atomic.Uint64 // coarse clock value of the last write
	goBytes atomic.Int64  // cached GoBytes of the resident trie (0: cold)
	lenAt   atomic.Int64  // trie Len when goBytes was measured
	gen     atomic.Uint64 // cold generation; bumped at every transition
}

// coldTier is the per-tree cold state: the transition lock, the page
// cache, the per-shard guards and the counters of shards gone by.
type coldTier struct {
	t      *ShardedTree
	dir    string
	budget int64 // resident-trie byte budget (0: manual only)
	cache  *pager.Cache

	mu sync.Mutex // serializes demote/promote transitions
	ws []coldWard

	clock      atomic.Uint64 // coarse recency clock, advanced every 1<<10 writes
	writes     atomic.Uint64
	demotions  atomic.Uint64
	promotions atomic.Uint64

	// Demoted tries' final counters, folded into the aggregates so
	// OpStats and ReclaimStats never go backwards across a demotion.
	statsMu      sync.Mutex
	retired      OpStats
	retiredFreed uint64
}

// coldShard serves one demoted shard from its section file. Immutable
// once installed; a promotion installs a fresh trie and abandons it (the
// file handle is released by the runtime once the last cursor drops it —
// never closed eagerly, cold cursors may still be mid-scan).
type coldShard struct {
	ct    *coldTier
	pr    *persist.PageReader
	shard int
	gen   uint64
}

func coldFileName(s int) string { return fmt.Sprintf("cold-%03d.hot", s) }

func (ct *coldTier) coldPath(s int) string { return filepath.Join(ct.dir, coldFileName(s)) }

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

// Demote snapshots shard s to its cold section file and drops its trie
// from memory; subsequent reads are served through the page cache and
// the next write promotes it back. Demoting a cold shard is a no-op.
// Errors leave the shard hot and serving; in durable mode a failure to
// rotate the log behind the installed section additionally poisons the
// logs, exactly like Checkpoint's (both are the same cut).
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
	return ct.demoteLocked(s)
}

// Promote rebuilds shard s's in-memory trie from its cold section and
// retires the section from serving (the file stays on disk as the
// durable recovery base until the shard's next cut). Promoting a hot
// shard is a no-op. Writes to a cold shard call this implicitly.
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

// IsCold reports whether shard s is currently served from its cold
// section.
func (t *ShardedTree) IsCold(s int) bool {
	return t.shards[s].cold.Load() != nil
}

// ColdStats returns the cold tier's current state and counters; the zero
// value when no cold tier is enabled.
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
	}
	for s := range t.shards {
		tr, c := t.view(s)
		if tr != nil {
			st.ResidentShards++
		} else {
			st.ColdShards++
			st.ColdBytes += c.pr.SizeBytes()
		}
	}
	return st
}

// ---- transitions ----

// demoteLocked performs the hot→cold transition of shard s: cut to the
// cold name, then serve from the file and drop the trie. Callers hold
// ct.mu, and d.ckpt in durable mode.
func (ct *coldTier) demoteLocked(s int) error {
	t := ct.t
	sl := &t.shards[s]
	tr := sl.tree.Load()
	if tr == nil {
		return nil // already cold
	}
	w := &ct.ws[s]
	w.wmu.Lock()
	defer w.wmu.Unlock()
	// Under the exclusive guard no writer is mid-apply and none can
	// deposit; drain what the ring already holds so the cut below is the
	// shard's complete state.
	t.drainForDemote(s, tr)
	if err := t.cut(s, tr, true); err != nil {
		return fmt.Errorf("hot: demoting shard %d: %w", s, err)
	}
	pr, err := persist.OpenPageReaderFile(ct.coldPath(s), t.kind)
	if err != nil {
		return fmt.Errorf("hot: demoting shard %d: reopening %s: %w", s, coldFileName(s), err)
	}
	// Fold the trie's final counters into the retired aggregates before
	// the slot flip: OpStats/ReclaimStats read the aggregates first, then
	// the live trees, so this order at worst double-counts the shard for
	// an instant — never the transient dip that would break the
	// "aggregates never decrease across a demotion" guarantee.
	ops := tr.OpStats()
	freed, _ := tr.ReclaimStats()
	ct.statsMu.Lock()
	ct.retired = ct.retired.Add(ops)
	ct.retiredFreed += freed
	ct.statsMu.Unlock()
	sl.cold.Store(&coldShard{ct: ct, pr: pr, shard: s, gen: w.gen.Add(1)})
	sl.tree.Store(nil)
	w.goBytes.Store(0)
	w.lenAt.Store(0)
	ct.demotions.Add(1)
	return nil
}

// promote performs the cold→hot transition of shard s (no-op when hot).
func (ct *coldTier) promote(s int) error {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	sl := &ct.t.shards[s]
	cs := sl.cold.Load()
	if cs == nil {
		return nil // already hot
	}
	w := &ct.ws[s]
	w.wmu.Lock()
	defer w.wmu.Unlock()
	tr, err := ct.buildTree(cs)
	if err != nil {
		return fmt.Errorf("hot: promoting shard %d: %w", s, err)
	}
	sl.tree.Store(tr)
	sl.cold.Store(nil)
	// Bump the generation and drop the image's cached pages: a future
	// demotion writes a fresh section whose block layout need not match.
	w.gen.Add(1)
	ct.cache.InvalidateShard(s)
	m := tr.Memory()
	w.goBytes.Store(int64(m.GoBytes))
	n := int64(tr.Len())
	if n < 1 {
		n = 1
	}
	w.lenAt.Store(n)
	w.access.Store(ct.clock.Load())
	ct.promotions.Add(1)
	return nil
}

// buildTree rebuilds a trie from a cold section: a new trie, and the
// section walked into the shard's loader — sequentially, bypassing the
// page cache (every block is touched exactly once and the shard is about
// to stop being cold). A section that load refuses leaves the shard cold.
func (ct *coldTier) buildTree(cs *coldShard) (*core.ConcurrentTrie, error) {
	tr := ct.t.newTrie()
	return tr, cs.walk(ct.t.load(cs.shard, tr))
}

// vetCold is load without the insert, for a cold section a durable open is
// about to serve from its file: the section is held to vet — by a full
// walk when the tree has a check, which must see every entry (a later
// promotion resolves the shard's TIDs through loader state that
// RecoverEntry rebuilds right here) and whose accepted entries it counts;
// else by its first and last key alone, one block decode, so a
// larger-than-RAM store reopens without reading its cold data. Keys ascend
// within a section, so the two ends bound everything between them.
func (t *ShardedTree) vetCold(s int, pr *persist.PageReader) (uint64, error) {
	if t.check != nil {
		return walkPageReader(pr, func(key []byte, tid TID) error { return t.vet(s, key, tid) })
	}
	last := pr.Blocks() - 1
	if last < 0 {
		return 0, nil
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
	return 0, err
}

// ---- write guard ----

// lockShardWrite pins shard s hot for one write: the shared guard is
// acquired and the shard promoted if needed, retrying until both hold at
// once. It returns the resident trie with the guard held; pair with
// unlockShardWrite. Without a cold tier it degenerates to a plain load.
func (t *ShardedTree) lockShardWrite(s int) *core.ConcurrentTrie {
	ct := t.cold.Load()
	if ct == nil {
		return t.shards[s].tree.Load()
	}
	for {
		ct.ws[s].wmu.RLock()
		if tr := t.shards[s].tree.Load(); tr != nil {
			return tr
		}
		ct.ws[s].wmu.RUnlock()
		if err := ct.promote(s); err != nil {
			panic(fmt.Sprintf("hot: promoting shard %d for write: %v", s, err))
		}
	}
}

// unlockShardWrite releases the shared guard and runs the recency/budget
// bookkeeping — after the release, so a demotion it triggers never
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

// shardBytes estimates the resident footprint of shard s's trie: the
// cached GoBytes measurement scaled by the Len ratio, remeasured with a
// full walk only when Len has drifted beyond ±25%.
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

// maintain demotes least-recently-written hot shards until the estimated
// resident footprint fits the budget, keeping at least one shard hot. It
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
		var resident int64
		hot, victim := 0, -1
		var victimAccess uint64
		for s := range t.shards {
			tr := t.shards[s].tree.Load()
			if tr == nil {
				continue
			}
			hot++
			resident += ct.shardBytes(s, tr)
			if a := ct.ws[s].access.Load(); victim < 0 || a < victimAccess {
				victim, victimAccess = s, a
			}
		}
		if resident <= ct.budget || hot <= 1 || victim < 0 {
			return
		}
		if err := ct.demoteLocked(victim); err != nil {
			return
		}
	}
}

// ---- cold reads ----

// page fetches block b of the cold image through the page cache.
func (cs *coldShard) page(b int) (*persist.Page, error) {
	return cs.ct.cache.Get(pager.Key{Shard: cs.shard, Gen: cs.gen, Block: b}, func() (*persist.Page, error) {
		return cs.pr.ReadBlock(b)
	})
}

// mustPage is page for the read paths, which have no error channel: cold
// I/O failure panics (see the file comment).
func (cs *coldShard) mustPage(b int) *persist.Page {
	p, err := cs.page(b)
	if err != nil {
		panic(fmt.Sprintf("hot: shard %d cold read failed: %v", cs.shard, err))
	}
	return p
}

// lookup serves a point read: block via the sparse index, entry via the
// page's restart table and a short step through its stored stream.
func (cs *coldShard) lookup(key []byte) (TID, bool) {
	b := cs.pr.FindBlock(key)
	if b < 0 {
		return 0, false
	}
	return cs.mustPage(b).Lookup(key)
}

// len returns the entry count recorded in the section trailer.
func (cs *coldShard) len() int { return int(cs.pr.Count()) }

// walk streams every entry of the cold section into fn, sequentially and
// bypassing the page cache (a checkpoint or a verify touches every block
// exactly once). Block CRCs, entry structure and ascending order are
// verified by the reader on every decode.
func (cs *coldShard) walk(fn persist.EntryFunc) error {
	_, err := walkPageReader(cs.pr, fn)
	return err
}

// verify checks that every cold entry lies in the shard's boundary range.
func (cs *coldShard) verify(bounds [][]byte) error {
	err := cs.walk(func(k []byte, _ TID) error {
		if !shard.Check(bounds, cs.shard, k) {
			return fmt.Errorf("cold key %q outside shard range", k)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("hot: shard %d cold section: %w", cs.shard, err)
	}
	return nil
}

// coldCursor iterates a cold image in ascending key order, pulling
// blocks through the page cache. A ShardedCursor owns exactly one and
// seeks it on each cold shard its stream reaches. It captures the
// coldShard it was seeked on, so a concurrent promotion does not disturb
// it: the section file stays open and immutable, the cursor simply
// observes the shard as of its seek (the same wait-free semantics as a
// trie cursor observing an old root).
type coldCursor struct {
	cs   *coldShard
	blk  int
	page *persist.Page // nil: not on an entry
	it   persist.PageIter
}

// release drops the image, and with it the cursor's hold on the section's
// file handle; the iterator's key buffer stays for the next seek.
func (c *coldCursor) release() { c.cs, c.page = nil, nil }

func (c *coldCursor) seek(cs *coldShard, from []byte) {
	c.cs = cs
	c.page = nil
	if cs.pr.Blocks() == 0 {
		return
	}
	c.blk = 0
	if from != nil {
		c.blk = cs.pr.FindBlock(from)
	}
	c.loadBlock(from)
	if c.page != nil && !c.it.Valid() {
		// from sorts after the block's last entry: the next block starts
		// at the first key > from (its FirstKey exceeds from).
		c.blk++
		c.loadBlock(nil)
	}
}

// loadBlock faults block c.blk and positions on its first key ≥ from.
func (c *coldCursor) loadBlock(from []byte) {
	if c.blk >= c.cs.pr.Blocks() {
		c.page = nil
		return
	}
	c.page = c.cs.mustPage(c.blk)
	c.page.Seek(&c.it, from)
}

func (c *coldCursor) valid() bool { return c.page != nil }

// key is stepped off the stored page and valid until next.
func (c *coldCursor) key() []byte { return c.it.Key() }
func (c *coldCursor) tid() uint64 { return c.it.TID() }
func (c *coldCursor) next() {
	if c.it.Next(); !c.it.Valid() {
		c.blk++
		c.loadBlock(nil)
	}
}

// ---- ShardedUint64Set surface ----

// EnableColdTier arms the pager-backed cold tier on the sharded set (see
// ShardedTree.EnableColdTier).
func (s *ShardedUint64Set) EnableColdTier(cfg ColdTierConfig) error { return s.t.EnableColdTier(cfg) }

// Demote snapshots shard i to its cold section and drops its trie from
// memory (see ShardedTree.Demote).
func (s *ShardedUint64Set) Demote(i int) error { return s.t.Demote(i) }

// Promote rebuilds shard i's trie from its cold section (see
// ShardedTree.Promote).
func (s *ShardedUint64Set) Promote(i int) error { return s.t.Promote(i) }

// IsCold reports whether shard i is currently cold.
func (s *ShardedUint64Set) IsCold(i int) bool { return s.t.IsCold(i) }

// ColdStats returns the cold tier's state and counters (see
// ShardedTree.ColdStats).
func (s *ShardedUint64Set) ColdStats() ColdTierStats { return s.t.ColdStats() }
