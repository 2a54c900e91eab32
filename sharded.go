package hot

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/hotindex/hot/internal/core"
	"github.com/hotindex/hot/internal/persist"
	"github.com/hotindex/hot/internal/shard"
	"github.com/hotindex/hot/internal/wire"
)

// ShardedTree is a range-partitioned Height Optimized Trie: the key space
// is split at N-1 boundary keys into N shards, each a concurrent trie with
// its own writer lock and its own epoch reclamation domain. A shard admits
// one writer at a time — synchronous or async, durable or not — which
// writes through the trie's exclusive writer: copy-on-write inserts and
// deletes with epoch retirement and in-place upserts of present keys, but
// no node locks, validation or restarts (no ROWEX).
// Writers to different shards share no synchronization state at all — no
// common locks, no common epoch slots, no common counters — so
// insert/update/delete throughput scales with the number of concurrently
// written shards, not with writers per shard. Readers are wait-free exactly
// as on ConcurrentTree.
//
// The tree satisfies the same unified Index surface as Tree and
// ConcurrentTree: point operations route to the owning shard, LookupBatch
// runs one memory-level-parallel batch across the hot shards, ordered
// scans and cursors walk the shards one after the next (a range
// partition's global order, so only the shard a scan is in is ever open),
// and the statistics and Verify methods aggregate across shards.
// Snapshots multiplex all shards into one crash-safe file (see Save and
// LoadShardedTree).
//
// Boundaries are fixed at construction from a sampled key table; a key
// equal to a boundary routes to the shard above it.
type ShardedTree struct {
	codecOpt
	loader Loader
	// check vets every entry entering a shard (nil: none): a durable open's
	// RecoverEntry while the open runs, a follower's onEntry.
	check  persist.EntryFunc
	shards []shardSlot
	bounds [][]byte                 // len(shards)-1 ascending boundary keys
	async  []asyncShard             // per shard: writer lock and async accounting
	dur    *durableState            // non-nil when opened in durable (WAL) mode
	cold   atomic.Pointer[coldTier] // non-nil once EnableColdTier armed the pager
}

// mustLoader is the contract check of every public entrance that takes a
// loader: a nil one panics at the call, not at the first key it resolves.
func mustLoader(loader Loader) Loader {
	if loader == nil {
		panic("hot: nil Loader")
	}
	return loader
}

// shardSlot is one shard's backing: a pointer to its state (cold.go),
// which a transition replaces with one store.
type shardSlot struct{ atomic.Pointer[shardState] }

// eachDelta calls fn with every shard's delta: a hot shard's whole trie, a
// cold shard's delta once it took a write.
func (t *ShardedTree) eachDelta(fn func(d *core.ConcurrentTrie)) {
	for s := range t.shards {
		if d := t.shards[s].Load().delta.Load(); d != nil {
			fn(d)
		}
	}
}

// NewShardedTree returns an empty sharded tree over at most shards range
// partitions, with boundaries chosen from the quantiles of the sample key
// table (callers typically pass the keys they are about to load, or any
// representative subset; the sample is strided down internally, so passing
// millions of keys is fine). A nil or too-small sample falls back to a
// uniform split of the first key byte; heavily skewed samples may yield
// fewer than shards partitions (see Shards). The loader must be safe for
// concurrent use.
func NewShardedTree(loader Loader, shards int, sample [][]byte) *ShardedTree {
	return newSharded(mustLoader(loader), shards, sample)
}

// newSharded samples the boundary table for a fresh tree.
func newSharded(loader Loader, shards int, sample [][]byte) *ShardedTree {
	if shards < 1 {
		panic("hot: shard count must be >= 1")
	}
	return newShardedFromBounds(loader, shard.Boundaries(shards, sample))
}

// newShardedFromBounds builds the shard set for an explicit boundary
// table, the constructor the snapshot loaders use.
func newShardedFromBounds(loader Loader, bounds [][]byte) *ShardedTree {
	t := &ShardedTree{loader: loader, bounds: bounds}
	t.shards = make([]shardSlot, len(bounds)+1)
	for i := range t.shards {
		t.shards[i].Store(hotState(t.newTrie()))
	}
	t.async = make([]asyncShard, len(t.shards))
	return t
}

// newTrie returns an empty trie for one shard slot.
func (t *ShardedTree) newTrie() *core.ConcurrentTrie {
	return core.NewConcurrent(core.Loader(t.loader))
}

// Shards returns the number of range partitions.
func (t *ShardedTree) Shards() int { return len(t.shards) }

// Shard returns the index of the shard owning key: the number of boundary
// keys ≤ key. Load drivers use it to give every shard a dedicated writer.
func (t *ShardedTree) Shard(key []byte) int { return shard.Find(t.bounds, key) }

// ShardLen returns the number of keys stored in shard i (a cold shard
// reports its section's entry count plus its delta's keys the section
// lacks, minus the section keys it deleted).
func (t *ShardedTree) ShardLen(i int) int { return t.shards[i].Load().len() }

// Boundaries returns a copy of the boundary key table: boundary i is the
// inclusive lower bound of shard i+1.
func (t *ShardedTree) Boundaries() [][]byte {
	out := make([][]byte, len(t.bounds))
	for i, b := range t.bounds {
		out[i] = append([]byte(nil), b...)
	}
	return out
}

// Insert stores tid under key in the owning shard, reporting false when
// the key already exists. In durable mode the write is logged and
// group-commit fsynced before Insert returns. A cold owning shard takes it
// into its delta, rejecting a key its section holds unless it was deleted.
func (t *ShardedTree) Insert(key []byte, tid TID) bool {
	_, ok := t.run(shard.Op{Key: key, TID: tid, Kind: shard.OpInsert}, false)
	return ok
}

// Upsert stores tid under key in the owning shard, returning the replaced
// TID if one existed. In durable mode the write is logged and group-commit
// fsynced before Upsert returns. A cold owning shard takes it into its
// delta; the TID replaced is the delta's, or the section's when the delta
// held none — nothing when the key was deleted.
func (t *ShardedTree) Upsert(key []byte, tid TID) (old TID, replaced bool) {
	return t.run(shard.Op{Key: key, TID: tid, Kind: shard.OpUpsert}, false)
}

// Lookup returns the TID stored under key. It is wait-free: a cold
// owning shard is served from the page cache without promotion.
func (t *ShardedTree) Lookup(key []byte) (TID, bool) {
	st := t.shards[shard.Find(t.bounds, key)].Load()
	if st.pr == nil {
		return st.delta.Load().Lookup(key)
	}
	return st.lookup(key)
}

// Delete removes key from the owning shard, reporting whether it was
// present. In durable mode the write is logged and group-commit fsynced
// before Delete returns. A cold owning shard stays cold: a key its section
// holds leaves a tombstone in its delta.
func (t *ShardedTree) Delete(key []byte) bool {
	_, ok := t.run(shard.Op{Key: key, Kind: shard.OpDelete}, false)
	return ok
}

// LookupBatch looks up all keys as one batch (see Tree.LookupBatch). Every
// key routes to its shard: the keys of all hot shards run as one batch
// through the memory-level-parallel descent kernel, each lane in its own
// shard's trie, so the cache misses of up to 32 descents overlap whatever
// the shard count; the keys of cold shards are point reads through the
// page cache, grouped per shard. Each answer is a value its key held
// during the call, and the call is wait-free like Lookup. The returned
// mask is owned by the caller and is the call's one allocation.
func (t *ShardedTree) LookupBatch(keys [][]byte, out []TID) []bool {
	n := len(keys)
	if len(out) < n {
		panic("hot: LookupBatch out slice shorter than keys")
	}
	found := make([]bool, n)
	b := shardBatchPool.Get().(*shardBatch)
	b.states = slices.Grow(b.states[:0], len(t.shards))[:len(t.shards)]
	b.slot = slices.Grow(b.slot[:0], len(t.shards))[:len(t.shards)]
	b.which = slices.Grow(b.which[:0], n)[:n]
	// Touch every key's first and last byte back to back, so the routing
	// compares below find the keys resident instead of missing one by one.
	var sink uint64
	for _, k := range keys {
		if len(k) > 0 {
			sink += uint64(k[0]) + uint64(k[len(k)-1])
		}
	}
	b.sink += sink
	// Each shard's state is loaded once, at its first key, and a hot
	// shard's trie is listed once, so pinning stays linear in the batch.
	for i, k := range keys {
		s := shard.Find(t.bounds, k)
		st := b.states[s]
		if st == nil {
			st = t.shards[s].Load()
			b.states[s] = st
			if st.pr == nil {
				b.slot[s] = len(b.tries)
				b.tries = append(b.tries, st.delta.Load())
			}
		}
		if st.pr == nil {
			b.which[i] = b.slot[s]
			continue
		}
		b.which[i] = -1
		b.cold = append(b.cold, coldProbe{shard: s, i: i})
	}
	core.LookupBatchAcross(b.tries, b.which, keys, out, found)
	// Cold keys shard by shard: each group touches one shard's blocks, so
	// its faults coalesce.
	slices.SortFunc(b.cold, func(x, y coldProbe) int { return cmp.Or(x.shard-y.shard, x.i-y.i) })
	for _, c := range b.cold {
		out[c.i], found[c.i] = b.states[c.shard].lookup(keys[c.i])
	}
	clear(b.states)
	clear(b.tries)
	b.tries, b.cold = b.tries[:0], b.cold[:0]
	shardBatchPool.Put(b)
	return found
}

// shardBatch is one ShardedTree.LookupBatch call's pooled scratch. Per
// shard: the state the call routed its keys under (nil until the shard's
// first key) and, for a hot shard, the index of its trie in tries. Per
// key: which, the index of its trie in tries, or -1 for a cold shard's key,
// which is listed in cold.
type shardBatch struct {
	states []*shardState
	slot   []int
	tries  []*core.ConcurrentTrie
	which  []int
	cold   []coldProbe
	sink   uint64 // absorbs the key touch pass's loads
}

// coldProbe is a key of a cold shard: its shard and its index in the batch.
type coldProbe struct{ shard, i int }

var shardBatchPool = sync.Pool{New: func() any { return new(shardBatch) }}

// Scan invokes fn for up to max entries in ascending key order across all
// shards, starting at the first key ≥ start. The shards are walked one
// after the next, so the output is byte-identical to a single tree holding
// the union of the shards; concurrent writers may commit before or after
// any step (wait-free reader semantics per shard).
func (t *ShardedTree) Scan(start []byte, max int, fn func(TID) bool) int {
	return t.scanN(start, max, len(t.shards), fn, nil)
}

// Len returns the total number of stored keys across all shards (see
// ShardLen).
func (t *ShardedTree) Len() int {
	n := 0
	for s := range t.shards {
		n += t.ShardLen(s)
	}
	return n
}

// Height returns the maximum height in compound nodes of the shards'
// resident tries: the hot shards' and the cold shards' deltas.
func (t *ShardedTree) Height() int {
	h := 0
	t.eachDelta(func(d *core.ConcurrentTrie) { h = max(h, d.Height()) })
	return h
}

// Depths computes the leaf-depth distribution merged across the shards'
// resident tries: the hot shards' and the cold shards' deltas.
func (t *ShardedTree) Depths() DepthStats {
	var ds DepthStats
	t.eachDelta(func(d *core.ConcurrentTrie) { ds = ds.Merge(d.Depths()) })
	return ds
}

// Memory computes the aggregate memory footprint and node-layout census
// of all shards (the boundary table is negligible and not counted).
// Nodes/PaperBytes/GoBytes cover the resident tries only — the hot
// shards' and the cold shards' deltas; cold shards report their on-disk
// section size in ColdBytes and the stored blocks (plus restart tables)
// currently cached in CacheBytes, so the resident tree footprint and the
// page-cache footprint never blend (see MemoryStats). The shard counts and
// byte totals are ColdStats' own.
func (t *ShardedTree) Memory() MemoryStats {
	var m MemoryStats
	t.eachDelta(func(d *core.ConcurrentTrie) { m = m.Add(d.Memory()) })
	cs := t.ColdStats()
	m.ResidentShards, m.ColdShards, m.ColdBytes, m.CacheBytes = cs.ResidentShards, cs.ColdShards, cs.ColdBytes, cs.CacheBytes
	return m
}

// OpStats returns the insertion-case counters summed across all shards'
// tries, cold shards' deltas included (shards run no ROWEX, so their
// restart and validation counters stay 0). Counters of replaced
// tries are carried forward, so aggregates never decrease across a
// transition. The cold tier's counters are in ColdStats.
func (t *ShardedTree) OpStats() OpStats {
	var o OpStats
	if ct := t.cold.Load(); ct != nil {
		ct.statsMu.Lock()
		o = o.Add(ct.retired)
		ct.statsMu.Unlock()
	}
	t.eachDelta(func(d *core.ConcurrentTrie) { o = o.Add(d.OpStats()) })
	return o
}

// ReclaimStats reports the epoch reclamation counters summed across all
// shard domains, cold shards' deltas included, carrying replaced domains'
// freed totals forward.
func (t *ShardedTree) ReclaimStats() (freed uint64, pending int64) {
	if ct := t.cold.Load(); ct != nil {
		ct.statsMu.Lock()
		freed += ct.retiredFreed
		ct.statsMu.Unlock()
	}
	t.eachDelta(func(d *core.ConcurrentTrie) {
		f, p := d.ReclaimStats()
		freed += f
		pending += p
	})
	return freed, pending
}

// storeStats is one STATS snapshot of a sharded store, read once; every
// row of storeRows reads it. A follower fills only len and shards.
type storeStats struct {
	len, shards int
	durable     bool
	logBytes    int64
	cold        ColdTierStats
}

// storeRows is the one table of a sharded store's STATS rows: one per
// storeStats field, ColdTierStats' included (TestStoreRowsCoverEveryField
// fails when a field has no row). hot-server's STATS reply is these rows
// followed by the server's own.
var storeRows = [...]wire.Row[*storeStats]{
	{Name: "len", Unit: "keys", Gauge: true, Read: func(s *storeStats) uint64 { return uint64(s.len) }},
	{Name: "shards", Unit: "shards", Gauge: true, Read: func(s *storeStats) uint64 { return uint64(s.shards) }},
	{Name: "durable", Unit: "bool", Gauge: true, Read: func(s *storeStats) uint64 { return wire.Flag(s.durable) }},
	{Name: "log_bytes", Unit: "bytes", Gauge: true, Read: func(s *storeStats) uint64 { return uint64(s.logBytes) }},
	{Name: "cold_tier", Unit: "bool", Gauge: true, Read: func(s *storeStats) uint64 { return wire.Flag(s.cold.Enabled) }},
	{Name: "mem_budget", Unit: "bytes", Gauge: true, Read: func(s *storeStats) uint64 { return uint64(s.cold.MemoryBudget) }},
	{Name: "resident_shards", Unit: "shards", Gauge: true, Read: func(s *storeStats) uint64 { return uint64(s.cold.ResidentShards) }},
	{Name: "cold_shards", Unit: "shards", Gauge: true, Read: func(s *storeStats) uint64 { return uint64(s.cold.ColdShards) }},
	{Name: "cold_bytes", Unit: "bytes", Gauge: true, Read: func(s *storeStats) uint64 { return uint64(s.cold.ColdBytes) }},
	{Name: "delta_keys", Unit: "keys", Gauge: true, Read: func(s *storeStats) uint64 { return uint64(s.cold.DeltaKeys) }},
	{Name: "cache_hits", Unit: "reads", Read: func(s *storeStats) uint64 { return s.cold.CacheHits }},
	{Name: "cache_misses", Unit: "reads", Read: func(s *storeStats) uint64 { return s.cold.CacheMisses }},
	{Name: "cache_evictions", Unit: "pages", Read: func(s *storeStats) uint64 { return s.cold.CacheEvictions }},
	{Name: "cache_bytes", Unit: "bytes", Gauge: true, Read: func(s *storeStats) uint64 { return uint64(s.cold.CacheBytes) }},
	{Name: "cache_pages", Unit: "pages", Gauge: true, Read: func(s *storeStats) uint64 { return uint64(s.cold.CachePages) }},
	{Name: "demotions", Unit: "shards", Read: func(s *storeStats) uint64 { return s.cold.Demotions }},
	{Name: "promotions", Unit: "shards", Read: func(s *storeStats) uint64 { return s.cold.Promotions }},
	{Name: "folds", Unit: "shards", Read: func(s *storeStats) uint64 { return s.cold.Folds }},
}

// Stats snapshots the store's STATS rows: key count, shards, durability,
// log bytes and every ColdTierStats field. Read one
// with Get; String formats them all.
func (t *ShardedTree) Stats() wire.Stats {
	s := storeStats{len: t.Len(), shards: t.Shards(),
		durable: t.Durable(), logBytes: t.LogSize(), cold: t.ColdStats()}
	return wire.AppendRows(nil, storeRows[:], &s)
}

// Verify checks every shard's structural invariants (see Tree.Verify) and
// the shard layer's own invariant: every key stored in a shard lies inside
// the shard's boundary range, and Len counts them. Cold shards are verified
// from their section files merged with their deltas — every block is
// re-read, CRC-checked and bounds-checked, and every tombstone must hide a
// section entry. Errors
// are wrapped with the offending shard index; the underlying
// *CorruptionError remains available via errors.As. Like
// ConcurrentTree.Verify it must run in a quiescent state.
func (t *ShardedTree) Verify() error {
	for i := range t.shards {
		if err := t.shards[i].Load().verify(i, t.bounds); err != nil {
			return err
		}
	}
	return nil
}

// ---- cursors ----

// ShardedCursor iterates a ShardedTree's entries in ascending key order
// across all shards, the pull-based counterpart of ShardedTree.Scan. The
// shards are a range partition, so the global order is one shard after the
// next: the cursor holds exactly one open shard — a trie iterator when the
// shard is hot, a page cursor merged with the delta's iterator when it is
// cold — and opens the following
// shard only when this one is exhausted. A shard's backing (trie root or
// cold image) is captured when the cursor reaches it. Like ConcurrentTree's
// cursor it stays usable while other goroutines modify the tree, observing
// each node atomically. Obtain one with ShardedTree.Iter or reposition one
// with ShardedTree.SeekCursor.
type ShardedCursor struct {
	t     *ShardedTree
	s     int // the open shard
	limit int // the stream ends before shard limit
	// At most one of it and cc is valid: the open shard's stream.
	it  core.Iterator
	cc  coldCursor
	buf []byte // Key's scratch for the loader
}

// Valid reports whether the cursor is positioned on an entry.
func (c *ShardedCursor) Valid() bool { return c.it.Valid() || c.cc.valid() }

// TID returns the entry under the cursor. It must only be called while
// Valid reports true.
func (c *ShardedCursor) TID() TID {
	if c.cc.valid() {
		return c.cc.tid()
	}
	return c.it.TID()
}

// Key returns the key under the cursor: resolved through the loader in a
// hot shard or a cold shard's delta, stepped off the stored page in a
// cold section. The slice is only
// valid until the next Next or SeekCursor call. It must only be called
// while Valid reports true.
func (c *ShardedCursor) Key() []byte {
	if c.cc.valid() {
		return c.cc.key()
	}
	return c.t.loader(c.it.TID(), c.scratch())
}

// scratch returns the cursor's key buffer for the loader, allocated on
// first use.
func (c *ShardedCursor) scratch() []byte {
	if c.buf == nil {
		c.buf = make([]byte, 0, 64)
	}
	return c.buf[:0]
}

// Next advances to the next entry in global key order; on an exhausted or
// zero-valued cursor it does nothing.
func (c *ShardedCursor) Next() {
	if c.cc.valid() {
		c.cc.next()
	} else {
		c.it.Next()
	}
	c.settle()
}

// settle moves an exhausted stream on to the smallest key of the next
// non-empty shard below limit.
func (c *ShardedCursor) settle() {
	for !c.Valid() && c.s+1 < c.limit {
		c.s++
		c.open(nil)
	}
}

// open captures shard c.s's current state and positions on its first key
// ≥ from, reusing the cursor's path stack and key buffer. A cold image
// stays readable after a concurrent promotion (the section file is open
// and immutable), as a retired trie root does.
func (c *ShardedCursor) open(from []byte) {
	if st := c.t.shards[c.s].Load(); st.pr == nil {
		st.delta.Load().SeekIter(&c.it, from, c.scratch())
		c.cc.release()
	} else {
		c.it.Reset()
		c.cc.seek(st, from, c.scratch())
	}
}

// Iter returns a cursor positioned at the first key ≥ start (nil start:
// the smallest key across all shards).
func (t *ShardedTree) Iter(start []byte) *ShardedCursor {
	c := &ShardedCursor{}
	t.SeekCursor(c, start)
	return c
}

// SeekCursor repositions c at the first key ≥ start, reusing the cursor's
// storage. The cursor may be zero-valued or previously exhausted. Only the
// shard owning start is opened, at start — a start equal to a shard
// boundary lands on the owning (higher) shard's first key; lower shards
// are never touched and higher ones only when the stream reaches them.
func (t *ShardedTree) SeekCursor(c *ShardedCursor, start []byte) {
	t.seekCursorN(c, start, len(t.shards))
}

// seekCursorN is SeekCursor restricted to the first limit shards, which
// must include start's own: the stream is exactly the ready prefix of the
// key space — what a replication follower may serve while later shards are
// still streaming in.
func (t *ShardedTree) seekCursorN(c *ShardedCursor, start []byte, limit int) {
	c.t, c.s, c.limit = t, shard.Find(t.bounds, start), limit
	c.open(start)
	c.settle()
}

// scanCursors recycles scanN's cursors with their path stacks and key
// buffers, so a steady-state scan allocates nothing.
var scanCursors = sync.Pool{New: func() any { return new(ShardedCursor) }}

// release drops what the cursor holds of its tree — the tree, the open
// shard's path and image — keeping its storage for the next seek.
func (c *ShardedCursor) release() {
	c.t = nil
	c.it.Reset()
	c.cc.release()
}

// scanN is the one bounded loop under Scan and Follower.Scan: fn sees up
// to max entries ≥ start out of the first limit shards, in order, and
// stops the walk by returning false. A hot shard is consumed a leaf run at
// a time through its trie iterator, a cold one a page run at a time
// through its page cursor. With a non-nil key, *key holds each entry's key
// while fn runs, so a cold shard is stepped an entry at a time.
func (t *ShardedTree) scanN(start []byte, max, limit int, fn func(TID) bool, key *[]byte) int {
	if max <= 0 {
		return 0
	}
	c := scanCursors.Get().(*ShardedCursor)
	t.seekCursorN(c, start, limit)
	run := fn
	if key != nil {
		run = func(tid TID) bool {
			*key = t.loader(tid, c.scratch())
			return fn(tid)
		}
	}
	n := 0
	for c.Valid() && n < max {
		var k int
		var stopped bool
		switch {
		case !c.cc.valid():
			k, stopped = c.it.Scan(max-n, run)
		case key == nil:
			k, stopped = c.cc.scan(max-n, fn)
		default:
			*key = c.cc.key()
			if k, stopped = 1, !fn(c.cc.tid()); !stopped {
				c.cc.next()
			}
		}
		if n += k; stopped {
			break
		}
		c.settle()
	}
	c.release()
	scanCursors.Put(c)
	return n
}
