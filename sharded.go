package hot

import (
	"cmp"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/hotindex/hot/internal/core"
	"github.com/hotindex/hot/internal/persist"
	"github.com/hotindex/hot/internal/shard"
	"github.com/hotindex/hot/internal/tidstore"
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
// Snapshots multiplex all shards into one crash-safe file (see Snapshot and
// LoadShardedTreeFile).
//
// Boundaries are fixed at construction from a sampled key table; a key
// equal to a boundary routes to the shard above it.
type ShardedTree struct {
	codecOpt
	flavor
	shards []shardSlot
	bounds [][]byte // len(shards)-1 ascending boundary keys
	async  *asyncState
	dur    *durableState            // non-nil when opened in durable (WAL) mode
	cold   atomic.Pointer[coldTier] // non-nil once EnableColdTier armed the pager
}

// flavor is everything that tells one sharded index type from another: how
// its TIDs resolve to keys, the section kind its files and streams carry,
// and the validator every entry entering a shard must pass (nil: none).
// The constructor sets it once; nothing below threads it by hand.
type flavor struct {
	loader Loader
	kind   uint16
	check  func(key []byte, tid TID) error
}

// treeFlavor is ShardedTree's own flavor over the caller's loader.
func treeFlavor(loader Loader) flavor {
	if loader == nil {
		panic("hot: nil Loader")
	}
	return flavor{loader: loader, kind: persist.KindTree}
}

// setFlavor is ShardedUint64Set's: embedded keys, set sections, and the
// key-equals-TID rule on every entry.
var setFlavor = flavor{tidstore.Uint64Key, persist.KindUint64Set, checkSetEntry}

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
	return newSharded(treeFlavor(loader), shards, sample)
}

// newSharded samples the boundary table for a fresh tree of flavor fl.
func newSharded(fl flavor, shards int, sample [][]byte) *ShardedTree {
	if shards < 1 {
		panic("hot: shard count must be >= 1")
	}
	return newShardedFromBounds(fl, shard.Boundaries(shards, sample))
}

// newShardedFromBounds builds the shard set for an explicit boundary
// table, the constructor the snapshot loaders use.
func newShardedFromBounds(fl flavor, bounds [][]byte) *ShardedTree {
	t := &ShardedTree{flavor: fl, bounds: bounds}
	t.shards = make([]shardSlot, len(bounds)+1)
	for i := range t.shards {
		t.shards[i].Store(hotState(t.newTrie()))
	}
	t.async = newAsyncState(len(t.shards), defaultQueueCapacity)
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
	_, ok := t.writeSync(shard.Op{Key: key, TID: tid, Kind: shard.OpInsert})
	return ok
}

// Upsert stores tid under key in the owning shard, returning the replaced
// TID if one existed. In durable mode the write is logged and group-commit
// fsynced before Upsert returns. A cold owning shard takes it into its
// delta; the TID replaced is the delta's, or the section's when the delta
// held none — nothing when the key was deleted.
func (t *ShardedTree) Upsert(key []byte, tid TID) (old TID, replaced bool) {
	return t.writeSync(shard.Op{Key: key, TID: tid, Kind: shard.OpUpsert})
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
	_, ok := t.writeSync(shard.Op{Key: key, Kind: shard.OpDelete})
	return ok
}

// writeSync is the synchronous entrance to run (sharded_async.go): validate
// before any lock is held, route, load the shard's state under its shared
// write guard, run the one op, release. It returns what the op's method returns
// (old is Upsert's).
func (t *ShardedTree) writeSync(op shard.Op) (old TID, ok bool) {
	checkOp(op.Key, op.TID)
	s := shard.Find(t.bounds, op.Key)
	st := t.lockShardWrite(s)
	old, ok, _ = t.run(s, st, op, 0, true)
	t.unlockShardWrite(s)
	return old, ok
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
	return t.scanN(start, max, len(t.shards), func(c *ShardedCursor) bool { return fn(c.TID()) })
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
// restart and validation counters stay 0), plus the async submission-queue
// counters (deposits, stolen drains, drain batches, full-ring rejections
// and the current queue depth across all shards). Counters of replaced
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
	t.async.queueOpStats(&o)
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
	len, shards, pending int
	durable              bool
	logBytes             int64
	cold                 ColdTierStats
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
	{Name: "pending", Unit: "ops", Gauge: true, Read: func(s *storeStats) uint64 { return uint64(s.pending) }},
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
// log bytes, the async backlog and every ColdTierStats field. Read one
// with Get; String formats them all.
func (t *ShardedTree) Stats() wire.Stats {
	s := storeStats{len: t.Len(), shards: t.Shards(), pending: t.AsyncPending(),
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
	if c.buf == nil {
		c.buf = make([]byte, 0, 64)
	}
	return c.t.loader(c.it.TID(), c.buf[:0])
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
// ≥ from. A cold image stays readable after a concurrent promotion (the
// section file is open and immutable), as a retired trie root does.
func (c *ShardedCursor) open(from []byte) {
	if st := c.t.shards[c.s].Load(); st.pr == nil {
		c.it = st.delta.Load().Iter(from)
		c.cc.release()
	} else {
		c.it = core.Iterator{}
		c.cc.seek(st, from)
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

// scanN is the one bounded cursor loop under Scan and Follower.Scan: fn
// sees up to max entries ≥ start out of the first limit shards, in order,
// and stops the walk by returning false.
func (t *ShardedTree) scanN(start []byte, max, limit int, fn func(*ShardedCursor) bool) int {
	if max <= 0 {
		return 0
	}
	var c ShardedCursor
	t.seekCursorN(&c, start, limit)
	n := 0
	for c.Valid() && n < max {
		n++
		if !fn(&c) {
			break
		}
		c.Next()
	}
	return n
}

// ---- ShardedUint64Set ----

// ShardedUint64Set is an ordered set of 63-bit integers range-partitioned
// across independent single-writer shards — Uint64Set's write-scaling
// variant, built on ShardedTree with the paper's embedded-key
// optimization (the 8-byte big-endian key is the TID). All methods are
// safe for concurrent use.
type ShardedUint64Set struct {
	t *ShardedTree
}

// NewShardedUint64Set returns an empty sharded integer set over at most
// shards range partitions, with boundaries sampled from the values in
// sample (see NewShardedTree).
func NewShardedUint64Set(shards int, sample []uint64) *ShardedUint64Set {
	return &ShardedUint64Set{t: newSharded(setFlavor, shards, u64keys(sample))}
}

// u64keys returns the 8-byte big-endian keys of vs, carved from one
// allocation.
func u64keys(vs []uint64) [][]byte {
	keys := make([][]byte, len(vs))
	putU64Keys(keys, make([]byte, 8*len(vs)), vs)
	return keys
}

// Insert adds v (< 2^63), reporting false if already present.
func (s *ShardedUint64Set) Insert(v uint64) bool {
	var b [8]byte
	return s.t.Insert(u64key(v, &b), v)
}

// Contains reports whether v is in the set. It is wait-free.
func (s *ShardedUint64Set) Contains(v uint64) bool {
	var b [8]byte
	_, ok := s.t.Lookup(u64key(v, &b))
	return ok
}

// LookupBatch reports membership of all values as one batch (see
// ShardedTree.LookupBatch). The returned mask is owned by the caller and is
// the call's one allocation.
func (s *ShardedUint64Set) LookupBatch(vs []uint64) []bool {
	b := u64BatchPool.Get().(*u64Batch)
	found := s.t.LookupBatch(b.encode(vs))
	u64BatchPool.Put(b)
	return found
}

var u64BatchPool = sync.Pool{New: func() any { return new(u64Batch) }}

// Delete removes v, reporting whether it was present.
func (s *ShardedUint64Set) Delete(v uint64) bool {
	var b [8]byte
	return s.t.Delete(u64key(v, &b))
}

// Len returns the set's cardinality across all shards.
func (s *ShardedUint64Set) Len() int { return s.t.Len() }

// Shards returns the number of range partitions.
func (s *ShardedUint64Set) Shards() int { return s.t.Shards() }

// Ascend invokes fn for up to max values ≥ from in ascending order across
// all shards (max < 0 means unbounded).
func (s *ShardedUint64Set) Ascend(from uint64, max int, fn func(uint64) bool) int {
	var b [8]byte
	if max < 0 {
		max = math.MaxInt
	}
	return s.t.Scan(u64key(from, &b), max, fn)
}

// Height returns the maximum shard height.
func (s *ShardedUint64Set) Height() int { return s.t.Height() }

// OpStats reports the aggregated per-shard insertion-case, robustness and
// submission-queue counters (see ShardedTree.OpStats).
func (s *ShardedUint64Set) OpStats() OpStats { return s.t.OpStats() }

// Memory computes the aggregate memory statistics of all shards.
func (s *ShardedUint64Set) Memory() MemoryStats { return s.t.Memory() }

// Verify checks every shard's structural invariants and the shard-range
// invariant (see ShardedTree.Verify); it must run in a quiescent state.
func (s *ShardedUint64Set) Verify() error { return s.t.Verify() }
