package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	hot "github.com/hotindex/hot"
	"github.com/hotindex/hot/internal/art"
	"github.com/hotindex/hot/internal/btree"
	"github.com/hotindex/hot/internal/core"
	"github.com/hotindex/hot/internal/key"
	"github.com/hotindex/hot/internal/masstree"
	"github.com/hotindex/hot/internal/pager"
	"github.com/hotindex/hot/internal/persist"
	"github.com/hotindex/hot/internal/shard"
	"github.com/hotindex/hot/internal/tidstore"
	"github.com/hotindex/hot/internal/wire"
)

// The per-layer ladder. A traced run replays one sampled op sequence over
// the first ladderN keys of the workload against each layer alone, from
// outside, through the layer's exported functions. Rungs stack — core
// under hot under server under hotclient — so a rung's self time is its
// time minus the rung below, and every rung runs on every workload: what
// differs between workloads is the keys.

// perLayer is BENCHMARK.json's per_layer list: every traced run emits every
// one of them. They have no bounds.
var perLayer = []metricDef{
	{name: "tidstore.key_ns", unit: "ns", better: "lower"},
	{name: "shard.find_ns", unit: "ns", better: "lower"},
	{name: "shard.queue_pushpop_ns", unit: "ns", better: "lower"},
	{name: "core.lookup_ns", unit: "ns", better: "lower"},
	{name: "core.lookupbatch_ns_per_key", unit: "ns", better: "lower"},
	{name: "core.insert_ns", unit: "ns", better: "lower"},
	{name: "core.upsert_ns", unit: "ns", better: "lower"},
	{name: "core.scan50_ns", unit: "ns", better: "lower"},
	{name: "core.leaf_depth_mean", unit: "count", better: "lower"},
	{name: "core.height", unit: "count", better: "lower"},
	{name: "core.allocs_per_insert", unit: "count", better: "lower"},
	{name: "core.bytes_per_insert", unit: "B", better: "lower"},
	{name: "core.allocs_per_get", unit: "count", better: "lower"},
	{name: "core.case_normal_frac", unit: "ratio", better: "higher"},
	{name: "core.case_pushdown_frac", unit: "ratio", better: "lower"},
	{name: "core.case_pullup_frac", unit: "ratio", better: "lower"},
	{name: "core.case_intermediate_frac", unit: "ratio", better: "lower"},
	{name: "core.paper_bytes_per_key", unit: "B/key", better: "lower"},
	{name: "core.get_vs_art", unit: "ratio", better: "higher"},
	{name: "hot.lookup_ns", unit: "ns", better: "lower"},
	{name: "hot.upsert_ns", unit: "ns", better: "lower"},
	{name: "hot.durable_upsert_ns", unit: "ns", better: "lower"},
	{name: "hot.cold_lookup_ns", unit: "ns", better: "lower"},
	{name: "hot.checkpoint_ms", unit: "ms", better: "lower"},
	{name: "hot.demote_ms", unit: "ms", better: "lower"},
	{name: "hot.promote_ms", unit: "ms", better: "lower"},
	{name: "hot.recover_ms", unit: "ms", better: "lower"},
	{name: "hot.recover_snapshot_entries", unit: "count", better: "lower"},
	{name: "hot.recover_wal_records", unit: "count", better: "lower"},
	{name: "persist.wal_append_ns", unit: "ns", better: "lower"},
	{name: "persist.wal_commit_ns", unit: "ns", better: "lower"},
	{name: "persist.wal_bytes_per_put", unit: "B", better: "lower"},
	{name: "persist.replay_ns_per_rec", unit: "ns", better: "lower"},
	{name: "persist.save_ns_per_key", unit: "ns", better: "lower"},
	{name: "persist.load_ns_per_key", unit: "ns", better: "lower"},
	{name: "persist.readblock_raw_ns", unit: "ns", better: "lower"},
	{name: "persist.readblock_packed_ns", unit: "ns", better: "lower"},
	{name: "persist.page_find_ns", unit: "ns", better: "lower"},
	{name: "pager.hit_ns", unit: "ns", better: "lower"},
	{name: "pager.miss_ns", unit: "ns", better: "lower"},
	{name: "pager.hit_rate", unit: "ratio", better: "higher"},
	{name: "pager.evictions", unit: "count", better: "lower"},
	{name: "pager.resident_bytes", unit: "B", better: "lower"},
	{name: "wire.get_codec_ns", unit: "ns", better: "lower"},
	{name: "wire.set_codec_ns", unit: "ns", better: "lower"},
	{name: "wire.batch32_codec_ns", unit: "ns", better: "lower"},
	{name: "server.get_ns", unit: "ns", better: "lower"},
	{name: "server.batch32_ns", unit: "ns", better: "lower"},
	{name: "server.scan50_ns", unit: "ns", better: "lower"},
	{name: "hotclient.get_rtt_ns", unit: "ns", better: "lower"},
	{name: "hotclient.get_p50_us", unit: "us", better: "lower"},
	{name: "hotclient.getpipe_ns_per_key", unit: "ns", better: "lower"},
	{name: "hotclient.transport_self_ns", unit: "ns", better: "lower"},
	{name: "ladder.network_tax", unit: "ratio", better: "lower"},
	{name: "art.get_kops", unit: "kops/s", better: "higher"},
	{name: "art.insert_kops", unit: "kops/s", better: "higher"},
	{name: "btree.get_kops", unit: "kops/s", better: "higher"},
	{name: "masstree.get_kops", unit: "kops/s", better: "higher"},
	{name: "runtime.gc_cycles", unit: "count", better: "lower"},
	{name: "runtime.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "runtime.heap_bytes_per_key", unit: "B/key", better: "lower"},
	{name: "calib.kops", unit: "kops/s", better: "higher"},
	{name: "calib.cv", unit: "ratio", better: "lower"},
	{name: "raw.insert_kops", unit: "kops/s", better: "higher"},
	{name: "raw.get_kops", unit: "kops/s", better: "higher"},
	{name: "raw.getbatch_kops", unit: "kops/s", better: "higher"},
	{name: "raw.scan_kops", unit: "kscans/s", better: "higher"},
	{name: "raw.mixed_kops", unit: "kops/s", better: "higher"},
	{name: "raw.get_p50_us", unit: "us", better: "lower"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
	{name: "trace.harness_self_pct", unit: "%", better: "lower"},
	{name: "trace.spans", unit: "count", better: "higher"},
}

const (
	ladderOps    = 100000 // length of the sampled op sequence
	ladderSlices = 10
)

var sink uint64 // keeps rung results alive

// perOp runs fn(0..n) in ladderSlices equal slices and returns the median
// slice's ns per call.
func perOp(n int, fn func(i int)) float64 {
	slices := min(ladderSlices, n)
	per := n / slices
	xs := make([]float64, 0, slices)
	for s := 0; s < slices; s++ {
		t0 := time.Now()
		for i := s * per; i < (s+1)*per; i++ {
			fn(i)
		}
		xs = append(xs, float64(time.Since(t0).Nanoseconds())/float64(per))
	}
	return median(xs)
}

func mallocs() (uint64, uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// coreTrie is the method set core.Trie and core.ConcurrentTrie share.
type coreTrie interface {
	Insert(k []byte, tid core.TID) bool
	Upsert(k []byte, tid core.TID) (core.TID, bool)
	Lookup(k []byte) (core.TID, bool)
	LookupBatch(keys [][]byte, out []core.TID) []bool
	Scan(start []byte, max int, fn func(core.TID) bool) int
	Depths() core.DepthStats
	Memory() core.MemoryStats
	OpStats() core.OpStats
	Height() int
}

type ladder struct {
	o     *options
	ks    *keyset
	dir   string
	ops   []uint32 // the sampled op sequence: key indices
	st    *tidstore.Store
	m     metricSet
	bad   int
	calls int
}

func (l *ladder) set(name string, v float64) {
	for _, d := range perLayer {
		if d.name == name {
			l.m.set(name, v, d.unit)
			return
		}
	}
	panic("ladder: metric " + name + " is not in the per-layer table")
}

// expect counts one checked answer.
func (l *ladder) expect(ok bool) {
	l.calls++
	if !ok {
		l.bad++
	}
}

func runLadder(o *options, ks *keyset, dir string, layer metricSet, res *result) error {
	l := &ladder{o: o, ks: ks, dir: filepath.Join(dir, "ladder"), m: layer, st: &tidstore.Store{}}
	if err := os.MkdirAll(l.dir, 0o755); err != nil {
		return err
	}
	for _, k := range ks.keys {
		l.st.Add(k)
	}
	st := phaseStream(o.w, "ladder", o.seed, len(ks.keys), nil)
	l.ops = make([]uint32, int(ladderOps*o.scale))
	st.fill(l.ops)

	l.substrate()
	l.core()
	for _, rung := range []func() error{l.hot, l.durable, l.cold, l.persist, l.wire, l.server} {
		if err := rung(); err != nil {
			return err
		}
	}
	l.baselines()

	res.Attempted += l.calls
	res.Failed += l.bad
	get := func(n string) float64 { return layer[n].Value }
	stages := []string{"core.lookup_ns", "hot.lookup_ns", "server.get_ns", "hotclient.get_rtt_ns"}
	res.Ladder = append(res.Ladder, fmt.Sprintf("# read ladder, one GET over %d keys: stage, ns, self ns (minus the stage below)", len(ks.keys)))
	below := 0.0
	for _, s := range stages {
		res.Ladder = append(res.Ladder, fmt.Sprintf("# %-22s %9.0f %9.0f", s, get(s), get(s)-below))
		below = get(s)
	}
	res.Ladder = append(res.Ladder, fmt.Sprintf("# network tax hotclient.get_rtt_ns / hot.lookup_ns = %.1fx; transport self %.0f ns of the round trip",
		get("ladder.network_tax"), get("hotclient.transport_self_ns")))
	return nil
}

// substrate: key resolution, routing, the submission ring.
func (l *ladder) substrate() {
	keys := l.ks.keys
	l.set("tidstore.key_ns", perOp(len(l.ops), func(i int) {
		tid := l.ops[i]
		sink += uint64(key.Compare(l.st.Key(uint64(tid), nil), keys[tid]))
	}))
	bounds := shard.Boundaries(shardCount, l.ks.boundarySample())
	l.set("shard.find_ns", perOp(len(l.ops), func(i int) { sink += uint64(shard.Find(bounds, keys[l.ops[i]])) }))
	q := shard.NewQueue(1024)
	l.set("shard.queue_pushpop_ns", perOp(len(l.ops), func(i int) {
		q.TryPush(shard.Op{Key: keys[l.ops[i]], TID: uint64(l.ops[i]), Kind: shard.OpUpsert})
		op, _ := q.TryPop()
		sink += op.TID
	}))
}

// core: the tries the workload's index is made of, alone. embed-int is
// one single-threaded trie; the sharded workloads are eight ROWEX tries,
// and the rung picks each key's trie from a table made beforehand, so it
// holds the trie work of the rung above without its routing.
func (l *ladder) core() {
	keys, n := l.ks.keys, len(l.ks.keys)
	var tries []coreTrie
	home := make([]uint8, n) // home[tid]: the trie that owns keys[tid]
	if l.o.w.name == "embed-int" {
		tries = []coreTrie{core.New(core.Loader(l.st.Key))}
	} else {
		bounds := shard.Boundaries(shardCount, l.ks.boundarySample())
		for i := 0; i <= len(bounds); i++ {
			tries = append(tries, core.NewConcurrent(core.Loader(l.st.Key)))
		}
		for i, k := range keys {
			home[i] = uint8(shard.Find(bounds, k))
		}
	}
	m0, b0 := mallocs()
	l.set("core.insert_ns", perOp(n, func(i int) { l.expect(tries[home[i]].Insert(keys[i], core.TID(i))) }))
	m1, b1 := mallocs()
	l.set("core.allocs_per_insert", float64(m1-m0)/float64(n))
	l.set("core.bytes_per_insert", float64(b1-b0)/float64(n))

	lookups := func(part []uint32) {
		for _, k := range part {
			tid, ok := tries[home[k]].Lookup(keys[k])
			l.expect(ok && tid == core.TID(k))
		}
	}
	m0, _ = mallocs()
	l.set("core.lookup_ns", perOp(len(l.ops), func(i int) { lookups(l.ops[i : i+1]) }))
	m1, _ = mallocs()
	l.set("core.allocs_per_get", float64(m1-m0)/float64(len(l.ops)))

	// A batch goes to the trie of its first key, with the keys that trie
	// owns: batches are per shard under the sharded index too.
	bk, bt, bi := make([][]byte, 0, batchSize), make([]core.TID, batchSize), make([]uint32, 0, batchSize)
	batched := 0
	ns := perOp(len(l.ops)/batchSize, func(i int) {
		group := l.ops[i*batchSize : (i+1)*batchSize]
		bk, bi = bk[:0], bi[:0]
		for _, k := range group {
			if home[k] == home[group[0]] {
				bk, bi = append(bk, keys[k]), append(bi, k)
			}
		}
		found := tries[home[group[0]]].LookupBatch(bk, bt)
		for j, k := range bi {
			l.expect(found[j] && bt[j] == core.TID(k))
		}
		batched += len(bi)
	})
	l.set("core.lookupbatch_ns_per_key", ns*float64(len(l.ops)/batchSize)/float64(batched))
	l.set("core.upsert_ns", perOp(len(l.ops), func(i int) {
		k := l.ops[i]
		old, replaced := tries[home[k]].Upsert(keys[k], core.TID(k))
		l.expect(replaced && old == core.TID(k))
	}))
	// A scan stays in its start key's trie, so it may end early at the
	// trie's last key: what it returns must be a prefix of the right answer.
	l.set("core.scan50_ns", perOp(len(l.ops)/10, func(i int) {
		k := l.ops[i]
		want := l.ks.wantScan(k)
		got, ok := 0, true
		tries[home[k]].Scan(keys[k], scanLen, func(tid core.TID) bool {
			ok = ok && got < len(want) && tid == core.TID(want[got])
			got++
			return true
		})
		l.expect(ok && got > 0)
	}))
	var depths core.DepthStats
	var cases core.OpStats
	height, paper := 0, 0
	for _, t := range tries {
		depths = depths.Merge(t.Depths())
		height = max(height, t.Height())
		paper += t.Memory().PaperBytes
		c := t.OpStats()
		cases.Normal += c.Normal
		cases.Pushdown += c.Pushdown
		cases.PullUp += c.PullUp
		cases.Intermediate += c.Intermediate
		cases.NewRoot += c.NewRoot
	}
	l.set("core.leaf_depth_mean", depths.Mean)
	l.set("core.height", float64(height))
	l.set("core.paper_bytes_per_key", float64(paper)/float64(n))
	total := float64(cases.Normal + cases.Pushdown + cases.PullUp + cases.Intermediate + cases.NewRoot)
	l.set("core.case_normal_frac", float64(cases.Normal)/total)
	l.set("core.case_pushdown_frac", float64(cases.Pushdown)/total)
	l.set("core.case_pullup_frac", float64(cases.PullUp)/total)
	l.set("core.case_intermediate_frac", float64(cases.Intermediate)/total)

	// ART over all the keys, on the same ops, slice by slice beside the
	// tries, so host drift cancels out of the ratio.
	a := art.New(art.Loader(l.st.Key))
	l.set("art.insert_kops", 1e6/perOp(n, func(i int) { l.expect(a.Insert(keys[i], art.TID(i))) }))
	per := len(l.ops) / ladderSlices
	var ratios, artNs []float64
	for s := 0; s < ladderSlices; s++ {
		part := l.ops[s*per : (s+1)*per]
		t0 := time.Now()
		lookups(part)
		hotD := time.Since(t0)
		t0 = time.Now()
		for _, k := range part {
			tid, ok := a.Lookup(keys[k])
			l.expect(ok && tid == art.TID(k))
		}
		artD := time.Since(t0)
		ratios = append(ratios, artD.Seconds()/hotD.Seconds())
		artNs = append(artNs, float64(artD.Nanoseconds())/float64(per))
	}
	l.set("core.get_vs_art", median(ratios))
	l.set("art.get_kops", 1e6/median(artNs))
}

// workloadIndex builds the index type the workload itself uses.
func (l *ladder) workloadIndex() hot.Index {
	if l.o.w.name == "embed-int" {
		return hot.New(l.st.Key)
	}
	return hot.NewShardedTree(l.st.Key, shardCount, l.ks.boundarySample())
}

func (l *ladder) loadIndex(idx hot.Index) {
	for i, k := range l.ks.keys {
		l.expect(idx.Insert(k, hot.TID(i)))
	}
}

func (l *ladder) lookupNs(idx hot.Index) float64 {
	return perOp(len(l.ops), func(i int) {
		tid, ok := idx.Lookup(l.ks.keys[l.ops[i]])
		l.expect(ok && tid == hot.TID(l.ops[i]))
	})
}

func (l *ladder) upsertNs(idx hot.Index, n int) float64 {
	return perOp(min(n, len(l.ops)), func(i int) {
		old, replaced := idx.Upsert(l.ks.keys[l.ops[i]], hot.TID(l.ops[i]))
		l.expect(replaced && old == hot.TID(l.ops[i]))
	})
}

// hot: the public index over the trie (shard routing and the ROWEX
// surface on the sharded workloads).
func (l *ladder) hot() error {
	idx := l.workloadIndex()
	l.loadIndex(idx)
	l.set("hot.lookup_ns", l.lookupNs(idx))
	l.set("hot.upsert_ns", l.upsertNs(idx, len(l.ops)))
	return nil
}

// durable: the sharded tree with its write-ahead logs. The directory is
// seeded with a snapshot of an in-memory tree, because a durable load is
// one fsync per key from a single caller.
func (l *ladder) durable() error {
	dir := filepath.Join(l.dir, "durable")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	seed := hot.NewShardedTree(l.st.Key, shardCount, l.ks.boundarySample())
	l.loadIndex(seed)
	if err := seed.SnapshotFile(filepath.Join(dir, "snap.hot")); err != nil {
		return err
	}
	t, _, err := hot.OpenDurableShardedTree(dir, l.st.Key, shardCount, nil, hot.DurableOptions{})
	if err != nil {
		return err
	}
	l.expect(t.Len() == len(l.ks.keys))
	const puts = 2000
	l.set("hot.durable_upsert_ns", l.upsertNs(t, puts))
	var ckpts []float64
	for i := 0; i < 3; i++ {
		l.upsertNs(t, puts/10)
		t0 := time.Now()
		if err := t.Checkpoint(); err != nil {
			return err
		}
		ckpts = append(ckpts, time.Since(t0).Seconds()*1e3)
	}
	l.set("hot.checkpoint_ms", median(ckpts))
	l.upsertNs(t, puts)
	if err := t.Close(); err != nil {
		return err
	}
	t0 := time.Now()
	t, info, err := hot.OpenDurableShardedTree(dir, l.st.Key, shardCount, nil, hot.DurableOptions{})
	if err != nil {
		return err
	}
	l.set("hot.recover_ms", time.Since(t0).Seconds()*1e3)
	l.set("hot.recover_snapshot_entries", float64(info.SnapshotEntries))
	l.set("hot.recover_wal_records", float64(info.WALRecords))
	l.expect(t.Len() == len(l.ks.keys) && t.Verify() == nil)
	return t.Close()
}

// cold: every shard demoted to a packed section, read through a page cache
// holding about half of the decoded pages.
func (l *ladder) cold() error {
	t := hot.NewShardedTree(l.st.Key, shardCount, l.ks.boundarySample())
	t.SetSnapshotCodec(hot.SnapshotCodecPacked)
	l.loadIndex(t)
	raw := 0
	for _, k := range l.ks.keys {
		raw += len(k) + 12
	}
	if err := t.EnableColdTier(hot.ColdTierConfig{Dir: filepath.Join(l.dir, "cold"), CacheBytes: int64(raw / 2)}); err != nil {
		return err
	}
	var demotes, promotes []float64
	for s := 0; s < shardCount; s++ {
		t0 := time.Now()
		if err := t.Demote(s); err != nil {
			return err
		}
		demotes = append(demotes, time.Since(t0).Seconds()*1e3)
	}
	l.set("hot.demote_ms", median(demotes))
	l.set("hot.cold_lookup_ns", l.lookupNs(t))
	cs := t.ColdStats()
	l.set("pager.hit_rate", cs.HitRate())
	l.set("pager.evictions", float64(cs.CacheEvictions))
	l.set("pager.resident_bytes", float64(cs.CacheBytes))
	for s := 0; s < shardCount; s++ {
		t0 := time.Now()
		if err := t.Promote(s); err != nil {
			return err
		}
		promotes = append(promotes, time.Since(t0).Seconds()*1e3)
	}
	l.set("hot.promote_ms", median(promotes))
	l.expect(t.Verify() == nil && t.Len() == len(l.ks.keys))
	return nil
}

// persist: the log, the snapshot writer and readers, the block codecs, and
// the page cache over them.
func (l *ladder) persist() error {
	keys, n := l.ks.keys, len(l.ks.keys)
	walPath := filepath.Join(l.dir, "rung.wal")
	w, err := persist.CreateWAL(walPath, 0, 0)
	if err != nil {
		return err
	}
	// Appends are timed in groups of 64, the server's drain slice; the
	// commit between groups is not.
	const group = 64
	var lsn uint64
	var appendNs []float64
	size0 := w.Size()
	for lo := 0; lo+group <= len(l.ops); lo += group {
		t0 := time.Now()
		for _, k := range l.ops[lo : lo+group] {
			lsn, err = w.Append(persist.WalUpsert, keys[k], uint64(k))
			l.expect(err == nil)
		}
		appendNs = append(appendNs, float64(time.Since(t0).Nanoseconds())/group)
		if err := w.Commit(lsn); err != nil {
			return err
		}
	}
	appended := len(appendNs) * group
	l.set("persist.wal_append_ns", median(appendNs))
	l.set("persist.wal_bytes_per_put", float64(w.Size()-size0)/float64(appended))
	commits := min(1000, len(l.ops))
	l.set("persist.wal_commit_ns", perOp(commits, func(i int) {
		lsn, _ = w.Append(persist.WalUpsert, keys[l.ops[i]], uint64(l.ops[i]))
		l.expect(w.Commit(lsn) == nil)
	}))
	if err := w.Close(); err != nil {
		return err
	}
	recs := 0
	t0 := time.Now()
	if _, err := persist.ReplayWALFile(walPath, func(op persist.WalOp, k []byte, tid uint64) error {
		recs++
		return nil
	}); err != nil {
		return err
	}
	l.set("persist.replay_ns_per_rec", float64(time.Since(t0).Nanoseconds())/float64(recs))
	l.expect(recs == appended+commits)

	paths := map[persist.Codec]string{persist.CodecRaw: filepath.Join(l.dir, "raw.hot"), persist.CodecPacked: filepath.Join(l.dir, "packed.hot")}
	for codec, path := range paths {
		t0 := time.Now()
		err := persist.SaveIndexedFile(path, persist.KindTree, func(sw *persist.Writer) error {
			sw.SetCodec(codec)
			for _, tid := range l.ks.order {
				if err := sw.WriteEntry(keys[tid], uint64(tid)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		if codec == persist.CodecRaw {
			l.set("persist.save_ns_per_key", float64(time.Since(t0).Nanoseconds())/float64(n))
		}
	}
	t0 = time.Now()
	got, err := persist.ReadFile(paths[persist.CodecRaw], persist.KindTree, func(k []byte, tid uint64) error { return nil })
	if err != nil {
		return err
	}
	l.set("persist.load_ns_per_key", float64(time.Since(t0).Nanoseconds())/float64(n))
	l.expect(int(got) == n)

	var pages []*persist.Page
	var packed *persist.PageReader
	for _, codec := range []persist.Codec{persist.CodecRaw, persist.CodecPacked} {
		pr, err := persist.OpenPageReaderFile(paths[codec], persist.KindTree)
		if err != nil {
			return err
		}
		defer pr.Close()
		name := "persist.readblock_raw_ns"
		if codec == persist.CodecPacked {
			name, packed = "persist.readblock_packed_ns", pr
		}
		pages = pages[:0]
		l.set(name, perOp(10*pr.Blocks(), func(i int) {
			p, err := pr.ReadBlock(i % pr.Blocks())
			l.expect(err == nil)
			if i < pr.Blocks() {
				pages = append(pages, p)
			}
		}))
	}
	l.set("persist.page_find_ns", perOp(len(l.ops), func(i int) {
		k := keys[l.ops[i]]
		p := pages[packed.FindBlock(k)]
		j, ok := p.Find(k)
		l.expect(ok && p.TID(j) == uint64(l.ops[i]))
	}))

	resident := pager.New(1 << 40)
	load := func(b int) func() (*persist.Page, error) {
		return func() (*persist.Page, error) { return packed.ReadBlock(b) }
	}
	for b := range pages {
		resident.Get(pager.Key{Block: b}, load(b))
	}
	l.set("pager.hit_ns", perOp(len(l.ops), func(i int) {
		b := i % len(pages)
		p, err := resident.Get(pager.Key{Block: b}, load(b))
		l.expect(err == nil && p != nil)
	}))
	// A one-byte budget keeps a single page, so walking the blocks in
	// order misses every time.
	thrash := pager.New(1)
	l.set("pager.miss_ns", perOp(10*len(pages), func(i int) {
		b := i % len(pages)
		p, err := thrash.Get(pager.Key{Block: b}, load(b))
		l.expect(err == nil && p != nil)
	}))
	return nil
}

// wire: request and reply encoding and parsing of one GET, one SET and one
// BATCH of batchSize, through a memory buffer.
func (l *ladder) wire() error {
	keys := l.ks.keys
	var buf bytes.Buffer
	var rbuf, wbuf []byte
	frame := func(op byte, body []byte) (byte, []byte) {
		buf.Reset()
		l.expect(wire.WriteFrame(&buf, op, body) == nil)
		rop, rbody, err := wire.ReadFrame(&buf, rbuf)
		l.expect(err == nil)
		rbuf = rbody
		return rop, rbody
	}
	l.set("wire.get_codec_ns", perOp(len(l.ops), func(i int) {
		k := l.ops[i]
		_, body := frame(wire.OpGet, keys[k])
		l.expect(bytes.Equal(body, keys[k]))
		wbuf = wire.AppendUint64(wbuf[:0], uint64(k))
		_, body = frame(wire.RepValue, wbuf)
		tid, _, ok := wire.Uint64(body)
		l.expect(ok && tid == uint64(k))
	}))
	l.set("wire.set_codec_ns", perOp(len(l.ops), func(i int) {
		k := l.ops[i]
		wbuf = wire.AppendKeyTID(wbuf[:0], keys[k], uint64(k))
		_, body := frame(wire.OpSet, wbuf)
		gk, tid, ok := wire.KeyTID(body)
		l.expect(ok && tid == uint64(k) && bytes.Equal(gk, keys[k]))
	}))
	bk := make([][]byte, batchSize)
	l.set("wire.batch32_codec_ns", perOp(len(l.ops)/batchSize, func(i int) {
		group := l.ops[i*batchSize : (i+1)*batchSize]
		for j, k := range group {
			bk[j] = keys[k]
		}
		wbuf = wire.AppendBatchKeys(wbuf[:0], bk)
		_, body := frame(wire.OpBatch, wbuf)
		got, ok := wire.BatchKeys(body)
		l.expect(ok && len(got) == batchSize)
		wbuf = wire.AppendUint32(wbuf[:0], batchSize)
		for _, k := range group {
			wbuf = wire.AppendUint64(append(wbuf, 1), uint64(k))
		}
		_, body = frame(wire.RepBatch, wbuf)
		l.expect(len(body) == 4+9*batchSize)
	}))
	return nil
}

// memConn feeds ServeConn a pre-filled request stream and keeps or drops
// the replies.
type memConn struct {
	io.Reader
	io.Writer
}

// server: ServeConn over in-memory request streams (no socket), then the
// same server over loopback through hotclient.
func (l *ladder) server() error {
	keys := l.ks.keys
	sv, err := openServed("", l.ks) // in memory: no Dir
	if err != nil {
		return err
	}
	defer sv.close()
	all := make([]uint32, len(keys))
	for i := range all {
		all[i] = uint32(i)
	}
	l.calls += len(all)
	l.bad += sv.insert(&slice{idx: all})

	// serveNs times ServeConn over ladderSlices request streams of per
	// frames each; the first stream's replies are kept and counted.
	serveNs := func(per int, op byte, body func(i int) []byte, reply byte) float64 {
		var xs []float64
		for s := 0; s < ladderSlices; s++ {
			var req bytes.Buffer
			for i := s * per; i < (s+1)*per; i++ {
				wire.WriteFrame(&req, op, body(i))
			}
			var out io.Writer = io.Discard
			var kept bytes.Buffer
			if s == 0 {
				out = &kept
			}
			t0 := time.Now()
			sv.srv.ServeConn(memConn{&req, out})
			xs = append(xs, float64(time.Since(t0).Nanoseconds())/float64(per))
			if s == 0 {
				replies := 0
				for {
					rop, _, err := wire.ReadFrame(&kept, nil)
					if err != nil {
						break
					}
					if rop == reply {
						replies++
					}
				}
				l.expect(replies == per)
			}
		}
		return median(xs)
	}
	var wbuf []byte
	bk := make([][]byte, batchSize)
	l.set("server.get_ns", serveNs(len(l.ops)/ladderSlices, wire.OpGet, func(i int) []byte { return keys[l.ops[i]] }, wire.RepValue))
	l.set("server.batch32_ns", serveNs(len(l.ops)/batchSize/ladderSlices, wire.OpBatch, func(i int) []byte {
		for j, k := range l.ops[i*batchSize : (i+1)*batchSize] {
			bk[j] = keys[k]
		}
		wbuf = wire.AppendBatchKeys(wbuf[:0], bk)
		return wbuf
	}, wire.RepBatch))
	l.set("server.scan50_ns", serveNs(len(l.ops)/10/ladderSlices, wire.OpScan, func(i int) []byte {
		wbuf = wire.AppendScan(wbuf[:0], keys[l.ops[i]], scanLen)
		return wbuf
	}, wire.RepEntries))

	// Loopback: the same GETs through hotclient and the kernel.
	per := len(l.ops) / 2 / ladderSlices
	var rtts, p50s, pipes []float64
	lat := make([]int64, per)
	for s := 0; s < ladderSlices; s++ {
		part := &slice{idx: l.ops[s*per : (s+1)*per], lat: lat}
		t0 := time.Now()
		l.bad += sv.get(part)
		rtts = append(rtts, float64(time.Since(t0).Nanoseconds())/float64(per))
		sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
		p50, _ := percentile(lat, 0.50)
		p50s = append(p50s, float64(p50)/1e3)
		part.lat = nil
		t0 = time.Now()
		l.bad += sv.getPipe(part)
		pipes = append(pipes, float64(time.Since(t0).Nanoseconds())/float64(per))
		l.calls += 2 * per
	}
	rtt := median(rtts)
	l.set("hotclient.get_rtt_ns", rtt)
	l.set("hotclient.get_p50_us", median(p50s))
	l.set("hotclient.getpipe_ns_per_key", median(pipes))
	l.set("hotclient.transport_self_ns", rtt-l.m["server.get_ns"].Value-l.m["wire.get_codec_ns"].Value)
	l.set("ladder.network_tax", rtt/l.m["hot.lookup_ns"].Value)
	return nil
}

// baselines: the paper's competitors on the same keys and ops (ART is
// measured beside the trie in core).
func (l *ladder) baselines() {
	keys := l.ks.keys
	bt := btree.New(btree.Loader(l.st.Key))
	mt := masstree.New()
	for i, k := range keys {
		l.expect(bt.Insert(k, btree.TID(i)))
		l.expect(mt.Insert(k, masstree.TID(i)))
	}
	l.set("btree.get_kops", 1e6/perOp(len(l.ops), func(i int) {
		tid, ok := bt.Lookup(keys[l.ops[i]])
		l.expect(ok && tid == btree.TID(l.ops[i]))
	}))
	l.set("masstree.get_kops", 1e6/perOp(len(l.ops), func(i int) {
		tid, ok := mt.Lookup(keys[l.ops[i]])
		l.expect(ok && tid == masstree.TID(l.ops[i]))
	}))
}
