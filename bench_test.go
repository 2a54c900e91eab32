package hot

// This file is the benchmark harness for the paper's evaluation section:
// one benchmark family per figure, plus ablations of the design choices
// DESIGN.md calls out. cmd/hot-exp runs the same experiments at arbitrary
// scale with tabular output; these benchmarks are the go-test-native
// entry points:
//
//	Figure 8  — BenchmarkFig8Lookup / Fig8Scan / Fig8Insert
//	            (workload C, workload E, load phase; per data set & index)
//	Appendix A — BenchmarkAppendixA (all six YCSB mixes, uniform & zipfian)
//	Figure 9  — BenchmarkFig9Memory (bytes/key reported as a metric)
//	Figure 10 — BenchmarkFig10Scalability (RunParallel over the
//	            synchronized variants)
//	Figure 11 — BenchmarkFig11Depth (mean/max leaf depth as metrics)
//
// Benchmark sizes are laptop-scale (the paper uses 50M keys / 100M ops);
// EXPERIMENTS.md records a paper-vs-measured comparison.

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/hotindex/hot/internal/art"
	"github.com/hotindex/hot/internal/bench"
	"github.com/hotindex/hot/internal/chaos"
	"github.com/hotindex/hot/internal/core"
	"github.com/hotindex/hot/internal/dataset"
	"github.com/hotindex/hot/internal/masstree"
	"github.com/hotindex/hot/internal/patricia"
	"github.com/hotindex/hot/internal/striped"
	"github.com/hotindex/hot/internal/tidstore"
	"github.com/hotindex/hot/internal/ycsb"
)

const (
	benchKeys = 300_000
	benchSeed = 2018
)

var dataCache = map[dataset.Kind]*bench.Data{}

func benchData(b *testing.B, kind dataset.Kind) *bench.Data {
	b.Helper()
	d, ok := dataCache[kind]
	if !ok {
		d = bench.Load(kind, benchKeys, benchKeys/10, benchSeed)
		dataCache[kind] = d
	}
	return d
}

// loadedInstance builds the named index pre-loaded with the data set.
func loadedInstance(b *testing.B, name string, d *bench.Data) bench.Instance {
	b.Helper()
	inst, err := bench.New(name, d.Store)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < benchKeys; i++ {
		if !inst.Idx.Insert(d.Keys[i], d.TIDs[i]) {
			b.Fatalf("load insert %d failed", i)
		}
	}
	return inst
}

func forEachConfig(b *testing.B, fn func(b *testing.B, kind dataset.Kind, index string)) {
	for _, kind := range dataset.Kinds() {
		for _, index := range bench.Names() {
			b.Run(fmt.Sprintf("%s/%s", kind, index), func(b *testing.B) {
				fn(b, kind, index)
			})
		}
	}
}

// BenchmarkFig8Lookup is workload C (100% lookup, uniform): Figure 8, top.
func BenchmarkFig8Lookup(b *testing.B) {
	forEachConfig(b, func(b *testing.B, kind dataset.Kind, index string) {
		d := benchData(b, kind)
		inst := loadedInstance(b, index, d)
		rng := rand.New(rand.NewSource(benchSeed))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := d.Keys[rng.Intn(benchKeys)]
			if _, ok := inst.Idx.Lookup(k); !ok {
				b.Fatal("lookup missed")
			}
		}
	})
}

// BenchmarkFig8LookupBatch is workload C issued through the batched
// memory-level-parallel lookup path (HOT only — the baseline indexes have
// no batch API). Compare against BenchmarkFig8Lookup's hot rows: like
// them, the probes range over all the loaded keys (each once per cycle, in
// one random order), so probe keys and tuples miss the cache as they do
// there.
func BenchmarkFig8LookupBatch(b *testing.B) {
	const lanes = 32
	for _, kind := range dataset.Kinds() {
		b.Run(fmt.Sprintf("%s/hot", kind), func(b *testing.B) {
			d := benchData(b, kind)
			inst := loadedInstance(b, "hot", d)
			bi, ok := inst.Idx.(ycsb.BatchIndex)
			if !ok {
				b.Fatal("hot index lost its batch API")
			}
			probes := make([][]byte, benchKeys)
			for i, j := range rand.New(rand.NewSource(benchSeed)).Perm(benchKeys) {
				probes[i] = d.Keys[j]
			}
			out := make([]uint64, lanes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += lanes {
				base := i % (len(probes) - lanes)
				found := bi.LookupBatch(probes[base:base+lanes], out)
				for _, okk := range found {
					if !okk {
						b.Fatal("lookup missed")
					}
				}
			}
		})
	}
}

// BenchmarkFig8Scan is workload E's scan component (range scans of up to
// 100 entries from a uniform start key): Figure 8, middle.
func BenchmarkFig8Scan(b *testing.B) {
	forEachConfig(b, func(b *testing.B, kind dataset.Kind, index string) {
		d := benchData(b, kind)
		inst := loadedInstance(b, index, d)
		rng := rand.New(rand.NewSource(benchSeed))
		sink := uint64(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := d.Keys[rng.Intn(benchKeys)]
			inst.Idx.Scan(k, 1+rng.Intn(100), func(tid uint64) bool {
				sink += tid
				return true
			})
		}
		_ = sink
	})
}

// BenchmarkFig8Insert is the insert-only load phase: Figure 8, bottom.
func BenchmarkFig8Insert(b *testing.B) {
	forEachConfig(b, func(b *testing.B, kind dataset.Kind, index string) {
		d := benchData(b, kind)
		b.ResetTimer()
		for i := 0; i < b.N; {
			b.StopTimer()
			inst, err := bench.New(index, d.Store)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			for j := 0; j < benchKeys && i < b.N; j, i = j+1, i+1 {
				inst.Idx.Insert(d.Keys[j], d.TIDs[j])
			}
		}
	})
}

// BenchmarkAppendixA runs all six YCSB core workloads in their uniform and
// zipfian variants (Appendix A's 48-configuration grid, here over the url
// data set per index; use cmd/hot-exp ycsb -all for the full grid).
func BenchmarkAppendixA(b *testing.B) {
	for _, w := range ycsb.Core() {
		for _, dist := range []ycsb.Distribution{ycsb.Uniform, ycsb.Zipfian} {
			for _, index := range bench.Names() {
				b.Run(fmt.Sprintf("%s/%s/%s", w.Name, dist, index), func(b *testing.B) {
					d := benchData(b, dataset.URL)
					inst := loadedInstance(b, index, d)
					r := ycsb.NewRunner(inst.Idx, d.Keys, d.TIDs, benchKeys, benchSeed)
					b.ResetTimer()
					res := r.Run(w, dist, b.N)
					if res.NotFound != 0 {
						b.Fatalf("%d lookups missed", res.NotFound)
					}
				})
			}
		}
	}
}

// BenchmarkFig9Memory loads each index with each data set and reports
// bytes/key (the figure's y-axis, scaled) as a benchmark metric.
func BenchmarkFig9Memory(b *testing.B) {
	forEachConfig(b, func(b *testing.B, kind dataset.Kind, index string) {
		d := benchData(b, kind)
		var bytesPerKey float64
		for i := 0; i < b.N; i++ {
			inst := loadedInstance(b, index, d)
			bytesPerKey = float64(inst.PaperBytes()) / float64(benchKeys)
		}
		b.ReportMetric(bytesPerKey, "bytes/key")
		b.ReportMetric(float64(dataset.RawBytes(d.Keys[:benchKeys]))/float64(benchKeys), "rawkey-bytes/key")
	})
}

// BenchmarkFig10Scalability exercises the synchronized variants with
// RunParallel (GOMAXPROCS controls the thread count, mirroring the
// figure's x-axis): HOT-ROWEX plus the striped baselines.
func BenchmarkFig10Scalability(b *testing.B) {
	d := benchData(b, dataset.URL)
	builders := map[string]func() ycsbLookupInsert{
		"hot": func() ycsbLookupInsert { return core.NewConcurrent(d.Store.Key) },
		"art": func() ycsbLookupInsert {
			return striped.New(64, func() striped.Index { return art.New(d.Store.Key) })
		},
		"masstree": func() ycsbLookupInsert {
			return striped.New(64, func() striped.Index { return masstree.New() })
		},
	}
	for _, name := range []string{"hot", "art", "masstree"} {
		mk := builders[name]
		b.Run("insert/"+name, func(b *testing.B) {
			idx := mk()
			var ctr int64
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					// Goroutines claim keys through a shared counter.
					i := int(atomic.AddInt64(&ctr, 1)) % len(d.Keys)
					idx.Insert(d.Keys[i], d.TIDs[i])
				}
			})
		})
		b.Run("lookup/"+name, func(b *testing.B) {
			idx := mk()
			for i := 0; i < benchKeys; i++ {
				idx.Insert(d.Keys[i], d.TIDs[i])
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(benchSeed))
				for pb.Next() {
					idx.Lookup(d.Keys[rng.Intn(benchKeys)])
				}
			})
		})
	}
}

type ycsbLookupInsert interface {
	Insert(k []byte, tid uint64) bool
	Lookup(k []byte) (uint64, bool)
}

// BenchmarkFig11Depth reports the leaf depth distributions of HOT, ART and
// the binary Patricia trie (the figure's three structures) as metrics.
func BenchmarkFig11Depth(b *testing.B) {
	for _, kind := range dataset.Kinds() {
		b.Run(kind.String(), func(b *testing.B) {
			d := benchData(b, kind)
			for i := 0; i < b.N; i++ {
				hotT := core.New(d.Store.Key)
				artT := art.New(d.Store.Key)
				binT := patricia.New(d.Store.Key)
				for j := 0; j < benchKeys; j++ {
					hotT.Insert(d.Keys[j], d.TIDs[j])
					artT.Insert(d.Keys[j], d.TIDs[j])
					binT.Insert(d.Keys[j], d.TIDs[j])
				}
				if i == 0 {
					b.ReportMetric(hotT.Depths().Mean, "hot-mean-depth")
					b.ReportMetric(artT.Depths().Mean, "art-mean-depth")
					b.ReportMetric(binT.Depths().Mean, "bin-mean-depth")
					b.ReportMetric(float64(hotT.Depths().Max), "hot-max-depth")
				}
			}
		})
	}
}

// --- Ablations (design choices of Section 4) ---

// BenchmarkAblationNodeLayouts measures lookup throughput per data set with
// the layout census reported, showing the adaptive layouts at work.
func BenchmarkAblationNodeLayouts(b *testing.B) {
	for _, kind := range dataset.Kinds() {
		b.Run(kind.String(), func(b *testing.B) {
			d := benchData(b, kind)
			tr := core.New(d.Store.Key)
			for i := 0; i < benchKeys; i++ {
				tr.Insert(d.Keys[i], d.TIDs[i])
			}
			m := tr.Memory()
			single := m.Layouts[0] + m.Layouts[1] + m.Layouts[2]
			b.ReportMetric(float64(single)/float64(m.Nodes)*100, "single-mask-%")
			b.ReportMetric(m.AvgFanout(), "avg-fanout")
			rng := rand.New(rand.NewSource(benchSeed))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.Lookup(d.Keys[rng.Intn(benchKeys)])
			}
		})
	}
}

// BenchmarkDurableAsyncLoad is the durable server's load phase without the
// network: one goroutine InsertAsyncs url keys into an 8-shard durable tree
// and calls Flush every 1 024 — the op benchmark/'s serve-durable insert_kops
// cell pays per ADD, minus wire and socket. Beside ns/op and allocs/op it
// reports fsyncs/op: the wal/sync hits of one further window of writes and
// its Flush, counted after the timed loop because an armed chaos registry
// taxes every injection point on the write path.
func BenchmarkDurableAsyncLoad(b *testing.B) {
	d := benchData(b, dataset.URL)
	const shards, window = 8, 1024
	dir := b.TempDir()
	var tr *ShardedTree
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := i % benchKeys
		if k == 0 { // a fresh store for every pass over the keys
			b.StopTimer()
			if tr != nil {
				if err := tr.Close(); err != nil {
					b.Fatal(err)
				}
			}
			err := os.RemoveAll(dir)
			if err == nil {
				tr, _, err = OpenDurableShardedTree(dir, d.Store.Key, shards, d.Keys[:benchKeys], DurableOptions{})
			}
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		tr.InsertAsync(d.Keys[k], d.TIDs[k])
		if k%window == window-1 {
			tr.Flush()
		}
	}
	tr.Flush()
	b.StopTimer()
	reg := chaos.New(benchSeed)
	reg.Arm()
	for k := 0; k < window; k++ {
		tr.UpsertAsync(d.Keys[k], d.TIDs[k])
	}
	tr.Flush()
	chaos.Disarm()
	b.ReportMetric(float64(reg.Hits(chaos.WalSync))/window, "fsyncs/op")
	if err := tr.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAsyncSkew is the async path at its worst skew: 8 goroutines
// upsert zipf-picked keys out of 100 k integer keys that all route to
// shard 0 of 8, so every writer convoys on one shard's writer lock. mem is
// an in-memory tree; durable is a write-ahead-logged one, whose closing
// Flush (timed) pays the fsyncs the upserts left owed. One op is one
// UpsertAsync of a present key.
func BenchmarkAsyncSkew(b *testing.B) {
	const n, shards, workers = 100_000, 8, 8
	sample := make([]uint64, 256) // a uniform split of the first key byte: every key below 1<<56 is in shard 0
	for i := range sample {
		sample[i] = uint64(i) << 56
	}
	keys := make([][]byte, n)
	for k := range keys {
		keys[k] = u64Key(uint64(k))
	}
	for _, mode := range []string{"mem", "durable"} {
		b.Run(mode, func(b *testing.B) {
			var tr *ShardedTree
			if mode == "mem" {
				tr = NewShardedTree(tidstore.Uint64Key, shards, u64Keys(sample))
			} else {
				var err error
				if tr, _, err = openDurableU64(b.TempDir(), shards, sample, DurableOptions{}); err != nil {
					b.Fatal(err)
				}
			}
			for k, key := range keys {
				if tr.Shard(key) != 0 {
					b.Fatalf("key %d routes to shard %d, want 0", k, tr.Shard(key))
				}
				tr.InsertAsync(key, TID(k))
			}
			tr.Flush()
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng, picker := rand.New(rand.NewSource(benchSeed+int64(w))), ycsb.NewPicker(ycsb.Zipfian, n)
					for i := w; i < b.N; i += workers {
						k := picker.Next(rng)
						tr.UpsertAsync(keys[k], TID(k))
					}
				}(w)
			}
			wg.Wait()
			tr.Flush()
			b.StopTimer()
			if err := tr.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkColdLookup takes a cold read apart: one shard of url keys demoted
// to a packed section, scrambled-zipf point lookups, under three page-cache
// budgets — everything resident (the price of finding a key in a cached
// page), a single page (nearly every lookup faults: fetch, verify and admit
// one block) and, zipf, coldZipfShare of what the resident run held, counted
// in whatever form this commit keeps a page in. hit_rate says what each
// budget bought; cacheB/key what a cached key costs.
func BenchmarkColdLookup(b *testing.B) {
	const coldZipfShare = 0.85 // ≈ 0.9 hit rate under the scrambled-zipf stream
	d := benchData(b, dataset.URL)
	picks := make([]int32, 1<<16)
	rng, picker := rand.New(rand.NewSource(benchSeed)), ycsb.NewPicker(ycsb.Zipfian, benchKeys)
	for i := range picks {
		picks[i] = int32(picker.Next(rng))
	}
	var residentBytes int64
	for _, cfg := range []struct {
		name  string
		cache func() int64
	}{
		{"resident", func() int64 { return 1 << 40 }},
		{"thrash", func() int64 { return 1 }},
		{"zipf", func() int64 { return int64(coldZipfShare * float64(residentBytes)) }},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			if cfg.cache() == 0 {
				b.Skip("sized from the resident run: select it too")
			}
			t := NewShardedTree(d.Store.Key, 1, nil)
			t.SetSnapshotCodec(SnapshotCodecPacked)
			for i := 0; i < benchKeys; i++ {
				t.Insert(d.Keys[i], d.TIDs[i])
			}
			err := t.EnableColdTier(ColdTierConfig{Dir: b.TempDir(), CacheBytes: cfg.cache()})
			if err == nil {
				err = t.Demote(0)
			}
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < benchKeys; i++ { // every page faulted once, then the stream's own warm-up
				t.Lookup(d.Keys[i])
			}
			for _, k := range picks {
				t.Lookup(d.Keys[k])
			}
			before := t.ColdStats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := picks[i%len(picks)]
				if tid, ok := t.Lookup(d.Keys[k]); !ok || tid != d.TIDs[k] {
					b.Fatalf("cold lookup of key %d = (%d, %v)", k, tid, ok)
				}
			}
			b.StopTimer()
			after := t.ColdStats()
			hits, misses := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses
			b.ReportMetric(float64(hits)/float64(hits+misses), "hit_rate")
			b.ReportMetric(float64(after.CacheBytes)/benchKeys, "cacheB/key")
			if cfg.name == "resident" {
				residentBytes = after.CacheBytes
			}
		})
	}
}

// BenchmarkShardedScan is the per-scan cost the end-to-end scan_kops cells
// are made of: a 50-entry TID-only Scan of url keys from a uniform start
// key, with every shard hot or every shard demoted to a packed section
// under a cache that holds them all, on 1 and on 8 shards — a scan's cost
// must not grow with the shards it never reaches. cold-delta gives the
// cold shards inserts, upserts and deletes on 1 % of their keys, so that
// scans meet delta entries, ties and tombstones inside their pages and
// pay the seek that ends a page run at each delta key.
func BenchmarkShardedScan(b *testing.B) {
	d := benchData(b, dataset.URL)
	for _, tier := range []string{"hot", "cold", "cold-delta"} {
		for _, shards := range []int{1, 8} {
			b.Run(fmt.Sprintf("%s/shards=%d", tier, shards), func(b *testing.B) {
				t := NewShardedTree(d.Store.Key, shards, d.Keys[:benchKeys])
				t.SetSnapshotCodec(SnapshotCodecPacked)
				for i := 0; i < benchKeys; i++ {
					t.Insert(d.Keys[i], d.TIDs[i])
				}
				if tier != "hot" {
					if err := t.EnableColdTier(ColdTierConfig{Dir: b.TempDir(), CacheBytes: 1 << 40}); err != nil {
						b.Fatal(err)
					}
					for s := 0; s < t.Shards(); s++ {
						if err := t.Demote(s); err != nil {
							b.Fatal(err)
						}
					}
				}
				if tier == "cold-delta" {
					rng := rand.New(rand.NewSource(benchSeed + 1))
					for j := 0; j < benchKeys/300; j++ { // a third of 1 % each
						t.Insert(d.Keys[benchKeys+j], d.TIDs[benchKeys+j])
						i := rng.Intn(benchKeys)
						t.Upsert(d.Keys[i], d.TIDs[i])
						t.Delete(d.Keys[rng.Intn(benchKeys)])
					}
					for s := 0; s < t.Shards(); s++ {
						if !t.IsCold(s) {
							b.Fatalf("shard %d promoted by its delta writes", s)
						}
					}
				}
				if tier != "hot" {
					t.Scan(nil, math.MaxInt, func(TID) bool { return true }) // every page faulted once
				}
				rng := rand.New(rand.NewSource(benchSeed))
				sink := uint64(0)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					t.Scan(d.Keys[rng.Intn(benchKeys)], 50, func(tid TID) bool {
						sink += tid
						return true
					})
				}
				_ = sink
			})
		}
	}
}

// BenchmarkAblationFanout sweeps the maximum node fanout k (the paper
// fixes k = 32 and motivates the choice in Section 4.1; its future work
// asks about higher fanouts — this sweeps the reachable range downward,
// reporting the height/performance trade-off).
func BenchmarkAblationFanout(b *testing.B) {
	d := benchData(b, dataset.URL)
	for _, k := range []int{4, 8, 16, 32} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			tr := core.NewWithFanout(d.Store.Key, k)
			for i := 0; i < benchKeys; i++ {
				tr.Insert(d.Keys[i], d.TIDs[i])
			}
			b.ReportMetric(tr.Depths().Mean, "mean-depth")
			b.ReportMetric(tr.Memory().BytesPerKey(benchKeys), "bytes/key")
			rng := rand.New(rand.NewSource(benchSeed))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.Lookup(d.Keys[rng.Intn(benchKeys)])
			}
		})
	}
}

// BenchmarkAblationROWEXOverhead compares single-threaded insert+lookup
// throughput of the unsynchronized trie against the ROWEX trie on one
// thread, isolating the synchronization cost (locks, epoch guards,
// copy-on-write without node recycling). The insert/exclusive row is the
// same ConcurrentTrie written through its exclusive Writer — the path a
// ShardedTree shard takes — so the three insert rows price the latch and
// the recycling separately. The three upsert rows store a present url
// key's TID again, uniformly over 300 k keys: in place on every writer,
// so they differ by the latch alone (one node lock for ROWEX).
func BenchmarkAblationROWEXOverhead(b *testing.B) {
	d := benchData(b, dataset.Integer)
	b.Run("insert/single-threaded", func(b *testing.B) {
		b.ReportAllocs()
		var tr *core.Trie
		for i := 0; i < b.N; i++ {
			if i%benchKeys == 0 {
				tr = core.New(d.Store.Key)
			}
			tr.Insert(d.Keys[i%benchKeys], d.TIDs[i%benchKeys])
		}
	})
	b.Run("insert/exclusive", func(b *testing.B) {
		b.ReportAllocs()
		var w core.Writer
		for i := 0; i < b.N; i++ {
			if i%benchKeys == 0 {
				w = core.NewConcurrent(d.Store.Key).Writer()
			}
			w.Insert(d.Keys[i%benchKeys], d.TIDs[i%benchKeys])
		}
	})
	b.Run("insert/rowex", func(b *testing.B) {
		b.ReportAllocs()
		var tr *core.ConcurrentTrie
		for i := 0; i < b.N; i++ {
			if i%benchKeys == 0 {
				tr = core.NewConcurrent(d.Store.Key)
			}
			tr.Insert(d.Keys[i%benchKeys], d.TIDs[i%benchKeys])
		}
	})
	st := core.New(d.Store.Key)
	ct := core.NewConcurrent(d.Store.Key)
	for i := 0; i < benchKeys; i++ {
		st.Insert(d.Keys[i], d.TIDs[i])
		ct.Insert(d.Keys[i], d.TIDs[i])
	}
	b.Run("lookup/single-threaded", func(b *testing.B) {
		b.ReportAllocs()
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < b.N; i++ {
			st.Lookup(d.Keys[rng.Intn(benchKeys)])
		}
	})
	b.Run("lookup/rowex", func(b *testing.B) {
		b.ReportAllocs()
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < b.N; i++ {
			ct.Lookup(d.Keys[rng.Intn(benchKeys)])
		}
	})
	u := benchData(b, dataset.URL)
	ust := core.New(u.Store.Key)
	uct := core.NewConcurrent(u.Store.Key) // the exclusive and rowex rows take turns
	for i := 0; i < benchKeys; i++ {
		ust.Insert(u.Keys[i], u.TIDs[i])
		uct.Insert(u.Keys[i], u.TIDs[i])
	}
	for _, row := range []struct {
		name   string
		upsert func([]byte, TID) (TID, bool)
	}{
		{"upsert/single-threaded", ust.Upsert},
		{"upsert/exclusive", uct.Writer().Upsert},
		{"upsert/rowex", uct.Upsert},
	} {
		b.Run(row.name, func(b *testing.B) {
			b.ReportAllocs()
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < b.N; i++ {
				j := rng.Intn(benchKeys)
				row.upsert(u.Keys[j], u.TIDs[j])
			}
		})
	}
}
