package core

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/hotindex/hot/internal/bits"
	"github.com/hotindex/hot/internal/dataset"
	"github.com/hotindex/hot/internal/tidstore"
)

// Package-level microbenchmarks of the four fundamental operations, per
// data set, plus the node-level ablations (single- vs multi-mask nodes).

func benchTrie(b *testing.B, kind dataset.Kind, n int) (*Trie, *tidstore.Store, [][]byte) {
	b.Helper()
	keys := dataset.Generate(kind, n, 1)
	s := &tidstore.Store{}
	tr := New(s.Key)
	for _, k := range keys {
		tr.Insert(k, s.Add(k))
	}
	return tr, s, keys
}

func BenchmarkInsert(b *testing.B) {
	for _, kind := range dataset.Kinds() {
		b.Run(kind.String(), func(b *testing.B) {
			keys := dataset.Generate(kind, 200000, 1)
			s := &tidstore.Store{}
			tids := make([]TID, len(keys))
			for i, k := range keys {
				tids[i] = s.Add(k)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var tr *Trie
			for i := 0; i < b.N; i++ {
				j := i % len(keys)
				if j == 0 {
					tr = New(s.Key)
				}
				tr.Insert(keys[j], tids[j])
			}
		})
	}
}

func BenchmarkLookup(b *testing.B) {
	for _, kind := range dataset.Kinds() {
		b.Run(kind.String(), func(b *testing.B) {
			tr, _, keys := benchTrie(b, kind, 200000)
			rng := rand.New(rand.NewSource(2))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := tr.Lookup(keys[rng.Intn(len(keys))]); !ok {
					b.Fatal("miss")
				}
			}
		})
	}
}

// BenchmarkLookupBatch compares scalar point lookups against the batched
// memory-level-parallel descent at 1M keys per data set — large enough
// that the upper trie levels no longer fit in L2, so the batch's
// overlapping cache misses show up as throughput. sharded8 spreads the same
// keys over 8 concurrent tries, as a sharded index does, and runs every
// 32-key batch across them through LookupBatchAcross. Every path must
// report 0 allocs/op.
func BenchmarkLookupBatch(b *testing.B) {
	for _, kind := range dataset.Kinds() {
		b.Run(kind.String(), func(b *testing.B) {
			tr, s, keys := benchTrie(b, kind, 1_000_000)
			rng := rand.New(rand.NewSource(2))
			probes := make([][]byte, 4096)
			home := make([]int, len(probes))
			for i := range probes {
				home[i] = rng.Intn(len(keys))
				probes[i] = keys[home[i]]
			}
			b.Run("scalar", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, ok := tr.Lookup(probes[i%len(probes)]); !ok {
						b.Fatal("miss")
					}
				}
			})
			b.Run(fmt.Sprintf("batch%d", batchLanes), func(b *testing.B) {
				out := make([]TID, batchLanes)
				b.ReportAllocs()
				for i := 0; i < b.N; i += batchLanes {
					base := i % (len(probes) - batchLanes)
					found := tr.LookupBatch(probes[base:base+batchLanes], out)
					for _, ok := range found {
						if !ok {
							b.Fatal("miss")
						}
					}
				}
			})
			b.Run("sharded8", func(b *testing.B) {
				var shards [8]*ConcurrentTrie
				for j := range shards {
					shards[j] = NewConcurrent(s.Key)
				}
				for i, k := range keys {
					shards[i%len(shards)].Insert(k, TID(i))
				}
				which := make([]int, len(probes))
				for i, h := range home {
					which[i] = h % len(shards)
				}
				out, found := make([]TID, batchLanes), make([]bool, batchLanes)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i += batchLanes {
					base := i % (len(probes) - batchLanes)
					LookupBatchAcross(shards[:], which[base:base+batchLanes], probes[base:base+batchLanes], out, found)
					for _, ok := range found {
						if !ok {
							b.Fatal("miss")
						}
					}
				}
			})
		})
	}
}

func BenchmarkScan100(b *testing.B) {
	for _, kind := range dataset.Kinds() {
		b.Run(kind.String(), func(b *testing.B) {
			tr, _, keys := benchTrie(b, kind, 200000)
			rng := rand.New(rand.NewSource(3))
			sink := TID(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.Scan(keys[rng.Intn(len(keys))], 100, func(tid TID) bool {
					sink += tid
					return true
				})
			}
			_ = sink
		})
	}
}

// BenchmarkSeekIter measures repositioning a reused iterator, which must
// not allocate: the candidate key load goes through the trie's scratch
// buffer and the path stack is recycled.
func BenchmarkSeekIter(b *testing.B) {
	tr, _, keys := benchTrie(b, dataset.Integer, 200000)
	rng := rand.New(rand.NewSource(6))
	starts := make([][]byte, 1024)
	for i := range starts {
		starts[i] = keys[rng.Intn(len(keys))]
	}
	var it Iterator
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.SeekIter(&it, starts[i%len(starts)])
		if !it.Valid() {
			b.Fatal("seek missed an existing key")
		}
	}
}

func BenchmarkDelete(b *testing.B) {
	keys := dataset.Generate(dataset.Integer, 200000, 1)
	s := &tidstore.Store{}
	tids := make([]TID, len(keys))
	for i, k := range keys {
		tids[i] = s.Add(k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var tr *Trie
	for i := 0; i < b.N; i++ {
		j := i % len(keys)
		if j == 0 {
			b.StopTimer()
			tr = New(s.Key)
			for x, k := range keys {
				tr.Insert(k, tids[x])
			}
			b.StartTimer()
		}
		if !tr.Delete(keys[j]) {
			b.Fatal("delete failed")
		}
	}
}

func BenchmarkConcurrentLookup(b *testing.B) {
	keys := dataset.Generate(dataset.Integer, 200000, 1)
	s := &tidstore.Store{}
	tr := NewConcurrent(s.Key)
	for _, k := range keys {
		tr.Insert(k, s.Add(k))
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(4))
		for pb.Next() {
			tr.Lookup(keys[rng.Intn(len(keys))])
		}
	})
}

var sink uint64

// runPaths runs f once per internal/bits path: "native" (skipped on a CPU
// without BMI2 and LZCNT) and "go", the portable path, side by side.
func runPaths(b *testing.B, name string, f func(b *testing.B)) {
	has := bits.Native
	for _, path := range []string{"native", "go"} {
		b.Run(name+"/"+path, func(b *testing.B) {
			if path == "native" && !has {
				b.Skip("no native kernels on this CPU")
			}
			defer func() { bits.Native = has }()
			bits.Native = path == "native"
			f(b)
		})
	}
}

// BenchmarkExtract compares the extraction layouts in isolation (the
// single- vs multi-mask ablation of Section 4.1).
func BenchmarkExtract(b *testing.B) {
	k := make([]byte, 64)
	rand.New(rand.NewSource(5)).Read(k)
	for _, c := range []struct {
		name string
		d    []uint16
	}{
		{"single-contiguous", []uint16{8, 9, 10, 11, 12}},
		{"single-pext", []uint16{3, 17, 31, 45, 59}},
		{"multi8", []uint16{3, 100, 200, 300, 400}},
		{"multi16", []uint16{0, 50, 100, 150, 200, 250, 300, 350, 400, 450}},
	} {
		spec := buildSpec(c.d)
		runPaths(b, c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink += uint64(spec.extract(k))
			}
		})
	}
}

// BenchmarkNodeSearch measures one node visit — extraction, compare and
// bit scan — on the largest node of each physical layout (Figure 6) found
// in tries over the four data sets, on both internal/bits paths.
func BenchmarkNodeSearch(b *testing.B) {
	type pick struct {
		nd    *node
		probe []byte
	}
	var best [numLayouts]pick
	for _, kind := range dataset.Kinds() {
		tr, s, _ := benchTrie(b, kind, 50000)
		var walk func(nd *node)
		walk = func(nd *node) {
			if cur := best[nd.layout()].nd; cur == nil || nd.n > cur.n {
				best[nd.layout()] = pick{nd, s.Key(minLeafTID(nd), nil)}
			}
			for i := range nd.slots {
				if c := nd.slots[i].loadChild(); c != nil {
					walk(c)
				}
			}
		}
		walk(tr.root.Load().n)
	}
	for l, p := range best {
		if p.nd == nil {
			continue
		}
		runPaths(b, layoutKind(l).String(), func(b *testing.B) {
			b.ReportMetric(float64(p.nd.n), "entries")
			for i := 0; i < b.N; i++ {
				sink += uint64(p.nd.search(p.probe))
			}
		})
	}
}

// minLeafTID returns the TID of the leftmost leaf under nd.
func minLeafTID(nd *node) TID {
	for {
		s := &nd.slots[0]
		if c := s.loadChild(); c != nil {
			nd = c
			continue
		}
		return s.tid
	}
}
