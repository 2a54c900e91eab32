package main

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/hotindex/hot/internal/art"
	"github.com/hotindex/hot/internal/bench"
	"github.com/hotindex/hot/internal/core"
	"github.com/hotindex/hot/internal/masstree"
	"github.com/hotindex/hot/internal/striped"
	"github.com/hotindex/hot/internal/tidstore"
)

// concIndex is the minimal concurrent interface the experiment needs.
type concIndex interface {
	Insert(k []byte, tid uint64) bool
	Lookup(k []byte) (uint64, bool)
	Len() int
}

// concBuilders construct the synchronized index variants. The STX B-tree
// is omitted, like in the paper ("due to lack of synchronization, we omit
// the STX B-Tree").
var concBuilders = map[string]func(*tidstore.Store) concIndex{
	"hot": func(s *tidstore.Store) concIndex { return core.NewConcurrent(s.Key) },
	"art": func(s *tidstore.Store) concIndex {
		return striped.New(64, func() striped.Index { return art.New(s.Key) })
	},
	"masstree": func(*tidstore.Store) concIndex {
		return striped.New(64, func() striped.Index { return masstree.New() })
	},
}

// runScale regenerates Figure 10: multi-threaded insert and lookup
// throughput on the url data set for the synchronized index variants —
// HOT with its ROWEX protocol, and ART/Masstree behind the striped
// synchronization substitution (see DESIGN.md). The paper inserts 50M keys
// and runs 100M lookups per thread count, taking the median of 7 runs.
//
// Meaningful speedups require multiple CPU cores (the paper's server has
// 10); on a single-core host the harness still runs but reports flat
// scaling.
func runScale(args []string, out io.Writer) error {
	c := newFlags("scale", 500_000, "url", "hot", "art", "masstree")
	var (
		lookups = c.fs.Int("lookups", 1_000_000, "random lookups per run")
		maxThr  = c.fs.Int("threads", runtime.GOMAXPROCS(0), "maximum thread count")
		runs    = c.fs.Int("runs", 3, "runs per configuration (median reported)")
	)
	kinds, indexes, err := c.parse(args)
	if err != nil {
		return err
	}
	if *runs < 1 {
		return fmt.Errorf("-runs must be at least 1, got %d", *runs)
	}

	for _, kind := range kinds {
		data := bench.Load(kind, *c.n, 0, *c.seed)
		fmt.Fprintf(out, "dataset %s: %d inserts + %d lookups per run, median of %d runs\n",
			kind, *c.n, *lookups, *runs)
		fmt.Fprintf(out, "%-9s %8s %14s %14s\n", "index", "threads", "insert mops", "lookup mops")
		for _, index := range indexes {
			for threads := 1; threads <= *maxThr; threads++ {
				var ins, look []float64
				for run := 0; run < *runs; run++ {
					i, l, err := scaleRun(concBuilders[index](data.Store), data, threads, *lookups, *c.seed+int64(run))
					if err != nil {
						return fmt.Errorf("%s, %d threads: %w", index, threads, err)
					}
					ins = append(ins, i)
					look = append(look, l)
				}
				fmt.Fprintf(out, "%-9s %8d %14.3f %14.3f\n", index, threads, median(ins), median(look))
			}
		}
	}
	return nil
}

// scaleRun loads data into idx and then looks random keys up, both from
// threads goroutines, and reports the two phases' throughput.
func scaleRun(idx concIndex, data *bench.Data, threads, lookups int, seed int64) (insertMops, lookupMops float64, err error) {
	n := len(data.Keys)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += threads {
				idx.Insert(data.Keys[i], data.TIDs[i])
			}
		}(w)
	}
	wg.Wait()
	insertMops = float64(n) / time.Since(start).Seconds() / 1e6
	if idx.Len() != n {
		return 0, 0, fmt.Errorf("index lost keys: %d of %d", idx.Len(), n)
	}

	start = time.Now()
	per := lookups / threads
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)))
			for i := 0; i < per; i++ {
				if _, ok := idx.Lookup(data.Keys[rng.Intn(n)]); !ok {
					panic("lookup missed a loaded key")
				}
			}
		}(w)
	}
	wg.Wait()
	lookupMops = float64(per*threads) / time.Since(start).Seconds() / 1e6
	return insertMops, lookupMops, nil
}

func median(xs []float64) float64 {
	sort.Float64s(xs)
	return xs[len(xs)/2]
}
