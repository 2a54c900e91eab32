package main

import (
	"fmt"
	"io"

	"github.com/hotindex/hot/internal/art"
	"github.com/hotindex/hot/internal/bench"
	"github.com/hotindex/hot/internal/core"
	"github.com/hotindex/hot/internal/patricia"
)

// runDepth regenerates Figure 11: the depth distribution of leaf values
// in HOT versus the "pure trie" baselines — ART and a binary Patricia trie
// — for every data set.
func runDepth(args []string, out io.Writer) error {
	c := newFlags("depth", 1_000_000, "url,email,yago,integer", "hot", "art", "bin")
	hist := c.fs.Bool("hist", false, "print full depth histograms")
	kinds, indexes, err := c.parse(args)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "leaf depth distribution over %d keys\n", *c.n)
	fmt.Fprintf(out, "%-9s %-9s %8s %8s %8s\n", "dataset", "index", "min", "mean", "max")

	for _, kind := range kinds {
		data := bench.Load(kind, *c.n, 0, *c.seed)
		for _, index := range indexes {
			// One full-tree walk per index; the three packages declare the
			// same DepthStats struct, so the results convert.
			var st core.DepthStats
			switch index {
			case "hot":
				t := core.New(data.Store.Key)
				load(data, t.Insert)
				st = t.Depths()
			case "art":
				t := art.New(data.Store.Key)
				load(data, t.Insert)
				st = core.DepthStats(t.Depths())
			case "bin":
				t := patricia.New(data.Store.Key)
				load(data, t.Insert)
				st = core.DepthStats(t.Depths())
			}
			fmt.Fprintf(out, "%-9s %-9s %8d %8.2f %8d\n", kind, index, st.Min, st.Mean, st.Max)
			if !*hist {
				continue
			}
			// Every histogram key lies in [Min, Max].
			for d := st.Min; d <= st.Max; d++ {
				if leaves := st.Hist[d]; leaves > 0 {
					fmt.Fprintf(out, "    depth %3d: %d\n", d, leaves)
				}
			}
		}
		fmt.Fprintln(out)
	}
	return nil
}

// load inserts every key of data through insert.
func load(data *bench.Data, insert func(k []byte, tid uint64) bool) {
	for i, k := range data.Keys {
		insert(k, data.TIDs[i])
	}
}
