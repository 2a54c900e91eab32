package main

import (
	"fmt"
	"io"

	"github.com/hotindex/hot/internal/bench"
	"github.com/hotindex/hot/internal/dataset"
)

// runMem regenerates Figure 9: memory consumption of each index structure
// after the load phase, per data set, together with the paper's baselines
// (the raw 8-byte tuple identifiers and, for the textual data sets, the
// raw key bytes).
func runMem(args []string, out io.Writer) error {
	c := newFlags("mem", 1_000_000, "url,email,yago,integer", bench.Names()...)
	kinds, indexes, err := c.parse(args)
	if err != nil {
		return err
	}
	n := *c.n

	fmt.Fprintf(out, "memory after loading %d keys (paper-layout bytes)\n", n)
	fmt.Fprintf(out, "%-9s %-9s %12s %10s %12s\n", "dataset", "index", "total MB", "bytes/key", "vs raw keys")

	for _, kind := range kinds {
		data := bench.Load(kind, n, 0, *c.seed)
		raw := dataset.RawBytes(data.Keys)
		fmt.Fprintf(out, "%-9s %-9s %12.1f %10.2f %11s\n",
			kind, "tid-8B", float64(8*n)/1e6, 8.0, "-")
		fmt.Fprintf(out, "%-9s %-9s %12.1f %10.2f %11s   (raw keys)\n",
			kind, "rawkey", float64(raw)/1e6, float64(raw)/float64(n), "1.00x")
		for _, index := range indexes {
			inst, err := bench.New(index, data.Store)
			if err != nil {
				return err
			}
			load(data, inst.Idx.Insert)
			b := inst.PaperBytes()
			fmt.Fprintf(out, "%-9s %-9s %12.1f %10.2f %10.2fx\n",
				kind, index, float64(b)/1e6, float64(b)/float64(n), float64(b)/float64(raw))
		}
		fmt.Fprintln(out)
	}
	return nil
}
