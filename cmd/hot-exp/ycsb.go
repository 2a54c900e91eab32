package main

import (
	"flag"
	"fmt"
	"io"
	"strconv"

	"github.com/hotindex/hot/internal/bench"
	"github.com/hotindex/hot/internal/core"
	"github.com/hotindex/hot/internal/ycsb"
)

// ycsbRecord is one configuration's result in the -json output. The
// latency quantiles (µs) are present only when -latency captured them.
type ycsbRecord struct {
	Dataset  string  `json:"dataset"`
	Workload string  `json:"workload"`
	Dist     string  `json:"dist"`
	Index    string  `json:"index"`
	Batch    int     `json:"batch"`
	Mops     float64 `json:"mops"`
	Misses   int     `json:"misses"`
	P50us    float64 `json:"p50_us,omitempty"`
	P99us    float64 `json:"p99_us,omitempty"`
	P999us   float64 `json:"p999_us,omitempty"`
}

// runYCSB regenerates the paper's throughput experiments: Figure 8
// (workloads C, E and the insert-only load phase) and Appendix A (all six
// YCSB core workloads × uniform/zipfian request distributions), across the
// four data sets and four index structures. Paper scale is -n 50000000
// -ops 100000000.
//
//	hot-exp ycsb                            # Figure 8 at default scale
//	hot-exp ycsb -all                       # all 48 Appendix A configs
//	hot-exp ycsb -workloads C -datasets url -indexes hot,art
func runYCSB(args []string, out io.Writer) error {
	c := newFlags("ycsb", 1_000_000, "url,email,yago,integer", bench.Names()...)
	var (
		ops       = c.fs.Int("ops", 2_000_000, "transaction-phase operations")
		workloads = c.fs.String("workloads", "C,E,load", "comma list of A..F and/or 'load'")
		dists     = c.fs.String("dists", "uniform", "comma list of request distributions (uniform|zipf|latest)")
		all       = c.fs.Bool("all", false, "run all 6 workloads × {uniform, zipf} (Appendix A)")
		batch     = c.fs.String("batch", "0", "comma list of read batch sizes routed through LookupBatch (0 = scalar lookups)")
		latency   = c.fs.Bool("latency", false, "capture and print per-operation latency percentiles")
		opstats   = c.fs.Bool("opstats", false, "print insertion-case and robustness counters after each configuration")
		jsonPath  = c.fs.String("json", "", "additionally write results as a JSON array to this file")
	)
	kinds, indexes, err := c.parse(args)
	if err != nil {
		return err
	}
	batches, err := list("batch", *batch, strconv.Atoi)
	if err != nil {
		return err
	}
	ws, ds := ycsb.Core(), []ycsb.Distribution{ycsb.Uniform, ycsb.Zipfian}
	if !*all {
		if ws, err = list("workloads", *workloads, ycsb.ByName); err != nil {
			return err
		}
		if ds, err = list("dists", *dists, ycsb.ParseDistribution); err != nil {
			return err
		}
	}
	distsSet := false
	c.fs.Visit(func(f *flag.Flag) { distsSet = distsSet || f.Name == "dists" })

	fmt.Fprintf(out, "load %d keys, %d txn ops per configuration\n", *c.n, *ops)
	fmt.Fprintf(out, "%-9s %-26s %-8s %-10s %6s %10s %9s\n", "dataset", "workload", "dist", "index", "batch", "mops", "misses")

	var records []ycsbRecord
	for _, kind := range kinds {
		for _, w := range ws {
			reserve := 0
			if w.Insert > 0 {
				reserve = int(float64(*ops)*w.Insert) + 1024
			}
			data := bench.Load(kind, *c.n, reserve, *c.seed)
			for _, dist := range ds {
				if w.Name == "D" && !*all && !distsSet {
					// Paper default: D is latest-read. An explicit -dists
					// always wins — no silent substitution.
					dist = ycsb.Latest
				}
				for _, index := range indexes {
					for _, b := range batches {
						inst, err := bench.New(index, data.Store)
						if err != nil {
							return err
						}
						r := data.Runner(inst, *c.n, *c.seed)
						r.CaptureLatency = *latency
						r.BatchLookups = b
						res := r.Load()
						if w.Name != "load" {
							res = r.Run(w, dist, *ops)
						}
						rec := ycsbRecord{
							Dataset: kind.String(), Workload: w.Name, Dist: dist.String(), Index: index,
							Batch: b, Mops: res.Mops(), Misses: res.NotFound,
						}
						fmt.Fprintf(out, "%-9s %-26s %-8s %-10s %6d %10.3f %9d",
							kind, w.Name+" ("+w.Description+")", dist, index, b, res.Mops(), res.NotFound)
						if res.Latency != nil {
							fmt.Fprintf(out, "   %s", res.Latency)
							us := func(q float64) float64 { return float64(res.Latency.Quantile(q)) / 1e3 }
							rec.P50us, rec.P99us, rec.P999us = us(0.50), us(0.99), us(0.999)
						}
						fmt.Fprintln(out)
						if st, ok := inst.Idx.(interface{ OpStats() core.OpStats }); *opstats && ok {
							fmt.Fprintf(out, "%-9s   opstats: %s\n", "", st.OpStats())
						}
						records = append(records, rec)
					}
				}
			}
		}
	}
	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, records); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %d records to %s\n", len(records), *jsonPath)
	}
	return nil
}
