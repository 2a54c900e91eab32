// hot-ycsb regenerates the paper's throughput experiments: Figure 8
// (workloads C, E and the insert-only load phase) and Appendix A (all six
// YCSB core workloads × uniform/zipfian request distributions), across the
// four data sets and four index structures.
//
// Paper scale is -n 50000000 -ops 100000000; the defaults are laptop-sized
// (1M/2M). Examples:
//
//	hot-ycsb                                # Figure 8 at default scale
//	hot-ycsb -all                           # all 48 Appendix A configs
//	hot-ycsb -workloads C -datasets url -indexes hot,art
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"github.com/hotindex/hot"
	"github.com/hotindex/hot/internal/bench"
	"github.com/hotindex/hot/internal/dataset"
	"github.com/hotindex/hot/internal/server"
	"github.com/hotindex/hot/internal/ycsb"
)

// record is one configuration's result in the -json output. The latency
// quantiles (µs) are present only when -latency captured them.
type record struct {
	Dataset  string  `json:"dataset"`
	Workload string  `json:"workload"`
	Dist     string  `json:"dist"`
	Index    string  `json:"index"`
	Batch    int     `json:"batch"`
	Shards   int     `json:"shards"`
	Threads  int     `json:"threads"`
	Async    int     `json:"async"`
	Wal      int     `json:"wal"`
	Net      int     `json:"net"`
	Conns    int     `json:"conns"`
	Codec    string  `json:"codec,omitempty"`
	Mops     float64 `json:"mops"`
	Misses   int     `json:"misses"`
	// SnapshotBytes is the size of a checkpoint taken after the run
	// (durable configs); BootstrapBytes is what a replication bootstrap
	// streams for the same tree (sharded in-process configs). Both shrink
	// under -codec packed.
	SnapshotBytes  int64 `json:"snapshot_bytes,omitempty"`
	BootstrapBytes int64 `json:"bootstrap_bytes,omitempty"`
	// Cold-tier fields, present only for -mem-budget configs.
	MemBudget  int64   `json:"mem_budget,omitempty"`
	ColdShards int     `json:"cold_shards,omitempty"`
	Demotions  uint64  `json:"demotions,omitempty"`
	Promotions uint64  `json:"promotions,omitempty"`
	HitRate    float64 `json:"hit_rate,omitempty"`
	P50us      float64 `json:"p50_us,omitempty"`
	P99us      float64 `json:"p99_us,omitempty"`
	P999us     float64 `json:"p999_us,omitempty"`
}

func main() {
	var (
		n         = flag.Int("n", 1_000_000, "keys inserted in the load phase")
		ops       = flag.Int("ops", 2_000_000, "transaction-phase operations")
		workloads = flag.String("workloads", "C,E,load", "comma list of A..F and/or 'load'")
		datasets  = flag.String("datasets", "url,email,yago,integer", "comma list of data sets")
		dists     = flag.String("dists", "uniform", "comma list of request distributions (uniform|zipf|latest)")
		indexes   = flag.String("indexes", "hot,art,btree,masstree", "comma list of index structures")
		all       = flag.Bool("all", false, "run all 6 workloads × {uniform, zipf} (Appendix A)")
		latency   = flag.Bool("latency", false, "capture and print per-operation latency percentiles")
		opstats   = flag.Bool("opstats", false, "print insertion-case and robustness counters after each configuration")
		batch     = flag.String("batch", "0", "comma list of read batch sizes routed through LookupBatch (0 = scalar lookups)")
		shards    = flag.String("shards", "0", "comma list of shard counts for the range-partitioned hot index (0 = unsharded; other indexes skip sharded configs)")
		threads   = flag.Int("threads", 0, "client goroutines for sharded configs, load and transaction phases (0 = one per shard)")
		async     = flag.String("async", "0", "comma list of 0/1: route writes through the sharded tree's submission-queue path (1 requires a sharded hot config)")
		wal       = flag.String("wal", "0", "comma list of 0/1: open the sharded hot index in durable (write-ahead-logged) mode in a temp dir (1 requires a sharded hot config)")
		memBudget = flag.String("mem-budget", "0", "comma list of resident-trie byte budgets for the pager-backed cold tier, enabled after the load phase (0 = unbounded; -k = 1/k of the measured resident footprint; requires a sharded -wal 1 in-process config)")
		netMode   = flag.String("net", "0", "comma list of 0/1: drive the index over TCP through hot-server instead of in-process (1 requires a sharded hot config; single client connection)")
		conns     = flag.String("conns", "0", "comma list of connection-pool sizes for -net 1 configs: N>0 drives the workload through a pool of N connections with one worker per connection (0 = one dedicated connection, single-threaded)")
		addr      = flag.String("addr", "", "external hot-server address for -net 1 configs (empty: spawn a loopback server per configuration)")
		codecList = flag.String("codec", "raw", "comma list of snapshot block codecs (raw|packed) for sharded configs: selects checkpoint/bootstrap encoding and records their sizes (packed requires a sharded in-process config)")
		jsonPath  = flag.String("json", "", "additionally write results as a JSON array to this file")
		seed      = flag.Int64("seed", 2018, "data/workload seed")
	)
	flag.Parse()
	var records []record
	var batches []int
	for _, b := range split(*batch) {
		v, err := strconv.Atoi(b)
		die(err)
		batches = append(batches, v)
	}
	var shardCounts []int
	for _, s := range split(*shards) {
		v, err := strconv.Atoi(s)
		die(err)
		shardCounts = append(shardCounts, v)
	}
	var asyncModes []bool
	for _, a := range split(*async) {
		switch a {
		case "0":
			asyncModes = append(asyncModes, false)
		case "1":
			asyncModes = append(asyncModes, true)
		default:
			die(fmt.Errorf("-async accepts a comma list of 0 and 1, got %q", a))
		}
	}
	var walModes []bool
	for _, w := range split(*wal) {
		switch w {
		case "0":
			walModes = append(walModes, false)
		case "1":
			walModes = append(walModes, true)
		default:
			die(fmt.Errorf("-wal accepts a comma list of 0 and 1, got %q", w))
		}
	}
	var netModes []bool
	for _, m := range split(*netMode) {
		switch m {
		case "0":
			netModes = append(netModes, false)
		case "1":
			netModes = append(netModes, true)
		default:
			die(fmt.Errorf("-net accepts a comma list of 0 and 1, got %q", m))
		}
	}
	var connCounts []int
	for _, c := range split(*conns) {
		v, err := strconv.Atoi(c)
		die(err)
		connCounts = append(connCounts, v)
	}
	var budgets []int64
	for _, m := range split(*memBudget) {
		v, err := strconv.ParseInt(m, 10, 64)
		die(err)
		budgets = append(budgets, v)
	}
	// Codec names are validated up front, like -dists: a typo is a hard
	// error before any load phase runs, never a silent fall-through to raw.
	var codecs []hot.SnapshotCodec
	for _, c := range split(*codecList) {
		v, err := hot.ParseSnapshotCodec(c)
		die(err)
		codecs = append(codecs, v)
	}

	wNames := split(*workloads)
	dNames := split(*dists)
	distsSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "dists" {
			distsSet = true
		}
	})
	if *all {
		wNames = []string{"A", "B", "C", "D", "E", "F"}
		dNames = []string{"uniform", "zipf"}
	}
	// Every distribution name is validated up front: an unknown name is a
	// hard error before any load phase runs, never a silent substitution.
	for _, dname := range dNames {
		_, err := ycsb.ParseDistribution(dname)
		die(err)
	}

	fmt.Printf("load %d keys, %d txn ops per configuration\n", *n, *ops)
	fmt.Printf("%-9s %-26s %-8s %-10s %6s %10s %9s\n", "dataset", "workload", "dist", "index", "batch", "mops", "misses")

	for _, ds := range split(*datasets) {
		kind, err := dataset.ParseKind(ds)
		die(err)
		for _, wname := range wNames {
			w, err := ycsb.ByName(wname)
			die(err)
			reserve := 0
			if w.Insert > 0 {
				reserve = int(float64(*ops)*w.Insert) + 1024
			}
			data := bench.Load(kind, *n, reserve, *seed)
			for _, dname := range dNames {
				dist, err := ycsb.ParseDistribution(dname)
				die(err)
				if w.Name == "D" && !*all && !distsSet {
					// Paper default: D is latest-read. An explicit -dists
					// always wins — no silent substitution.
					dist = ycsb.Latest
				}
				for _, iname := range split(*indexes) {
					for _, b := range batches {
						for _, sc := range shardCounts {
							if sc > 0 && iname != "hot" {
								continue // only hot has a range-sharded variant
							}
							for _, am := range asyncModes {
								if am && sc == 0 {
									continue // only the sharded tree has submission queues
								}
								for _, wm := range walModes {
									if wm && sc == 0 {
										continue // durable mode exists only for the sharded tree
									}
									for _, mb := range budgets {
										if mb != 0 && !wm {
											continue // cold sections live in the durable directory
										}
										if mb != 0 && w.Name == "load" {
											continue // the tier is enabled after the load phase
										}
										for _, nm := range netModes {
											if nm && sc == 0 {
												continue // hot-server always serves the sharded tree
											}
											if nm && mb != 0 {
												continue // the cold-tier sweep measures the in-process index
											}
											if nm && wm && *addr != "" {
												continue // an external server's durability is its own config
											}
											for _, cn := range connCounts {
												if cn > 0 && !nm {
													continue // pools exist only for networked configs
												}
												if nm && am && cn > 0 {
													continue // a pool borrows per op: no pipeline for the async contract
												}
												for _, codec := range codecs {
													if codec != hot.SnapshotCodecRaw && (sc == 0 || nm) {
														continue // codecs shape snapshots of the in-process sharded tree
													}
													var inst bench.Instance
													var durable, sharded *hot.ShardedTree
													var walDir string
													var srv *server.Server
													var remote *ycsb.RemoteIndex
													var pooled *ycsb.PooledRemoteIndex
													if wm {
														var err error
														walDir, err = os.MkdirTemp("", "hot-ycsb-wal-*")
														die(err)
													}
													if nm {
														// Networked configuration: the index lives behind
														// hot-server and the runner drives it through the
														// wire. With -conns 0 a single RemoteIndex owns one
														// connection, so the row runs single-threaded; with
														// -conns N a shared pool serves N concurrent workers.
														target := *addr
														if target == "" {
															var err error
															srv, err = server.New(server.Options{Shards: sc, Sample: data.Keys[:*n], Dir: walDir})
															die(err)
															target, err = srv.Listen("127.0.0.1:0")
															die(err)
														}
														if cn > 0 {
															pooled = ycsb.DialPool(target, cn)
															inst = bench.NewInstance(fmt.Sprintf("hot-s%d", sc), pooled, func() int { return 0 })
														} else {
															var err error
															remote, err = ycsb.Dial(target)
															die(err)
															inst = bench.NewInstance(fmt.Sprintf("hot-s%d", sc), remote, func() int { return 0 })
														}
													} else if sc > 0 {
														var t *hot.ShardedTree
														if wm {
															var err error
															t, _, err = hot.OpenDurableShardedTree(walDir, data.Store.Key, sc, data.Keys[:*n], hot.DurableOptions{Codec: codec})
															die(err)
															durable = t
														} else {
															t = hot.NewShardedTree(data.Store.Key, sc, data.Keys[:*n])
															t.SetSnapshotCodec(codec)
														}
														sharded = t
														inst = bench.NewInstance(fmt.Sprintf("hot-s%d", sc), t,
															func() int { return t.Memory().PaperBytes })
													} else {
														var err error
														inst, err = bench.New(iname, data.Store)
														die(err)
													}
													r := data.Runner(inst, *n, *seed)
													r.CaptureLatency = *latency
													r.BatchLookups = b
													r.Async = am
													loadThreads := 1
													if sc > 0 && !nm {
														loadThreads = *threads
														if loadThreads <= 0 {
															loadThreads = sc
														}
													} else if pooled != nil {
														// One worker per pooled connection.
														loadThreads = cn
													}
													var res ycsb.Result
													var coldBudget int64
													if w.Name == "load" {
														res = r.LoadParallel(loadThreads)
													} else {
														r.LoadParallel(loadThreads)
														if mb != 0 && durable != nil {
															// Arm the cold tier against the loaded
															// footprint: -k budgets resolve to 1/k of
															// the measured resident bytes, and
															// EnableColdTier demotes down to budget
															// before the transaction phase starts.
															coldBudget = mb
															if coldBudget < 0 {
																coldBudget = int64(durable.Memory().GoBytes) / -mb
															}
															die(durable.EnableColdTier(hot.ColdTierConfig{MemoryBudget: coldBudget}))
														}
														// loadThreads > 1 only for sharded
														// configs — the only index safe for
														// concurrent transaction clients.
														res = r.RunParallel(w, dist, *ops, loadThreads)
													}
													name := inst.Name
													if am {
														name += "+q"
													}
													if wm {
														name += "+wal"
													}
													if mb != 0 {
														name += "+cold"
													}
													if nm {
														name += "+net"
														if pooled != nil {
															name += fmt.Sprintf("+c%d", cn)
														}
													}
													if codec != hot.SnapshotCodecRaw {
														name += "+" + codec.String()
													}
													// Snapshot-size measurements for sharded in-process
													// configs: what a replication bootstrap streams, and
													// (durable) what a checkpoint leaves on disk.
													var snapBytes, bootBytes int64
													if sharded != nil {
														var cw countWriter
														die(sharded.SnapshotTo(&cw))
														bootBytes = cw.n
														if durable != nil {
															die(durable.Checkpoint())
															// The manifest plus one snap-NNN.hot per hot shard.
															files, err := filepath.Glob(filepath.Join(walDir, "snap*.hot"))
															die(err)
															for _, f := range files {
																fi, err := os.Stat(f)
																die(err)
																snapBytes += fi.Size()
															}
														}
													}
													fmt.Printf("%-9s %-26s %-8s %-10s %6d %10.3f %9d",
														ds, w.Name+" ("+w.Description+")", dist, name, b, res.Mops(), res.NotFound)
													if res.Latency != nil {
														fmt.Printf("   %s", res.Latency)
													}
													fmt.Println()
													if *opstats {
														if st, ok := inst.Idx.(interface{ OpStats() hot.OpStats }); ok {
															fmt.Printf("%-9s   opstats: %s\n", "", st.OpStats())
														}
													}
													asyncRec, walRec, netRec := 0, 0, 0
													if am {
														asyncRec = 1
													}
													if wm {
														walRec = 1
													}
													if nm {
														netRec = 1
													}
													connsRec := 0
													if pooled != nil {
														connsRec = cn
													}
													rec := record{
														Dataset: ds, Workload: w.Name, Dist: dist.String(), Index: name,
														Batch: b, Shards: sc, Threads: loadThreads, Async: asyncRec, Wal: walRec, Net: netRec,
														Conns: connsRec, Mops: res.Mops(), Misses: res.NotFound,
														SnapshotBytes: snapBytes, BootstrapBytes: bootBytes,
													}
													if sharded != nil {
														rec.Codec = codec.String()
														if len(codecs) > 1 || codec != hot.SnapshotCodecRaw {
															fmt.Printf("%-9s   snapshot: bootstrap=%d B checkpoint=%d B (codec %s)\n",
																"", bootBytes, snapBytes, codec)
														}
													}
													if res.Latency != nil {
														us := func(q float64) float64 {
															return float64(res.Latency.Quantile(q)) / 1e3
														}
														rec.P50us, rec.P99us, rec.P999us = us(0.50), us(0.99), us(0.999)
													}
													if mb != 0 && durable != nil {
														cs := durable.ColdStats()
														rec.MemBudget = coldBudget
														rec.ColdShards = cs.ColdShards
														rec.Demotions = cs.Demotions
														rec.Promotions = cs.Promotions
														rec.HitRate = cs.HitRate()
														fmt.Printf("%-9s   cold: shards=%d/%d demotions=%d promotions=%d hit_rate=%.3f\n",
															"", cs.ColdShards, sc, cs.Demotions, cs.Promotions, cs.HitRate())
													}
													records = append(records, rec)
													if pooled != nil {
														die(pooled.Close())
													}
													if remote != nil {
														die(remote.Close())
													}
													if srv != nil {
														die(srv.Close())
													}
													if durable != nil {
														die(durable.Close())
													}
													if walDir != "" {
														die(os.RemoveAll(walDir))
													}
												}
											}
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	if *jsonPath != "" {
		blob, err := json.MarshalIndent(records, "", "  ")
		die(err)
		die(os.WriteFile(*jsonPath, append(blob, '\n'), 0o644))
		fmt.Printf("wrote %d records to %s\n", len(records), *jsonPath)
	}
}

// countWriter counts bytes without keeping them — sizing a replication
// bootstrap stream without materializing it.
type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

func split(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "hot-ycsb:", err)
		os.Exit(1)
	}
}
