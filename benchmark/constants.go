package main

import "github.com/hotindex/hot/internal/dataset"

// Frozen benchmark constants. They are identical on every commit; only
// -seed varies between runs. Changing any of them starts a new baseline.

const (
	shardCount  = 8    // range shards of every ShardedTree / server
	batchSize   = 32   // keys per LookupBatch / BATCH request
	scanLen     = 50   // entries per scan
	zipfTheta   = 0.99 // skew of every zipf stream
	pipeWindow  = 64   // outstanding raw GET frames in the getpipe phase
	flushEvery  = 1024 // pipelined ADDs between FLUSH barriers on the load
	loadSlices  = 20   // the load is fixed work: n keys in 20 equal slices
	warmGets    = 100000
	setupRounds = 5 // set-ups per run; setup_s is their median

	probeLookups = 20000 // binary searches per memory probe slice
	probeFsyncs  = 200   // appends+fsyncs per fsync probe slice

	// serve-durable tail (fixed work, not time-boxed).
	ckptRounds     = 5    // ckpt_stall_ms is the median over these
	ckptWarmPuts   = 200  // puts between checkpoints, so each has a log to cut
	reopenRounds   = 3    // recover_s is the median over these
	reopenTailPuts = 2000 // log records every recovery replays past its snapshot

	// cold-url tier sizing, as shares of what the run loaded, so the tier
	// keeps its shape when node or page sizes change: the budget keeps two
	// of the eight equal shards resident, the cache holds that share of the
	// six cold shards' decoded pages, which gives pager hit rate 0.90 on
	// the zipf get phase.
	coldBudgetShare = 0.30 // of the loaded trie's Memory().GoBytes
	coldCacheShare  = 0.82 // of the cold shards' decoded page bytes
	coldShards      = 6    // shards 0..5 are demoted

	ladderN = 50000 // keys every per-layer rung runs over (a prefix of the workload's keys)
)

// phaseCfg sizes one time-boxed phase. share is its part of -seconds;
// sliceOps is the fixed op count of one slice (keys for getbatch/getpipe);
// the phase runs whole slices until its share is spent, at least minSlices.
type phaseCfg struct {
	name      string
	share     float64
	sliceOps  int
	minSlices int
	cal       calKind // the probe its values are calibrated by
}

type workloadCfg struct {
	name string
	why  string
	kind dataset.Kind
	n    int
	// memRefKops is memProbe's median rate over this workload's sorted
	// key table on the builder's host (CAL_REF_KOPS).
	memRefKops float64
	loadCal    calKind // the probe that calibrates the load (insert_kops)
	phases     []phaseCfg
}

var workloads = []workloadCfg{
	{
		name: "embed-int", kind: dataset.Integer, n: 1000000, memRefKops: 1450, loadCal: calMem,
		why: "single-threaded hot.Tree over 8-byte integer keys: node search in internal/core is nearly all the work (the paper's Fig. 8 short-key cell where scalar HOT loses to ART)",
		phases: []phaseCfg{
			{"get", 0.22, 20000, 10, calMem}, {"getlat", 0.10, 20000, 5, calMem}, {"getbatch", 0.18, 32000, 10, calMem},
			{"scan", 0.15, 4000, 10, calMem}, {"mixed", 0.22, 10000, 10, calMem}, {"put", 0.13, 20000, 5, calMem},
		},
	},
	{
		name: "embed-url", kind: dataset.URL, n: 1000000, memRefKops: 870, loadCal: calMem,
		why: "8-shard ShardedTree over 55-byte url keys: tidstore and key compare, shard routing and the ROWEX path carry weight that embed-int bypasses; the in-process rung the two workloads below divide by",
		phases: []phaseCfg{
			{"get", 0.22, 20000, 10, calMem}, {"getlat", 0.10, 20000, 5, calMem}, {"getbatch", 0.18, 32000, 10, calMem},
			{"scan", 0.15, 4000, 10, calMem}, {"mixed", 0.22, 10000, 10, calMem}, {"put", 0.13, 20000, 5, calMem},
		},
	},
	{
		name: "serve-durable", kind: dataset.URL, n: 50000, memRefKops: 2800, loadCal: calFsync,
		why: "the op a client sees: hotclient, wire, server, routing, async queue, WAL fsync and core over loopback; trie work is under a tenth of a round trip, so only a wire, server or WAL change may move it",
		phases: []phaseCfg{
			{"get", 0.16, 2000, 10, calMem}, {"getlat", 0.08, 5000, 3, calMem}, {"getbatch", 0.12, 32000, 10, calMem},
			{"getpipe", 0.12, 32000, 10, calMem}, {"scan", 0.12, 500, 10, calMem}, {"mixed", 0.20, 400, 10, calFsync},
			{"put", 0.20, 1000, 5, calFsync},
		},
	},
	{
		name: "cold-url", kind: dataset.URL, n: 500000, memRefKops: 1080, loadCal: calMem,
		why: "working set larger than the page cache: six of eight shards demoted to packed sections, zipf reads hit or fault pager pages; mixed-phase writes promote and re-demote shards, so cut cost shows",
		phases: []phaseCfg{
			{"get", 0.20, 4000, 10, calMem}, {"getlat", 0.10, 20000, 3, calMem}, {"getbatch", 0.15, 6400, 10, calMem},
			{"scan", 0.12, 1000, 10, calMem}, {"mixed", 0.33, 2048, 4, calMem}, {"put", 0.10, 1024, 6, calMem},
		},
	},
}

func findWorkload(name string) *workloadCfg {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricDef names one metric the benchmark emits.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // share of the baseline median a cell may worsen; 0: no bound
	// on lists the workloads the metric is reported on; nil means all.
	on []string
}

// endToEnd is BENCHMARK.json's end_to_end list: every workload emits every
// one of them. Each value is calibrated by the probe its phase names in
// the workload table (see calib.go); byte counts are exact.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "insert_kops", unit: "kops/s", better: "higher", bound: 0.25},
	{name: "get_kops", unit: "kops/s", better: "higher", bound: 0.25},
	{name: "getbatch_kops", unit: "kops/s", better: "higher", bound: 0.25},
	{name: "scan_kops", unit: "kscans/s", better: "higher", bound: 0.25},
	{name: "mixed_kops", unit: "kops/s", better: "higher", bound: 0.25},
	{name: "put_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "mem_bytes_per_key", unit: "B/key", better: "lower", bound: 0.01},
}

// extras are end-to-end cells that exist on some workloads only. The
// driver's contract wants every end_to_end metric from every workload, so
// these are not in BENCHMARK.json; an untraced run still measures them at
// full scale, prints them, writes them to the result file, and -compare
// holds them to the bounds below.
var extras = []metricDef{
	{name: "getpipe_kops", unit: "kops/s", better: "higher", bound: 0.25, on: []string{"serve-durable"}},
	{name: "disk_bytes_per_key", unit: "B/key", better: "lower", bound: 0.01, on: []string{"serve-durable", "cold-url"}},
	// Tails and single events: their run-to-run spread on the builder's
	// host (12 to 34 %) is wider than any bound worth setting, so they are
	// reported without one.
	{name: "put_p99_us", unit: "us", better: "lower", on: []string{"serve-durable"}},
	{name: "ckpt_stall_ms", unit: "ms", better: "lower", on: []string{"serve-durable"}},
	{name: "recover_s", unit: "s", better: "lower", on: []string{"serve-durable"}},
	{name: "get_p99_us", unit: "us", better: "lower"},
	{name: "get_p50_us", unit: "us", better: "lower"},
	{name: "pager_hit_rate", unit: "ratio", better: "higher", on: []string{"cold-url"}},
	{name: "demote_ms", unit: "ms", better: "lower", on: []string{"cold-url"}},
}
