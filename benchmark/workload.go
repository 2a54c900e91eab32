package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	hot "github.com/hotindex/hot"
	"github.com/hotindex/hot/internal/dataset"
	"github.com/hotindex/hot/internal/tidstore"
)

type options struct {
	w       *workloadCfg
	seed    int64
	seconds float64 // time for the time-boxed phases together
	scale   float64 // scales n and seconds; 1 in every measured run
	trace   bool
	dir     string // data directory root; a per-run subdirectory is made and removed
}

// target is one opened system under test.
type target struct {
	drv     driver
	index   func() hot.Index // the live index, for Len, Memory and Verify
	sharded *hot.ShardedTree // cold-url only
	sv      *served          // serve-durable only
}

func (t *target) close() error {
	if t.sv != nil {
		return t.sv.close()
	}
	return nil
}

// setUp is the timed set-up: generate the keys, fill the tuple store and
// open the index or the server (which is handed its keys by the load). The
// shard boundaries come from ks, the oracle made beforehand.
func setUp(o *options, n int, ks *keyset, dir string) (*target, error) {
	keys := dataset.Generate(o.w.kind, n, o.seed)
	if o.w.name == "serve-durable" {
		sv, err := openServed(dir, ks)
		if err != nil {
			return nil, err
		}
		return &target{drv: sv, sv: sv, index: func() hot.Index { return sv.srv.Tree() }}, nil
	}
	st := &tidstore.Store{}
	for _, k := range keys {
		st.Add(k)
	}
	if o.w.name == "embed-int" {
		tree := hot.New(st.Key)
		return &target{drv: newEmbedded(tree, ks), index: func() hot.Index { return tree }}, nil
	}
	tree := hot.NewShardedTree(st.Key, shardCount, ks.boundarySample())
	t := &target{drv: newEmbedded(tree, ks), index: func() hot.Index { return tree }}
	if o.w.name == "cold-url" {
		tree.SetSnapshotCodec(hot.SnapshotCodecPacked)
		t.sharded = tree
	}
	return t, nil
}

// runWorkload runs one workload once and returns everything it measured.
func runWorkload(o *options) (*result, error) {
	w := o.w
	wallStart := time.Now()
	n := int(float64(w.n) * o.scale)
	seconds := o.seconds * o.scale
	if o.trace {
		seconds /= 10
	}
	res := newResult(o, seconds)

	dir, err := os.MkdirTemp(o.dir, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Harness preparation, untimed: the oracle and the zipf table.
	ks := newKeyset(dataset.Generate(w.kind, n, o.seed))
	z := newZipf(n, zipfTheta)

	rounds := setupRounds
	if o.trace {
		rounds = 1
	}
	var t *target
	var setups, setupProbes []float64
	mem := &memProbe{sorted: ks.sorted}
	for i := 0; i < rounds; i++ {
		if t != nil {
			if err := t.close(); err != nil {
				return nil, err
			}
			t = nil
		}
		runtime.GC()
		t0 := time.Now()
		if t, err = setUp(o, n, ks, filepath.Join(dir, fmt.Sprintf("r%d", i))); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		setupProbes = append(setupProbes, mem.run())
	}
	defer func() { t.close() }()

	r := &runner{w: w}
	r.probes[calMem] = mem
	var disk *fsyncProbe
	if w.loadCal == calFsync {
		f, err := os.Create(filepath.Join(dir, "fsync.probe"))
		if err != nil {
			return nil, err
		}
		defer f.Close()
		disk = &fsyncProbe{f: f, n: max(20, int(probeFsyncs*o.scale))}
		r.probes[calFsync] = disk
	}
	if o.trace {
		r.tr = newTracer()
	}
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	// Load: fixed work, n keys in loadSlices slices, in TID order.
	next := uint32(0)
	load := r.run(phaseSpec{name: "load", cal: w.loadCal, sliceOps: n / loadSlices, minSlices: loadSlices, maxSlices: loadSlices},
		func(buf []uint32) {
			for i := range buf {
				buf[i] = next
				next++
			}
		}, t.drv.insert)
	for rest := []uint32{0}; int(next) < n; next++ { // n not divisible by loadSlices
		rest[0] = next
		r.failed += t.drv.insert(&slice{idx: rest})
		r.attempted++
	}

	extra := res.Extras
	if t.sharded != nil {
		decoded := 0 // bytes the cold shards' pages take once decoded
		for _, k := range ks.sorted[:n*coldShards/shardCount] {
			decoded += len(k) + 12
		}
		t0 := time.Now()
		err := t.sharded.EnableColdTier(hot.ColdTierConfig{Dir: filepath.Join(dir, "cold"),
			MemoryBudget: int64(coldBudgetShare * float64(t.sharded.Memory().GoBytes)),
			CacheBytes:   int64(coldCacheShare * float64(decoded))})
		for s := 0; err == nil && s < coldShards; s++ {
			err = t.sharded.Demote(s)
		}
		if err != nil {
			return nil, err
		}
		extra.set("demote_ms", time.Since(t0).Seconds()*1e3, "ms")
	}

	// Warm-up: fixed work, so the caches and (cold-url) the pager are in
	// the same state on every run when the footprint is taken.
	warm := phaseStream(w, "warm", o.seed, n, z)
	buf := make([]uint32, 1000)
	for done := 0; done < int(warmGets*o.scale); done += len(buf) {
		warm.fill(buf)
		r.failed += t.drv.get(&slice{idx: buf})
		r.attempted += len(buf)
	}

	foot := t.index().Memory()
	r.check(t.index().Len() == n)
	memPerKey := float64(int64(foot.GoBytes)+foot.CacheBytes) / float64(n)
	if t.sharded != nil {
		cold := 0
		for s := 0; s < shardCount; s++ {
			if t.sharded.IsCold(s) {
				cold += t.sharded.ShardLen(s)
			}
		}
		extra.set("disk_bytes_per_key", float64(foot.ColdBytes)/float64(cold), "B/key")
	}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)

	// The time-boxed phases.
	for _, pc := range w.phases {
		spec := phaseSpec{name: pc.name, cal: pc.cal, budget: time.Duration(pc.share * seconds * float64(time.Second)),
			sliceOps: pc.sliceOps, minSlices: pc.minSlices, maxSlices: 1 << 20,
			latency: pc.name == "getlat" || pc.name == "put"}
		if o.trace || o.scale < 1 {
			spec.minSlices = 2 // one untraced, one traced
		}
		if o.scale < 1 { // smoke runs: a tenth of the slice, but still a p99 with its tail
			spec.sliceOps = max(256, spec.sliceOps/10)
			if spec.latency {
				spec.sliceOps = max(1024, spec.sliceOps)
			}
		}
		var exec func(*slice) int
		switch pc.name {
		case "get", "getlat":
			exec = t.drv.get
		case "getbatch":
			exec = t.drv.getBatch
		case "getpipe":
			exec = t.sv.getPipe
		case "scan":
			exec = t.drv.scan
		case "mixed":
			exec = t.drv.mixed
		case "put":
			exec = t.drv.put
		}
		var c0 hot.ColdTierStats
		if t.sharded != nil {
			c0 = t.sharded.ColdStats()
		}
		r.run(spec, phaseStream(w, pc.name, o.seed, n, z).fill, exec)
		if t.sharded != nil && pc.name == "get" {
			c1 := t.sharded.ColdStats()
			hits, misses := c1.CacheHits-c0.CacheHits, c1.CacheMisses-c0.CacheMisses
			extra.set("pager_hit_rate", float64(hits)/float64(hits+misses), "ratio")
		}
	}

	if t.sv != nil && !o.trace {
		if err := serveTail(o, r, t.sv, phaseStream(w, "tail", o.seed, n, z), extra); err != nil {
			return nil, err
		}
	}

	// Untimed: the structural audit and a read-back of every key.
	r.check(t.index().Verify() == nil)
	r.check(t.index().Len() == n)
	r.readBack(t.drv, ks)
	r.check(mem.bad == 0 && (disk == nil || disk.bad == 0))
	var ms2 runtime.MemStats
	runtime.ReadMemStats(&ms2)

	get, getlat, put := r.phase("get"), r.phase("getlat"), r.phase("put")
	e2e := metricSet{}
	e2e.set("setup_s", calibrated(setups, setupProbes, r.ref(calMem), true), "s")
	e2e.set("insert_kops", load.kops(), "kops/s")
	e2e.set("get_kops", get.kops(), "kops/s")
	e2e.set("getbatch_kops", r.phase("getbatch").kops(), "kops/s")
	e2e.set("scan_kops", r.phase("scan").kops(), "kscans/s")
	e2e.set("mixed_kops", r.phase("mixed").kops(), "kops/s")
	e2e.set("put_p50_us", put.us(put.P50us), "us")
	e2e.set("mem_bytes_per_key", memPerKey, "B/key")
	extra.set("get_p50_us", median(getlat.P50us), "us")
	extra.set("get_p99_us", median(getlat.P99us), "us")
	extra.set("raw.setup_s", median(setups), "s")
	extra.set("raw.put_p50_us", median(put.P50us), "us")
	if t.sv != nil {
		extra.set("getpipe_kops", r.phase("getpipe").kops(), "kops/s")
		extra.set("put_p99_us", put.us(put.P99us), "us")
		extra.set("calib.fsync_kops", median(append(append([]float64{}, load.ProbeRates...), put.ProbeRates...))/1e3, "kops/s")
	}

	// The raw wall-clock rate of every calibrated cell, and the memory
	// probe's own rate and scatter: the host-noise indicators.
	layer := metricSet{}
	var probes []float64
	for _, p := range r.phases {
		if p.cal == calMem {
			probes = append(probes, p.ProbeRates...)
		}
		switch p.Name {
		case "load":
			layer.set("raw.insert_kops", p.rawKops(), "kops/s")
		case "get", "getbatch", "mixed":
			layer.set("raw."+p.Name+"_kops", p.rawKops(), "kops/s")
		case "scan":
			layer.set("raw.scan_kops", p.rawKops(), "kscans/s")
		}
	}
	layer.set("calib.kops", median(probes)/1e3, "kops/s")
	layer.set("calib.cv", cv(probes), "ratio")
	if o.trace {
		layer.set("raw.get_p50_us", median(getlat.P50us), "us")
		layer.set("trace.overhead_pct", 100*(1-median(get.tracedRates)/median(get.Rates)), "%")
		layer.set("trace.spans", float64(len(r.tr.spans)), "count")
		if st := r.tr.stats()["slice.get"]; st != nil && st.total > 0 {
			layer.set("trace.harness_self_pct", 100*float64(st.self)/float64(st.total), "%")
		}
		layer.set("runtime.gc_cycles", float64(ms2.NumGC-ms0.NumGC), "count")
		layer.set("runtime.gc_pause_ms", float64(ms2.PauseTotalNs-ms0.PauseTotalNs)/1e6, "ms")
		layer.set("runtime.heap_bytes_per_key", float64(ms1.HeapAlloc)/float64(n), "B/key")
		if err := runLadder(o, ks.prefix(int(ladderN*o.scale)), dir, layer, res); err != nil {
			return nil, err
		}
		res.Metrics = layer
		for k, v := range e2e {
			extra[k] = v
		}
		res.tracer = r.tr
	} else {
		res.Metrics = e2e
		for k, v := range layer {
			extra[k] = v
		}
	}
	res.Phases = r.phases
	res.Attempted, res.Failed = r.attempted, r.failed
	res.Correct = r.failed == 0
	res.WallS = time.Since(wallStart).Seconds()
	return res, nil
}

// readBack looks every key up once more through the driver, in key order
// (so a cold shard's pages are each read once).
func (r *runner) readBack(drv driver, ks *keyset) {
	const step = batchSize * 32
	for lo := 0; lo < len(ks.order); lo += step {
		part := ks.order[lo:min(lo+step, len(ks.order))]
		r.failed += drv.getBatch(&slice{idx: part})
		r.attempted += len(part)
	}
}

// serveTail is serve-durable's fixed-work tail: ckptRounds checkpoints
// under a put loop, then reopenRounds close/reopen cycles, each recovering
// the same shape of directory: a fresh checkpoint plus reopenTailPuts log
// records. After each reopen Len and every acknowledged put are checked.
func serveTail(o *options, r *runner, sv *served, st *stream, extra metricSet) error {
	puts := func(n int) {
		buf := make([]uint32, n)
		st.fill(buf)
		r.failed += sv.put(&slice{idx: buf})
		r.attempted += n
	}
	var stalls []float64
	for i := 0; i < ckptRounds; i++ {
		puts(ckptWarmPuts)
		stall, n, bad, err := sv.checkpointStall(st)
		if err != nil {
			return err
		}
		r.attempted += n
		r.failed += bad
		stalls = append(stalls, stall.Seconds()*1e3)
	}
	extra.set("ckpt_stall_ms", median(stalls), "ms")

	var recovers []float64
	n := len(sv.ks.keys)
	for i := 0; i < reopenRounds; i++ {
		if err := sv.srv.Tree().Checkpoint(); err != nil {
			return err
		}
		puts(int(reopenTailPuts * o.scale))
		if i == 0 {
			b, err := dirBytes(sv.opts.Dir)
			if err != nil {
				return err
			}
			extra.set("disk_bytes_per_key", float64(b)/float64(n), "B/key")
		}
		d, err := sv.reopen()
		if err != nil {
			return err
		}
		recovers = append(recovers, d.Seconds())
		r.check(sv.srv.Tree().Len() == n)
		r.readBack(sv, sv.ks)
	}
	extra.set("recover_s", median(recovers), "s")
	return nil
}
