package ycsb

import (
	"fmt"
	"math/rand"
	"time"
)

// Index is the index-structure interface the benchmark drives — the
// operations of Section 6.1's micro-benchmark.
type Index interface {
	Insert(k []byte, tid uint64) bool
	Upsert(k []byte, tid uint64) (uint64, bool)
	Lookup(k []byte) (uint64, bool)
	Scan(start []byte, n int, fn func(uint64) bool) int
}

// BatchIndex is optionally implemented by indexes whose point lookups can
// be issued as memory-level-parallel batches. The contract matches
// hot.Tree.LookupBatch: out[i] receives key i's TID (0 when absent) and
// the returned mask says which keys were found.
type BatchIndex interface {
	LookupBatch(keys [][]byte, out []uint64) []bool
}

// Result is one benchmark phase's outcome.
type Result struct {
	Ops      int
	Elapsed  time.Duration
	NotFound int        // reads that missed (should be 0: correctness signal)
	Scanned  int        // total entries returned by scans
	Latency  *Histogram // per-operation latencies, when capture is enabled
}

// Mops returns million operations per second, the paper's reporting unit.
func (r Result) Mops() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds() / 1e6
}

func (r Result) String() string {
	return fmt.Sprintf("%d ops in %v (%.2f mops)", r.Ops, r.Elapsed.Round(time.Millisecond), r.Mops())
}

// Runner drives one index instance through the load and transaction
// phases. keys[i] is stored under tids[i]; the first loadN keys belong to
// the load phase and the remainder is the insert reserve for the
// transaction phase.
type Runner struct {
	Idx  Index
	Keys [][]byte
	TIDs []uint64
	// CaptureLatency additionally records a per-operation latency
	// histogram during Run (adds one clock read per operation).
	CaptureLatency bool
	// BatchLookups > 1 groups read operations into batches of that size
	// and issues them through BatchIndex.LookupBatch (ignored when the
	// index does not implement it). Pending reads are flushed before any
	// mutation, so read-your-writes ordering is preserved; with latency
	// capture enabled, the read that fills a batch absorbs the whole
	// flush in its recorded latency.
	BatchLookups int
	seed         int64
	nLoad        int
}

// NewRunner builds a runner; loadN keys are inserted by Load, the rest
// feed transaction-phase inserts.
func NewRunner(idx Index, keys [][]byte, tids []uint64, loadN int, seed int64) *Runner {
	if loadN > len(keys) {
		loadN = len(keys)
	}
	return &Runner{Idx: idx, Keys: keys, TIDs: tids, nLoad: loadN, seed: seed}
}

// Load runs the insert-only load phase (keys arrive in generation order,
// which is random for all data sets).
func (r *Runner) Load() Result {
	start := time.Now()
	for i := 0; i < r.nLoad; i++ {
		if !r.Idx.Insert(r.Keys[i], r.TIDs[i]) {
			panic(fmt.Sprintf("ycsb: load insert %d failed (duplicate key?)", i))
		}
	}
	return Result{Ops: r.nLoad, Elapsed: time.Since(start)}
}

// Run executes ops transaction-phase operations of workload w under the
// given request distribution.
func (r *Runner) Run(w Workload, dist Distribution, ops int) Result {
	rng := rand.New(rand.NewSource(r.seed))
	picker := NewPicker(dist, r.nLoad)
	inserted := r.nLoad
	res := Result{Ops: ops}
	if r.CaptureLatency {
		res.Latency = &Histogram{}
	}
	sink := uint64(0)

	// Batched-read plumbing: reads accumulate into pending and are issued
	// as one LookupBatch when the batch fills or a mutation needs them
	// resolved first.
	batch := 0
	var bidx BatchIndex
	var pending [][]byte
	var bout []uint64
	if r.BatchLookups > 1 {
		if bi, ok := r.Idx.(BatchIndex); ok {
			bidx, batch = bi, r.BatchLookups
			pending = make([][]byte, 0, batch)
			bout = make([]uint64, batch)
		}
	}
	flush := func() {
		if len(pending) == 0 {
			return
		}
		found := bidx.LookupBatch(pending, bout)
		for i := range pending {
			if !found[i] {
				res.NotFound++
			}
			sink += bout[i]
		}
		pending = pending[:0]
	}

	var opStart time.Time
	start := time.Now()
	for i := 0; i < ops; i++ {
		if res.Latency != nil {
			opStart = time.Now()
		}
		switch w.pick(rng.Float64()) {
		case OpRead:
			idx := picker.Next(rng)
			if idx >= inserted {
				idx = inserted - 1
			}
			if batch > 0 {
				pending = append(pending, r.Keys[idx])
				if len(pending) == batch {
					flush()
				}
				break
			}
			tid, ok := r.Idx.Lookup(r.Keys[idx])
			if !ok {
				res.NotFound++
			}
			sink += tid
		case OpUpdate:
			if batch > 0 {
				flush()
			}
			idx := picker.Next(rng)
			if idx >= inserted {
				idx = inserted - 1
			}
			r.Idx.Upsert(r.Keys[idx], r.TIDs[idx])
		case OpInsert:
			if batch > 0 {
				flush()
			}
			if inserted < len(r.Keys) {
				r.Idx.Insert(r.Keys[inserted], r.TIDs[inserted])
				inserted++
				picker.Grow()
			}
		case OpScan:
			idx := picker.Next(rng)
			if idx >= inserted {
				idx = inserted - 1
			}
			n := 1 + rng.Intn(w.MaxScanLen)
			res.Scanned += r.Idx.Scan(r.Keys[idx], n, func(tid uint64) bool {
				sink += tid
				return true
			})
		case OpRMW:
			if batch > 0 {
				flush()
			}
			idx := picker.Next(rng)
			if idx >= inserted {
				idx = inserted - 1
			}
			tid, ok := r.Idx.Lookup(r.Keys[idx])
			if !ok {
				res.NotFound++
			}
			r.Idx.Upsert(r.Keys[idx], tid)
		}
		if res.Latency != nil {
			res.Latency.Record(time.Since(opStart))
		}
	}
	if batch > 0 {
		flush()
	}
	res.Elapsed = time.Since(start)
	if sink == 0x12345678DEADBEEF {
		fmt.Println() // defeat dead-code elimination of the lookups
	}
	return res
}
