package core

import "fmt"

// OpStats reports how often each insertion structure-adaptation case fired
// (Section 3.2) plus the robustness counters of the ROWEX writer path:
// restarts, backoffs and validation failures (zero on the single-threaded
// trie) and epoch pin-slot contention.
type OpStats struct {
	Normal       uint64 // normal inserts (splice into the affected node)
	Pushdown     uint64 // leaf-node pushdowns
	PullUp       uint64 // parent pull ups
	Intermediate uint64 // intermediate node creations
	NewRoot      uint64 // root creations (the only case growing the height)

	Restarts        uint64 // write attempts retried after a failed attempt
	Backoffs        uint64 // restarts that escalated to a parked sleep
	ValidationFails uint64 // step-(c) validation failures under locks
	Contended       uint64 // epoch Enter sweeps finding no free pin slot

	// Submission-queue counters of the sharded async write path; always
	// zero on unsharded tries. QueueDepth is a point-in-time gauge (ops
	// currently queued across all shards), the rest are cumulative.
	Enqueued   uint64 // async ops deposited into a busy shard's ring
	Steals     uint64 // drains a worker ran for a shard other than its target
	Drains     uint64 // drain batch slices executed under a writer token
	Drained    uint64 // async ops applied from rings (avg batch = Drained/Drains)
	QueueFull  uint64 // deposits rejected by a full ring
	QueueDepth uint64 // ops queued right now (gauge, not cumulative)
}

// opStatsFields is the one table of OpStats' counters: Sub, Add and String
// iterate it, so a new counter is one struct field plus one row here
// (TestOpStatsTableCoversEveryField fails when the row is forgotten).
// String prints group 0 always and group 1 only when one of its members is
// nonzero, so unsharded reports carry no queue block. A gauge is a
// point-in-time value: Sub passes it through unsubtracted. The cold tier's
// counters are not here: they are ShardedTree's STATS rows.
var opStatsFields = [...]struct {
	name  string
	group int
	gauge bool
	at    func(*OpStats) *uint64
}{
	{"normal", 0, false, func(s *OpStats) *uint64 { return &s.Normal }},
	{"pushdown", 0, false, func(s *OpStats) *uint64 { return &s.Pushdown }},
	{"pullup", 0, false, func(s *OpStats) *uint64 { return &s.PullUp }},
	{"intermediate", 0, false, func(s *OpStats) *uint64 { return &s.Intermediate }},
	{"newroot", 0, false, func(s *OpStats) *uint64 { return &s.NewRoot }},
	{"restarts", 0, false, func(s *OpStats) *uint64 { return &s.Restarts }},
	{"backoffs", 0, false, func(s *OpStats) *uint64 { return &s.Backoffs }},
	{"validationfails", 0, false, func(s *OpStats) *uint64 { return &s.ValidationFails }},
	{"contended", 0, false, func(s *OpStats) *uint64 { return &s.Contended }},
	{"enqueued", 1, false, func(s *OpStats) *uint64 { return &s.Enqueued }},
	{"steals", 1, false, func(s *OpStats) *uint64 { return &s.Steals }},
	{"drains", 1, false, func(s *OpStats) *uint64 { return &s.Drains }},
	{"drained", 1, false, func(s *OpStats) *uint64 { return &s.Drained }},
	{"queuefull", 1, false, func(s *OpStats) *uint64 { return &s.QueueFull }},
	{"queuedepth", 1, true, func(s *OpStats) *uint64 { return &s.QueueDepth }},
}

// Sub returns s - prev counter-wise: the activity between two snapshots.
// QueueDepth is a gauge, not a counter, and passes through unsubtracted.
func (s OpStats) Sub(prev OpStats) OpStats {
	for _, f := range opStatsFields {
		if !f.gauge {
			*f.at(&s) -= *f.at(&prev)
		}
	}
	return s
}

// Add returns s + other counter-wise: the aggregate activity of several
// synchronization domains (the shard layer sums its per-shard tries).
func (s OpStats) Add(other OpStats) OpStats {
	for _, f := range opStatsFields {
		*f.at(&s) += *f.at(&other)
	}
	return s
}

// String formats every counter in a fixed order, so the drivers
// (cmd/hot-exp, cmd/hot-chaos) and tests report uniformly. The
// submission-queue block is appended only when the async path was used, so
// unsharded reports stay unchanged.
func (s OpStats) String() string {
	var used [2]bool
	used[0] = true
	for _, f := range opStatsFields {
		if *f.at(&s) != 0 {
			used[f.group] = true
		}
	}
	var out []byte
	for _, f := range opStatsFields {
		if used[f.group] {
			out = fmt.Appendf(out, " %s=%d", f.name, *f.at(&s))
		}
	}
	return string(out[1:])
}

// OpStats returns the insertion-case counters. The robustness counters are
// populated by the concurrent trie (see ConcurrentTrie.OpStats); on the
// single-threaded trie they are always zero.
func (t *tree) OpStats() OpStats {
	return OpStats{
		Normal:          t.ops.normal.Load(),
		Pushdown:        t.ops.pushdown.Load(),
		PullUp:          t.ops.pullup.Load(),
		Intermediate:    t.ops.intermediate.Load(),
		NewRoot:         t.ops.newRoot.Load(),
		Restarts:        t.ops.restarts.Load(),
		Backoffs:        t.ops.backoffs.Load(),
		ValidationFails: t.ops.validationFails.Load(),
	}
}
