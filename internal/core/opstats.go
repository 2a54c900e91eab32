package core

import "fmt"

// OpStats reports how often each insertion structure-adaptation case fired
// (Section 3.2) plus the robustness counters of the ROWEX writer path:
// restarts, backoffs and validation failures (zero on the single-threaded
// trie).
type OpStats struct {
	Normal       uint64 // normal inserts (splice into the affected node)
	Pushdown     uint64 // leaf-node pushdowns
	PullUp       uint64 // parent pull ups
	Intermediate uint64 // intermediate node creations
	NewRoot      uint64 // root creations (the only case growing the height)

	Restarts        uint64 // write attempts retried after a failed attempt
	Backoffs        uint64 // restarts that escalated to a parked sleep
	ValidationFails uint64 // step-(c) validation failures under locks
}

// opStatsFields is the one table of OpStats' counters: Sub, Add and String
// iterate it, so a new counter is one struct field plus one row here
// (TestOpStatsTableCoversEveryField fails when the row is forgotten). The
// cold tier's counters are not here: they are ShardedTree's STATS rows.
var opStatsFields = [...]struct {
	name string
	at   func(*OpStats) *uint64
}{
	{"normal", func(s *OpStats) *uint64 { return &s.Normal }},
	{"pushdown", func(s *OpStats) *uint64 { return &s.Pushdown }},
	{"pullup", func(s *OpStats) *uint64 { return &s.PullUp }},
	{"intermediate", func(s *OpStats) *uint64 { return &s.Intermediate }},
	{"newroot", func(s *OpStats) *uint64 { return &s.NewRoot }},
	{"restarts", func(s *OpStats) *uint64 { return &s.Restarts }},
	{"backoffs", func(s *OpStats) *uint64 { return &s.Backoffs }},
	{"validationfails", func(s *OpStats) *uint64 { return &s.ValidationFails }},
}

// Sub returns s - prev counter-wise: the activity between two snapshots.
func (s OpStats) Sub(prev OpStats) OpStats {
	for _, f := range opStatsFields {
		*f.at(&s) -= *f.at(&prev)
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
// (cmd/hot-exp, cmd/hot-chaos) and tests report uniformly.
func (s OpStats) String() string {
	var out []byte
	for _, f := range opStatsFields {
		out = fmt.Appendf(out, " %s=%d", f.name, *f.at(&s))
	}
	return string(out[1:])
}

// OpStats returns the insertion-case counters and the robustness
// counters, which only ROWEX writers move: on the single-threaded trie and
// under a ConcurrentTrie's exclusive Writer they stay zero.
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
