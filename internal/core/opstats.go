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

	// Cold-tier counters of the sharded pager path (see ShardedTree's
	// cold tier); always zero when no memory budget is active.
	PageHits      uint64 // cold reads served from the page cache
	PageMisses    uint64 // cold reads that fetched and decoded a block
	PageEvictions uint64 // pages evicted to keep the cache within budget
	Demotions     uint64 // shards demoted to their snapshot section
	Promotions    uint64 // shards promoted back to in-memory trees
}

// Sub returns s - prev counter-wise: the activity between two snapshots.
// QueueDepth is a gauge, not a counter, and passes through unsubtracted.
func (s OpStats) Sub(prev OpStats) OpStats {
	return OpStats{
		Normal:          s.Normal - prev.Normal,
		Pushdown:        s.Pushdown - prev.Pushdown,
		PullUp:          s.PullUp - prev.PullUp,
		Intermediate:    s.Intermediate - prev.Intermediate,
		NewRoot:         s.NewRoot - prev.NewRoot,
		Restarts:        s.Restarts - prev.Restarts,
		Backoffs:        s.Backoffs - prev.Backoffs,
		ValidationFails: s.ValidationFails - prev.ValidationFails,
		Contended:       s.Contended - prev.Contended,
		Enqueued:        s.Enqueued - prev.Enqueued,
		Steals:          s.Steals - prev.Steals,
		Drains:          s.Drains - prev.Drains,
		Drained:         s.Drained - prev.Drained,
		QueueFull:       s.QueueFull - prev.QueueFull,
		QueueDepth:      s.QueueDepth,
		PageHits:        s.PageHits - prev.PageHits,
		PageMisses:      s.PageMisses - prev.PageMisses,
		PageEvictions:   s.PageEvictions - prev.PageEvictions,
		Demotions:       s.Demotions - prev.Demotions,
		Promotions:      s.Promotions - prev.Promotions,
	}
}

// Add returns s + other counter-wise: the aggregate activity of several
// synchronization domains (the shard layer sums its per-shard tries).
func (s OpStats) Add(other OpStats) OpStats {
	return OpStats{
		Normal:          s.Normal + other.Normal,
		Pushdown:        s.Pushdown + other.Pushdown,
		PullUp:          s.PullUp + other.PullUp,
		Intermediate:    s.Intermediate + other.Intermediate,
		NewRoot:         s.NewRoot + other.NewRoot,
		Restarts:        s.Restarts + other.Restarts,
		Backoffs:        s.Backoffs + other.Backoffs,
		ValidationFails: s.ValidationFails + other.ValidationFails,
		Contended:       s.Contended + other.Contended,
		Enqueued:        s.Enqueued + other.Enqueued,
		Steals:          s.Steals + other.Steals,
		Drains:          s.Drains + other.Drains,
		Drained:         s.Drained + other.Drained,
		QueueFull:       s.QueueFull + other.QueueFull,
		QueueDepth:      s.QueueDepth + other.QueueDepth,
		PageHits:        s.PageHits + other.PageHits,
		PageMisses:      s.PageMisses + other.PageMisses,
		PageEvictions:   s.PageEvictions + other.PageEvictions,
		Demotions:       s.Demotions + other.Demotions,
		Promotions:      s.Promotions + other.Promotions,
	}
}

// String formats every counter in a fixed order, so the drivers
// (cmd/hot-exp, cmd/hot-chaos) and tests report uniformly. The
// submission-queue block is appended only when the async path was used, so
// unsharded reports stay unchanged.
func (s OpStats) String() string {
	out := fmt.Sprintf(
		"normal=%d pushdown=%d pullup=%d intermediate=%d newroot=%d "+
			"restarts=%d backoffs=%d validationfails=%d contended=%d",
		s.Normal, s.Pushdown, s.PullUp, s.Intermediate, s.NewRoot,
		s.Restarts, s.Backoffs, s.ValidationFails, s.Contended)
	if s.Enqueued|s.Steals|s.Drains|s.Drained|s.QueueFull|s.QueueDepth != 0 {
		out += fmt.Sprintf(" enqueued=%d steals=%d drains=%d drained=%d queuefull=%d queuedepth=%d",
			s.Enqueued, s.Steals, s.Drains, s.Drained, s.QueueFull, s.QueueDepth)
	}
	if s.PageHits|s.PageMisses|s.PageEvictions|s.Demotions|s.Promotions != 0 {
		out += fmt.Sprintf(" pagehits=%d pagemisses=%d pageevictions=%d demotions=%d promotions=%d",
			s.PageHits, s.PageMisses, s.PageEvictions, s.Demotions, s.Promotions)
	}
	return out
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
