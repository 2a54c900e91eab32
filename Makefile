# Development entry points. `make all` is the full local CI pass; the
# hosted pipeline (.github/workflows/ci.yml) runs the same six tiers as
# separate gating jobs (TestCIWorkflowCoversAllTiers keeps the two in
# sync).

GO ?= go

# Per-target budget for `make fuzz`; the nightly CI job overrides it with
# FUZZTIME=20s to fit its time box.
FUZZTIME ?= 30s

.PHONY: all ci check race chaos crash server-smoke net-chaos fuzz bench ab loc clean

all: check race chaos crash server-smoke net-chaos

# `make ci` is the conventional alias the hosted pipeline and humans share.
ci: all

# Tier-1: formatting, vet, build everything, run the full test suite —
# and the same for the benchmark module, which imports internal/persist,
# internal/pager and internal/wire directly: an internal API break must
# fail here, not at the next benchmark run.
# go vet's copylocks/atomic/unusedresult analyzers are the ones that bite
# here: the alignment- and padding-sensitive structs (asyncShard, the
# shard writer lock and its async counters padded to a cache line; core's
# table of readers' key buffers, a leased flag per cache line; the slot
# array of shard.Queue, which only the benchmark's ladder still uses) embed
# sync/atomic types and locks that must never be copied by value — keep
# internal/shard and internal/core in the vet set when narrowing the
# package list.
# The next six lines vet and build the !amd64 side of internal/bits
# (bits_noasm.go), which an amd64 build never compiles, run its tests
# there — the portable PEXT and search are all a 386 build has —
# and run internal/core as a 32-bit program: its 64-bit atomic TID stores
# fault on a word that is not 8-byte aligned there (see core's slot
# layout). internal/tidstore runs there too: a slot's offset is a uint64
# product that indexes a slice, and a TID whose offset wraps must panic
# with a 32-bit int as well. So does internal/persist: a length decode
# refuses what the platform's int cannot hold. The last two vet and build
# for other operating systems, which compile internal/persist's non-Linux
# datasync (a plain fsync) instead of fdatasync.
check:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test ./...
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=386 $(GO) build ./...
	GOARCH=386 $(GO) test ./internal/bits
	GOARCH=386 $(GO) test ./internal/core
	GOARCH=386 $(GO) test ./internal/tidstore
	GOARCH=386 $(GO) test ./internal/persist
	GOOS=darwin GOARCH=arm64 $(GO) vet ./...
	GOOS=windows $(GO) build ./...

# Concurrency tier: every package under the race detector, twice (ordering
# flakes rarely repeat). This covers the root concurrent/sharded churn
# tests, the ROWEX writer path, readers of nodes replaced under constant
# garbage collection (the collector is the only reclamation) and the
# snapshot layer.
# No test below is gated by -short or an environment variable, so this
# one command is also, under -race:
#   - the cold-tier e2e (TestColdTier*, internal/pager, the page-reader
#     surface of internal/persist): a dataset several times the memory
#     budget churned by concurrent writers — whose inserts, upserts and
#     deletes land in cold shards' deltas, a delete as a tombstone — readers and
#     random demote/fold/promote transitions, reconciled byte-for-byte
#     against an in-memory oracle; a zipf upsert stream folded under a
#     budget; plus the durable recovery sequence (cold shards surviving
#     reopen, a log tail replayed into a cold shard's delta, the
#     checkpoint folding it, a promoted shard's checkpoint cut, a
#     salvaged base healed, a legacy cold-NNN.hot removed by a cut);
#   - the packed-block codec suite (TestCodec* here and in
#     internal/persist): encode/decode round trips across key shapes,
#     byte-identity of raw files, truncation and bit-flip sweeps over
#     packed snapshots (salvage never fabricates), the codec-skew matrix
#     (packed file + codec-disabled reader fails typed, old raw files
#     always load), the crash matrix swept over both codecs, and the cold
#     tier serving reads from packed section files against a resident
#     oracle.
race:
	$(GO) test -race -count=2 ./...

# Chaos smoke: seeded concurrent churn with every injection point armed,
# against both the single ConcurrentTree and the range-sharded writer path
# — the latter over a cold tier, so its writes include cold shards' delta
# writes (deletes as tombstones) and folds; fails on any structural-invariant
# violation, and the sharded run on any write that promoted a shard.
chaos:
	$(GO) run ./cmd/hot-chaos -seed 1 -ops 100000
	$(GO) run ./cmd/hot-chaos -seed 1 -ops 100000 -shards 4

# Crash matrix: a subprocess writer is killed at every snapshot I/O
# injection point (fixed seed) and the parent must recover a verifiable
# tree from what is left on disk — for both the flat snapshot format and
# the multiplexed sharded format. The WAL matrix additionally kills a
# durable writer at every log I/O point (append, torn write, fsync,
# rotate, recovery-time truncation) plus every snapshot point mid-cut —
# a checkpoint's, a demotion's and a checkpoint's fold of cold shards'
# deltas — and requires recovery of every acknowledged write; it runs
# under -race because group commit is the one multi-goroutine WAL path.
# The async wal/extend rows run twenty times more: their kill waits on a
# commit another goroutine is still writing, a timing one run rarely
# varies.
crash:
	$(GO) test -run 'TestCrashMatrix' -count=1 -v ./internal/persist/
	$(GO) test -run 'TestShardedCrashMatrix' -count=1 -v .
	$(GO) test -race -run 'TestWALCrashMatrix' -count=1 -v .
	$(GO) test -race -run 'TestWALCrashMatrix/async/wal/extend' -count=20 .

# End-to-end network smoke: a durable leader on a loopback socket, a
# client loading and reading over the wire, and a follower bootstrapped by
# streaming replication that then serves reads — the whole cmd/hot-server
# stack in a few seconds.
server-smoke:
	$(GO) run ./cmd/hot-server -smoke

# Network-chaos e2e: leader/follower replication and the retrying clients
# driven through a fault-injecting TCP proxy — partitions healed by LSN
# resume, rotation-forced full resyncs, wedged-consumer eviction, overload
# rejection, idle eviction, graceful drain, and a multi-follower reconnect
# storm. Runs under -race: the storm's whole point is teardown/reconnect
# ordering.
net-chaos:
	$(GO) test -race -run 'TestNetChaos' -count=1 -v ./internal/server/
	$(GO) test -race -count=1 ./internal/chaos/ ./internal/hotclient/

# Short exploratory fuzz burst over each public-API fuzz target. Each
# line caps the minimization of a new input at 10 runs of it: the default,
# 60s, spent most of a 20s burst shrinking one or two inputs instead of
# running new ones.
# This list must track the Fuzz* functions across all _test.go files — add
# a line here whenever a target is added (TestMakefileFuzzListCoversAllTargets
# fails the build when the two drift apart).
fuzz:
	$(GO) test -fuzz FuzzTreeVerify -fuzztime $(FUZZTIME) -fuzzminimizetime 10x .
	$(GO) test -fuzz FuzzMap -fuzztime $(FUZZTIME) -fuzzminimizetime 10x .
	$(GO) test -fuzz FuzzLookupBatch -fuzztime $(FUZZTIME) -fuzzminimizetime 10x .
	$(GO) test -fuzz FuzzSnapshotLoad -fuzztime $(FUZZTIME) -fuzzminimizetime 10x .
	$(GO) test -fuzz FuzzShardedSnapshotLoad -fuzztime $(FUZZTIME) -fuzzminimizetime 10x .
	$(GO) test -fuzz FuzzSnapshotRoundTrip -fuzztime $(FUZZTIME) -fuzzminimizetime 10x .
	$(GO) test -fuzz FuzzWALReplay -fuzztime $(FUZZTIME) -fuzzminimizetime 10x .
	$(GO) test -fuzz FuzzTieredShardOps -fuzztime $(FUZZTIME) -fuzzminimizetime 10x .
	$(GO) test -fuzz FuzzPageReader -fuzztime $(FUZZTIME) -fuzzminimizetime 10x ./internal/persist/
	$(GO) test -fuzz FuzzBlockCodec -fuzztime $(FUZZTIME) -fuzzminimizetime 10x ./internal/persist/
	$(GO) test -fuzz FuzzSearch -fuzztime $(FUZZTIME) -fuzzminimizetime 10x ./internal/bits/
	$(GO) test -fuzz FuzzNodeBlock -fuzztime $(FUZZTIME) -fuzzminimizetime 10x ./internal/core/
	$(GO) test -fuzz FuzzScan -fuzztime $(FUZZTIME) -fuzzminimizetime 10x ./internal/core/
	$(GO) test -fuzz FuzzStore -fuzztime $(FUZZTIME) -fuzzminimizetime 10x ./internal/tidstore/
	$(GO) test -fuzz FuzzMismatchBit -fuzztime $(FUZZTIME) -fuzzminimizetime 10x ./internal/key/
	$(GO) test -fuzz FuzzServerFrame -fuzztime $(FUZZTIME) -fuzzminimizetime 10x ./internal/server/
	$(GO) test -fuzz FuzzKeyMap -fuzztime $(FUZZTIME) -fuzzminimizetime 10x ./internal/server/
	$(GO) test -fuzz FuzzWireResume -fuzztime $(FUZZTIME) -fuzzminimizetime 10x ./internal/wire/
	$(GO) test -fuzz FuzzClientReply -fuzztime $(FUZZTIME) -fuzzminimizetime 10x ./internal/hotclient/

bench:
	$(GO) test -bench . -benchtime 1s -run - . ./internal/persist ./internal/bits ./internal/core ./internal/server

# A/B of Go benchmarks across code layouts: PKG's test binary at PARENT and
# in the working tree, each built under K linker layout seeds, BENCH run
# ROUNDS times on every binary, sides alternating; prints each side's
# median of its layout medians, their spread, and the change's delta.
# BENCH is passed unexpanded, so a regex may hold '$'. Not a tier of all.
# Example:
#   make ab BENCH='NodeSearch' PKG=./internal/core PARENT=HEAD K=3 ROUNDS=5
PARENT ?= HEAD
PKG ?= ./internal/core
K ?= 3
ROUNDS ?= 5
BENCHTIME ?= 1s
ab:
	PARENT='$(PARENT)' PKG='$(PKG)' BENCH='$(value BENCH)' K='$(K)' ROUNDS='$(ROUNDS)' BENCHTIME='$(BENCHTIME)' GO='$(GO)' bash scripts/ab.sh

# Code-only line table — non-test Go lines that are neither blank nor a
# comment line, for the root package, every internal/* and cmd/* package,
# and everything outside benchmark/ (examples included) — plus, on a line
# of its own, the same count over each package's assembly (.s) files, and
# the root package's exported surface, one line of `go doc -all` per
# function, method, type, var and const group: the figures the simplicity
# PRs report before and after in CHANGES.md. Below the `.` line, the root
# package file by file. Not a tier of all.
loc:
	@count() { cat /dev/null "$$@" | grep -v '^\s*//' | grep -v '^\s*$$' | wc -l; }; \
	printf '%-24s %6d\n' . $$(count $$(ls *.go | grep -v _test.go)); \
	for f in $$(ls *.go | grep -v _test.go); do printf '  %-22s %6d\n' $$f $$(count $$f); done; \
	for d in internal/* cmd/*; do \
		printf '%-24s %6d\n' $$d $$(count $$(find $$d -name '*.go' ! -name '*_test.go')); \
		asm=$$(find $$d -name '*.s'); \
		if [ -n "$$asm" ]; then printf '%-24s %6d\n' "$$d (.s)" $$(count $$asm); fi; \
	done; \
	printf '%-24s %6d\n' 'total outside benchmark/' \
		$$(count $$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*')); \
	printf '%-24s %6d\n' 'exported (root)' \
		$$($(GO) doc -all . | grep -cE '^(func|type|    func|var|const)')

clean:
	$(GO) clean -testcache
