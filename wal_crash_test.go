package hot

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/hotindex/hot/internal/chaos"
)

// WAL crash matrix: a subprocess runs a durable ShardedUint64Set with the
// cold tier armed under a synchronous insert/delete stream interleaved
// with the store's lifecycle events — periodic Checkpoints, Demotes, and
// the delta writes cold shards take, a delete of a section key as a
// tombstone — recording every operation in a side
// "oplog" — a synced intent line before the op, a synced ack line after it
// returns (i.e. after its group-commit fsync). The child is killed at
// every armed WAL fault point and, once per kind of cut, at every snapshot
// fault point and at the log rotation. Every cut writes the shard's
// snap-NNN.hot over its previous one; the kinds differ in the shard's
// state: the "snap" phase makes the first armed cut a Checkpoint of a hot
// shard (which stays hot), the "cold" phase a Demote of a hot shard, the
// "fold" phase a Checkpoint's fold of a cold shard (its delta — the log
// tail past the old base — folded in), and a side "cutlog", where each
// event notes the kind of the cut it is about to make first, proves which
// one the kill landed in. The fold
// phase's shards stay cold throughout — its deletes, of section keys and of
// delta keys alike, stay in the deltas — and it runs the WAL fault points
// too: its writes are delta writes. The parent then
// reopens copies of the wreck with and without the cold tier, each copy
// once more under the other option, and every time requires a Verify-clean
// set whose contents are exactly the acked operations applied in order —
// every acknowledged write recovered, and after a fold-phase kill under the
// cold tier every shard still cold with its tail in its delta — give or
// take only the single
// trailing intent that never acked (a write in flight at the kill, which a
// real client would also see as unacknowledged). WalTruncate needs a second
// phase: one child leaves a torn tail (killed at WalTornWrite), the next is
// killed during recovery's tail truncation, and the parent proves recovery
// is re-runnable.
//
// The async matrix runs the same kills against the other acknowledgement
// point. After the same warm-up the child submits the stream in batches of
// walCrashBatch InsertAsync/DeleteAsync calls, one intent line before a
// batch and one ack line after its Flush returns, and every second batch
// has its lifecycle event in the middle — between un-flushed submissions,
// so the cut lands on records whose fsync is still owed. The parent
// requires every acked batch exactly and, of the one batch in flight, in
// each shard some prefix of the ops submitted to it, in submission order,
// and nothing else: an un-flushed async write may or may not survive, but
// never without the ones its shard applied before it.

const (
	walCrashEnvPoint = "HOT_WAL_CRASH_POINT"
	walCrashEnvDir   = "HOT_WAL_CRASH_DIR"
	walCrashEnvPhase = "HOT_WAL_CRASH_PHASE"
	walCrashEnvAsync = "HOT_WAL_CRASH_ASYNC"
	walCrashSeed     = 91
	walCrashShards   = 4
	walCrashExit     = 3
	walCrashBatch    = 32 // ops per async batch: eight to a shard
)

func walCrashSample() []uint64 {
	sample := make([]uint64, 64)
	for i := range sample {
		sample[i] = uint64(i) * 1600
	}
	return sample
}

// walCrashOp derives the deterministic op stream: three inserts, then a
// delete of the value inserted lag+3 ops earlier. The synchronous stream has
// no lag. The async stream lags by one batch, so a batch's deletes undo
// inserts the log already holds durably: a recovery that restored a base
// covering such a delete but replayed a log that stops short of it would
// bring the value back, which no prefix of the batch explains.
func walCrashOp(i, lag int) (del bool, v uint64) {
	if i%4 == 3 {
		return true, walCrashVal(i - 3 - lag)
	}
	return false, walCrashVal(i)
}

func walCrashVal(i int) uint64 { return uint64(i) * 2654435761 % 100000 }

// walCrashOpen opens the matrix's store, with the cold tier armed for
// manual transitions when cold is set.
func walCrashOpen(dir string, cold bool) (*ShardedUint64Set, RecoveryInfo, error) {
	var opts DurableOptions
	if cold {
		opts.ColdTier = &ColdTierConfig{}
	}
	return OpenDurableShardedUint64Set(dir, walCrashShards, walCrashSample(), opts)
}

func walCrashChild(pointName, dir, phase string, async bool) {
	var point chaos.Point
	found := false
	for _, p := range chaos.Points() {
		if p.String() == pointName {
			point, found = p, true
			break
		}
	}
	if !found {
		fmt.Fprintf(os.Stderr, "unknown injection point %q\n", pointName)
		os.Exit(4)
	}

	if phase == "recover" {
		// Arm before opening: the point (WalTruncate) fires inside the
		// recovery path while it cuts off the torn tail a previous child
		// left behind.
		reg := chaos.New(walCrashSeed)
		reg.On(point, 1, chaos.Exit(walCrashExit))
		reg.Arm()
		_, _, err := walCrashOpen(dir, true)
		chaos.Disarm()
		fmt.Fprintf(os.Stderr, "recovery point %s never fired (open err: %v)\n", pointName, err)
		os.Exit(5)
	}

	set, _, err := walCrashOpen(dir, true)
	if err != nil {
		fmt.Fprintf(os.Stderr, "child open: %v\n", err)
		os.Exit(4)
	}
	cutlog, err := os.OpenFile(filepath.Join(dir, "cutlog"), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		fmt.Fprintf(os.Stderr, "child cutlog: %v\n", err)
		os.Exit(4)
	}
	// Each lifecycle event notes the kind of its first cut before it runs,
	// so the parent can tell which kind of cut a kill interrupted (a kill
	// point fires at its first hit, so in that event's first cut).
	noteCut := func(demote bool, first int) {
		dest := walCrashFirstCut(set.t, demote, first)
		if _, err := fmt.Fprintln(cutlog, dest); err == nil {
			err = cutlog.Sync()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "child cutlog write: %v\n", err)
			os.Exit(4)
		}
	}
	checkpoint := func() error {
		noteCut(false, 0)
		return set.Checkpoint()
	}
	demoteFrom := func(first int) error {
		noteCut(true, first)
		for s := first; s < walCrashShards; s++ {
			if err := set.Demote(s); err != nil {
				return err
			}
		}
		return nil
	}
	oplog, err := os.OpenFile(filepath.Join(dir, "oplog"), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		fmt.Fprintf(os.Stderr, "child oplog: %v\n", err)
		os.Exit(4)
	}
	logLine := func(tag, kind string, v uint64) {
		if _, err := fmt.Fprintf(oplog, "%s %s %d\n", tag, kind, v); err != nil {
			fmt.Fprintf(os.Stderr, "child oplog write: %v\n", err)
			os.Exit(4)
		}
		if err := oplog.Sync(); err != nil {
			fmt.Fprintf(os.Stderr, "child oplog sync: %v\n", err)
			os.Exit(4)
		}
	}
	fold := phase == "fold"
	doOp := func(i int) {
		del, v := walCrashOp(i, 0)
		kind := "s"
		if del {
			kind = "d"
		}
		logLine("i", kind, v)
		if del {
			set.Delete(v)
		} else {
			set.Insert(v)
		}
		logLine("a", kind, v)
	}

	// Unarmed warm-up, so the kill lands on a store with live log tails and
	// a first armed cut that has a base to supersede. The checkpoint gives
	// every shard a snap-NNN.hot, and leaves every shard hot — what the
	// "snap" phase's first armed event, a Checkpoint, cuts. The "cold"
	// phase's, a Demote of every shard, finds the last shard already cold:
	// its warm-up ends by demoting it. The "fold" phase demotes every shard
	// ten writes before the end: those writes — deletes of section keys
	// among them — are the log tails its armed Checkpoints fold.
	for i := 0; i < 40; i++ {
		doOp(i)
		var err error
		switch {
		case i == 20:
			err = checkpoint()
		case i == 29 && phase == "fold":
			err = demoteFrom(0)
		case i == 39 && phase == "cold":
			err = demoteFrom(walCrashShards - 1)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "warm-up lifecycle event at op %d: %v\n", i, err)
			os.Exit(4)
		}
	}
	reg := chaos.New(walCrashSeed)
	reg.On(point, 1, chaos.Exit(walCrashExit))
	reg.Arm()
	if !async {
		// The fold phase cuts one op later, so that its first armed event
		// is a delta write over the tails the warm-up left.
		cutAt := 0
		if fold {
			cutAt = 1
		}
		for i := 40; i < 400; i++ {
			// Alternate the two cuts every five ops, starting with the
			// phase's own — the fold phase folds every time; all of them
			// fire the snapshot and rotate points.
			if i%5 == cutAt {
				if fold || (i%10 == 0) == (phase == "snap") {
					checkpoint()
				} else {
					demoteFrom(0)
				}
			}
			doOp(i) // fires the append/sync points: a delta write in the fold phase
		}
	} else {
		for b := 0; b < 24; b++ {
			first := 40 + b*walCrashBatch
			logLine("i", "b", uint64(first))
			for i := first; i < first+walCrashBatch; i++ {
				// Every second batch is cut in the middle, the phase's own
				// cut first: the first batch's Flush fires the append/sync
				// points, the second's cut the snapshot and rotate points —
				// on shards that owe the fsync of half a batch.
				if b%2 == 1 && i == first+walCrashBatch/2 {
					if fold || (b%4 == 1) == (phase == "snap") {
						checkpoint()
					} else {
						demoteFrom(0)
					}
				}
				if del, v := walCrashOp(i, walCrashBatch); del {
					set.DeleteAsync(v)
				} else {
					set.InsertAsync(v)
				}
			}
			set.Flush()
			logLine("a", "b", uint64(first))
		}
	}
	chaos.Disarm()
	fmt.Fprintf(os.Stderr, "point %s never fired\n", pointName)
	os.Exit(5)
}

type walCrashLoggedOp struct {
	del bool
	v   uint64
}

// walCrashReplayOplog parses the child's oplog into the fully-acked op
// sequence plus the ops of the single trailing unacked intent, if any: one
// synchronous op, or every op of one async batch ("b" lines name a batch by
// the index of its first op).
func walCrashReplayOplog(t *testing.T, dir string) (acked, pending []walCrashLoggedOp) {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, "oplog"))
	if err != nil {
		t.Fatalf("oplog: %v", err)
	}
	defer f.Close()
	var intent string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var tag, kind string
		var v uint64
		if _, err := fmt.Sscanf(sc.Text(), "%s %s %d", &tag, &kind, &v); err != nil {
			t.Fatalf("oplog line %q: %v", sc.Text(), err)
		}
		ops := []walCrashLoggedOp{{del: kind == "d", v: v}}
		if kind == "b" {
			ops = ops[:0]
			for i := int(v); i < int(v)+walCrashBatch; i++ {
				del, val := walCrashOp(i, walCrashBatch)
				ops = append(ops, walCrashLoggedOp{del, val})
			}
		}
		switch tag {
		case "i":
			if pending != nil {
				t.Fatalf("two unacked intents in oplog (single-threaded child)")
			}
			pending, intent = ops, sc.Text()[1:]
		case "a":
			if pending == nil || sc.Text()[1:] != intent {
				t.Fatalf("ack %q without matching intent %q", sc.Text(), intent)
			}
			acked = append(acked, ops...)
			pending = nil
		default:
			t.Fatalf("oplog tag %q", tag)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return acked, pending
}

// walCrashApply applies ops, in order, to the model set m.
func walCrashApply(m map[uint64]bool, ops []walCrashLoggedOp) {
	for _, op := range ops {
		if op.del {
			delete(m, op.v)
		} else {
			m[op.v] = true
		}
	}
}

func walCrashContents(s *ShardedUint64Set) []uint64 {
	var vs []uint64
	s.Ascend(0, -1, func(v uint64) bool {
		vs = append(vs, v)
		return true
	})
	return vs
}

func walCrashModelSlice(m map[uint64]bool) []uint64 {
	vs := make([]uint64, 0, len(m))
	for v := range m {
		vs = append(vs, v)
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	return vs
}

func sameUint64s(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// walCrashVerify reopens the killed child's directory, with the cold tier
// armed or not, and requires a Verify-clean set that holds, shard by shard,
// exactly the acked ops applied in order plus some prefix of the unacked
// intent's ops routed to that shard — for a synchronous op, the op or not;
// for an async batch, what each shard's log had made durable of it. After a
// fold-phase kill, a reopen under the cold tier must find every shard cold
// — nothing promoted — and the log tails replayed into deltas.
func walCrashVerify(t *testing.T, dir string, cold, fold bool) {
	t.Helper()
	set, info, err := walCrashOpen(dir, cold)
	if err != nil {
		t.Fatalf("recovery open (cold tier %v): %v", cold, err)
	}
	defer set.Close()
	if err := set.Verify(); err != nil {
		t.Fatalf("recovered set (cold tier %v) fails Verify: %v", cold, err)
	}
	if cs := set.ColdStats(); cold && fold && (cs.ColdShards != walCrashShards || cs.Promotions != 0 || cs.DeltaKeys == 0) {
		t.Fatalf("fold-phase recovery under the cold tier: %+v, want every shard cold, none promoted, tails in deltas", cs)
	}
	shardOf := func(v uint64) int { return set.t.Shard(u64keyAlloc(v)) }
	byShard := func(ops []walCrashLoggedOp) [][]walCrashLoggedOp {
		out := make([][]walCrashLoggedOp, walCrashShards)
		for _, op := range ops {
			out[shardOf(op.v)] = append(out[shardOf(op.v)], op)
		}
		return out
	}
	ackedOps, pendingOps := walCrashReplayOplog(t, dir)
	acked, pending := byShard(ackedOps), byShard(pendingOps)
	got := make([][]uint64, walCrashShards)
	for _, v := range walCrashContents(set) {
		got[shardOf(v)] = append(got[shardOf(v)], v)
	}
	kept := make([]int, walCrashShards)
	for s := range got {
		model := make(map[uint64]bool)
		walCrashApply(model, acked[s])
		for kept[s] = 0; !sameUint64s(got[s], walCrashModelSlice(model)); kept[s]++ {
			if kept[s] == len(pending[s]) {
				t.Fatalf("cold tier %v: shard %d recovered %d values, which is not its acked state (%d ops) plus any prefix of its %d in-flight ops %+v",
					cold, s, len(got[s]), len(acked[s]), len(pending[s]), pending[s])
			}
			walCrashApply(model, pending[s][kept[s]:kept[s]+1])
		}
	}
	t.Logf("cold tier %v: recovered %d acked ops exactly, plus per shard %v of the %d in flight (base files %d entries, %d cold shards, %d log records, %d damaged logs)",
		cold, len(ackedOps), kept, len(pendingOps), info.SnapshotEntries, info.ColdShards, info.WALRecords, info.WALDamaged)
}

// walCrashVerifyBoth checks the wreck under both open configurations:
// two copies, one first opened with the cold tier and one without, each
// then reopened under the other option — a recovery must also leave a
// directory the other configuration recovers.
func walCrashVerifyBoth(t *testing.T, dir string, fold bool) {
	t.Helper()
	for _, first := range []bool{true, false} {
		cp := copyDir(t, dir)
		walCrashVerify(t, cp, first, fold)
		walCrashVerify(t, cp, !first, fold)
	}
}

// walCrashFirstCut names the first cut a Checkpoint (demote false), or a
// Demote of every shard from first up (demote true), is about to make in t
// by the state of the shard it cuts: "snap", a hot shard's Checkpoint;
// "cold", a hot shard's demotion; "fold", a cold shard's fold. It follows
// the two calls' skip rules, and names no cut at all "none".
func walCrashFirstCut(t *ShardedTree, demote bool, first int) string {
	for s := first; s < walCrashShards; s++ {
		st := t.shards[s].Load()
		switch {
		case demote && st.pr != nil && st.delta.Load() == nil, !demote && t.dur.clean(s):
			continue // the call skips shard s
		case st.pr != nil:
			return "fold"
		case demote:
			return "cold"
		}
		return "snap"
	}
	return "none"
}

// walCrashLastCut returns the kind of the first cut of the last lifecycle
// event the child began.
func walCrashLastCut(t *testing.T, dir string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, "cutlog"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Fields(string(b))
	if len(lines) == 0 {
		t.Fatal("empty cutlog")
	}
	return lines[len(lines)-1]
}

func TestWALCrashMatrix(t *testing.T) {
	if p := os.Getenv(walCrashEnvPoint); p != "" {
		walCrashChild(p, os.Getenv(walCrashEnvDir), os.Getenv(walCrashEnvPhase), os.Getenv(walCrashEnvAsync) != "")
	}
	if testing.Short() {
		t.Skip("subprocess crash matrix skipped in -short")
	}

	runChild := func(t *testing.T, dir string, point chaos.Point, phase string, async bool) {
		t.Helper()
		cmd := exec.Command(os.Args[0], "-test.run=^TestWALCrashMatrix$")
		cmd.Env = append(os.Environ(),
			walCrashEnvPoint+"="+point.String(),
			walCrashEnvDir+"="+dir,
			walCrashEnvPhase+"="+phase)
		if async {
			cmd.Env = append(cmd.Env, walCrashEnvAsync+"=1")
		}
		out, err := cmd.CombinedOutput()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != walCrashExit {
			t.Fatalf("child did not crash at %v in phase %q (err=%v):\n%s", point, phase, err, out)
		}
	}

	// Both acknowledgement points: synchronous ops (ack = return), then
	// async batches (ack = Flush's return), under "async/".
	for _, prefix := range []string{"", "async/"} {
		prefix, async := prefix, prefix != ""

		// Log write points: the kill lands mid-write — and, in the fold
		// phase, mid-way through a delta write to a cold shard.
		for _, point := range []chaos.Point{chaos.WalAppend, chaos.WalTornWrite, chaos.WalSync} {
			for _, phase := range []string{"snap", "fold"} {
				point, phase := point, phase
				name := prefix + point.String()
				if phase == "fold" {
					name += "/fold"
				}
				t.Run(name, func(t *testing.T) {
					dir := t.TempDir()
					runChild(t, dir, point, phase, async)
					walCrashVerifyBoth(t, dir, phase == "fold")
				})
			}
		}

		// Cut points: every step of the one cut primitive — base file tmp
		// written, renamed, legacy base removed (WalRotate fires after the
		// remove, before the log is replaced) — killed once inside a
		// Checkpoint's cut of a hot shard, once inside a Demote's and once
		// inside a Checkpoint's fold.
		for _, point := range []chaos.Point{
			chaos.SnapWriteHeader,
			chaos.SnapWriteBlock,
			chaos.SnapTornWrite,
			chaos.SnapSync,
			chaos.SnapClose,
			chaos.SnapRename,
			chaos.SnapDirSync,
			chaos.WalRotate,
		} {
			for _, dest := range []string{"snap", "cold", "fold"} {
				point, dest := point, dest
				t.Run(prefix+point.String()+"/"+dest, func(t *testing.T) {
					dir := t.TempDir()
					runChild(t, dir, point, dest, async)
					if got := walCrashLastCut(t, dir); got != dest {
						t.Fatalf("%v fired inside a %q cut, want a %q cut", point, got, dest)
					}
					t.Logf("%v fired inside a %s cut", point, dest)
					walCrashVerifyBoth(t, dir, dest == "fold")
				})
			}
		}
	}

	// Two-phase WalTruncate: child A leaves a torn log tail, child B is
	// killed during recovery exactly before the tail truncation, and the
	// parent proves the recovery is re-runnable on top of both crashes.
	t.Run(chaos.WalTruncate.String(), func(t *testing.T) {
		dir := t.TempDir()
		runChild(t, dir, chaos.WalTornWrite, "snap", false)
		runChild(t, dir, chaos.WalTruncate, "recover", false)
		walCrashVerifyBoth(t, dir, false)
	})
}

// TestWALCrashMatrixPointNames pins the env plumbing: every point the
// matrix drives must exist in the chaos catalog under the exact name the
// subprocess receives.
func TestWALCrashMatrixPointNames(t *testing.T) {
	for _, p := range []chaos.Point{chaos.WalAppend, chaos.WalTornWrite, chaos.WalSync,
		chaos.WalRotate, chaos.WalTruncate, chaos.SnapClose} {
		found := false
		for _, q := range chaos.Points() {
			if q.String() == p.String() {
				found = true
			}
		}
		if !found {
			t.Fatalf("point %d (%s) missing from the catalog", int(p), p)
		}
	}
	if _, err := strconv.Atoi(chaos.WalAppend.String()); err == nil {
		t.Fatal("point names must be symbolic, not numeric")
	}
}
