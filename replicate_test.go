package hot

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"

	"github.com/hotindex/hot/internal/dataset"
	"github.com/hotindex/hot/internal/tidstore"
	"github.com/hotindex/hot/internal/wire"
)

// recordingSink captures a replication stream and the cumulative byte
// offset at every transport flush — the true section boundaries a
// follower on a real socket could observe.
type recordingSink struct {
	buf       bytes.Buffer
	flushOffs []int
}

func (r *recordingSink) Write(p []byte) (int, error) { return r.buf.Write(p) }

func (r *recordingSink) Flush() error {
	if n := r.buf.Len(); len(r.flushOffs) == 0 || r.flushOffs[len(r.flushOffs)-1] != n {
		r.flushOffs = append(r.flushOffs, n)
	}
	return nil
}

// TestReplicationStreamPrefixes is the core follower guarantee, checked
// deterministically: for EVERY prefix of the bootstrap stream, a follower
// fed exactly that prefix serves precisely the shards whose sections were
// fully flushed — Verify-clean, with correct lookups — and refuses reads
// beyond the frontier with ErrNotReady. The readable prefix grows strictly
// section by section.
func TestReplicationStreamPrefixes(t *testing.T) {
	dir := t.TempDir()
	keys := dataset.Generate(dataset.Integer, 2000, 7)
	store := &tidstore.Store{}
	for _, k := range keys {
		store.Add(k)
	}
	tr, _, err := OpenDurableShardedTree(dir, store.Key, 4, keys, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for i, k := range keys {
		if !tr.Insert(k, TID(i)) {
			t.Fatalf("insert %d rejected", i)
		}
	}

	rec := &recordingSink{}
	sess, err := tr.NewReplicationSession(rec)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	close(stop) // snapshot + exactly one (empty) tail pass
	if err := sess.Run(stop); err != nil {
		t.Fatal(err)
	}
	sess.Close()

	full := rec.buf.Bytes()
	// Flush points: manifest, one per shard section, tail start.
	if len(rec.flushOffs) != 6 {
		t.Fatalf("got %d flush points %v, want 6", len(rec.flushOffs), rec.flushOffs)
	}
	offs := rec.flushOffs
	bootstrapEnd := offs[5]

	shardOf := func(k []byte) int { return tr.Shard(k) }
	wantLen := make([]int, 5)
	for i := 0; i < 4; i++ {
		wantLen[i+1] = wantLen[i] + tr.ShardLen(i)
	}

	// Every flush offset plus a point strictly inside each span between
	// them: complete sections must open, incomplete ones must not.
	var prefixes []int
	prev := 0
	for _, o := range offs {
		if mid := (prev + o) / 2; mid > prev {
			prefixes = append(prefixes, mid)
		}
		prefixes = append(prefixes, o)
		prev = o
	}
	lastReady := 0
	for _, p := range prefixes {
		fol := NewFollower(store.Key, nil)
		err := fol.Feed(bytes.NewReader(full[:p]))
		if p >= bootstrapEnd {
			if err != nil {
				t.Fatalf("prefix %d (complete bootstrap): Feed = %v", p, err)
			}
		} else if err == nil {
			t.Fatalf("prefix %d (truncated bootstrap): Feed returned nil", p)
		}
		wantReady := 0
		for i := 0; i < 4; i++ {
			if p >= offs[i+1] {
				wantReady = i + 1
			}
		}
		ready := fol.Ready()
		if ready != wantReady {
			t.Fatalf("prefix %d: Ready = %d, want %d", p, ready, wantReady)
		}
		if ready < lastReady {
			t.Fatalf("prefix %d: readable prefix shrank %d -> %d", p, lastReady, ready)
		}
		lastReady = ready
		if err := fol.Verify(); err != nil {
			t.Fatalf("prefix %d: %v", p, err)
		}
		if got := fol.Len(); got != wantLen[ready] {
			t.Fatalf("prefix %d: Len = %d, want %d", p, got, wantLen[ready])
		}
		for i, k := range keys {
			s := shardOf(k)
			tid, found, lerr := fol.Lookup(k)
			if s < ready {
				if lerr != nil || !found || tid != TID(i) {
					t.Fatalf("prefix %d: ready-shard key %d = (%d, %v, %v)", p, i, tid, found, lerr)
				}
			} else if !errors.Is(lerr, ErrNotReady) {
				t.Fatalf("prefix %d: key %d in shard %d (ready %d): err = %v, want ErrNotReady", p, i, s, ready, lerr)
			}
		}
		// A scan from the smallest key serves the ready shards in order
		// and stops at the frontier.
		var prev []byte
		n, serr := fol.Scan(nil, len(keys)+1, func(k []byte, _ TID) bool {
			if shardOf(k) >= ready || bytes.Compare(prev, k) >= 0 {
				t.Fatalf("prefix %d (ready %d): scan yields %x after %x", p, ready, k, prev)
			}
			prev = append(prev[:0], k...)
			return true
		})
		if ready == 0 {
			if !errors.Is(serr, ErrNotReady) {
				t.Fatalf("prefix %d: scan with nothing ready: err = %v, want ErrNotReady", p, serr)
			}
		} else if serr != nil || n != wantLen[ready] {
			t.Fatalf("prefix %d: scan = (%d, %v), want the %d keys of %d ready shards", p, n, serr, wantLen[ready], ready)
		}
	}
}

// TestReplicationTailCatchUp streams a bootstrap, then writes (and
// deletes) on the leader AFTER the per-shard cuts were taken, and checks a
// single deterministic tail pass ships exactly the post-cut records: the
// follower converges to the leader's final state, counting every tail
// record it applied.
func TestReplicationTailCatchUp(t *testing.T) {
	dir := t.TempDir()
	keys := dataset.Generate(dataset.Integer, 2000, 11)
	store := &tidstore.Store{}
	for _, k := range keys {
		store.Add(k)
	}
	tr, _, err := OpenDurableShardedTree(dir, store.Key, 4, keys, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for i, k := range keys[:1000] {
		tr.Insert(k, TID(i))
	}

	rec := &recordingSink{}
	sess, err := tr.NewReplicationSession(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.StreamSnapshot(); err != nil {
		t.Fatal(err)
	}
	// Every write from here on postdates the cuts, so it must arrive via
	// the tail, not the sections. Synchronous writes are durable (and
	// tailer-visible) when they return.
	for i, k := range keys[1000:] {
		tr.Insert(k, TID(1000+i))
	}
	for _, k := range keys[:10] {
		tr.Delete(k)
	}
	stop := make(chan struct{})
	close(stop)
	if err := sess.StreamTail(stop); err != nil {
		t.Fatal(err)
	}
	sess.Close()

	fol := NewFollower(store.Key, nil)
	if err := fol.Feed(bytes.NewReader(rec.buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if fol.Ready() != 4 {
		t.Fatalf("Ready = %d, want 4", fol.Ready())
	}
	if got := fol.TailRecords(); got != 1010 {
		t.Fatalf("TailRecords = %d, want 1010", got)
	}
	if err := fol.Verify(); err != nil {
		t.Fatal(err)
	}
	if got, want := fol.Len(), tr.Len(); got != want {
		t.Fatalf("Len = %d, leader has %d", got, want)
	}
	for i, k := range keys {
		tid, found, lerr := fol.Lookup(k)
		if lerr != nil {
			t.Fatal(lerr)
		}
		if i < 10 {
			if found {
				t.Fatalf("deleted key %d visible on follower", i)
			}
		} else if !found || tid != TID(i) {
			t.Fatalf("key %d = (%d, %v)", i, tid, found)
		}
	}

	// Scans serve the ready prefix in global key order.
	n, err := fol.Scan(nil, 50, func(key []byte, tid TID) bool { return true })
	if err != nil || n != 50 {
		t.Fatalf("Scan = (%d, %v)", n, err)
	}
}

// TestReplicationResumeTail is the LSN-resume contract, deterministically:
// a follower that completed a bootstrap reconnects by offering its applied
// frontier, and the leader — whose logs still retain everything past it —
// continues the tail with no snapshot phase. The follower converges to the
// leader's post-disconnect state, counting the stream as a resume, not a
// bootstrap.
func TestReplicationResumeTail(t *testing.T) {
	dir := t.TempDir()
	keys := dataset.Generate(dataset.Integer, 2000, 13)
	store := &tidstore.Store{}
	for _, k := range keys {
		store.Add(k)
	}
	tr, _, err := OpenDurableShardedTree(dir, store.Key, 4, keys, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for i, k := range keys[:1000] {
		tr.Insert(k, TID(i))
	}

	// Session 1: full bootstrap, then the stream "dies" (drain-once tail).
	rec := &recordingSink{}
	sess, err := tr.NewReplicationSession(rec)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	close(stop)
	if err := sess.Run(stop); err != nil {
		t.Fatal(err)
	}
	sess.Close()
	fol := NewFollower(store.Key, nil)
	if err := fol.Feed(bytes.NewReader(rec.buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if !fol.Bootstrapped() || fol.Bootstraps() != 1 {
		t.Fatalf("after bootstrap: Bootstrapped=%v Bootstraps=%d", fol.Bootstrapped(), fol.Bootstraps())
	}

	// The leader moves on while the follower is disconnected.
	for i, k := range keys[1000:] {
		tr.Insert(k, TID(1000+i))
	}
	for _, k := range keys[:10] {
		tr.Delete(k)
	}

	// Session 2: the follower offers its frontier; the logs retain it.
	lsns := fol.AppliedLSNs()
	if lsns == nil {
		t.Fatal("AppliedLSNs returned nil after a complete bootstrap")
	}
	rec2 := &recordingSink{}
	sess2, resumed, err := tr.NewReplicationSessionFrom(rec2, lsns)
	if err != nil {
		t.Fatal(err)
	}
	if !resumed {
		t.Fatal("leader declined a resume its logs can serve")
	}
	stop2 := make(chan struct{})
	close(stop2)
	if err := sess2.Run(stop2); err != nil {
		t.Fatal(err)
	}
	sess2.Close()
	if err := fol.Feed(bytes.NewReader(rec2.buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if fol.Resumes() != 1 || fol.Bootstraps() != 1 {
		t.Fatalf("Resumes=%d Bootstraps=%d, want 1, 1", fol.Resumes(), fol.Bootstraps())
	}
	if err := fol.Verify(); err != nil {
		t.Fatal(err)
	}
	if got, want := fol.Len(), tr.Len(); got != want {
		t.Fatalf("Len = %d, leader has %d", got, want)
	}
	for i, k := range keys {
		tid, found, lerr := fol.Lookup(k)
		if lerr != nil {
			t.Fatal(lerr)
		}
		if i < 10 {
			if found {
				t.Fatalf("deleted key %d visible after resume", i)
			}
		} else if !found || tid != TID(i) {
			t.Fatalf("key %d = (%d, %v)", i, tid, found)
		}
	}

	// An immediate third resume with nothing new to ship is also legal:
	// the tail is simply empty.
	rec3 := &recordingSink{}
	sess3, resumed, err := tr.NewReplicationSessionFrom(rec3, fol.AppliedLSNs())
	if err != nil || !resumed {
		t.Fatalf("idle resume = (%v, %v)", resumed, err)
	}
	stop3 := make(chan struct{})
	close(stop3)
	if err := sess3.Run(stop3); err != nil {
		t.Fatal(err)
	}
	sess3.Close()
	before := fol.TailRecords()
	if err := fol.Feed(bytes.NewReader(rec3.buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if fol.TailRecords() != before {
		t.Fatalf("idle resume applied %d records", fol.TailRecords()-before)
	}
}

// TestReplicationTailIsABarrier: async leader writes owe their fsync to the
// next barrier and the tail ships durable records only, so the tailer has to
// be a barrier itself — a leader that takes nothing but un-flushed async
// writes must still feed its follower, and must never feed it a record it
// could itself lose.
func TestReplicationTailIsABarrier(t *testing.T) {
	keys := dataset.Generate(dataset.Integer, 2000, 19)
	store := &tidstore.Store{}
	for _, k := range keys {
		store.Add(k)
	}
	tr, _, err := OpenDurableShardedTree(t.TempDir(), store.Key, 4, keys, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	holds := func(fol *Follower, n int) {
		t.Helper()
		if err := fol.Verify(); err != nil {
			t.Fatal(err)
		}
		if fol.Len() != n {
			t.Fatalf("follower holds %d keys, want %d", fol.Len(), n)
		}
		for i, k := range keys[:n] {
			if tid, found, err := fol.Lookup(k); err != nil || !found || tid != TID(i) {
				t.Fatalf("follower key %d = (%d, %v, %v)", i, tid, found, err)
			}
		}
		for s, lsn := range fol.AppliedLSNs() {
			if durable := tr.dur.wals[s].DurableLSN(); lsn > durable {
				t.Fatalf("follower applied shard %d through LSN %d, the leader is durable through %d", s, lsn, durable)
			}
		}
	}

	// A live session beside a leader that never calls Flush: the poll
	// passes alone must carry every write across.
	pr, pw := io.Pipe()
	fol := NewFollower(store.Key, nil)
	fed := make(chan error, 1)
	go func() { fed <- fol.Feed(pr) }()
	sess, err := tr.NewReplicationSession(pw)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	ran := make(chan error, 1)
	go func() { ran <- sess.Run(stop) }()
	for i, k := range keys[:1000] {
		tr.UpsertAsync(k, TID(i))
	}
	// Converging takes a poll pass or two, milliseconds; the deadline only
	// has to tell slow from never.
	for deadline := time.Now().Add(10 * time.Second); !fol.Bootstrapped() || fol.Len() != 1000; {
		if time.Now().After(deadline) {
			t.Fatalf("follower holds %d of 1000 un-flushed async writes after 10s", fol.Len())
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	if err := <-ran; err != nil {
		t.Fatal(err)
	}
	sess.Close()
	pw.Close()
	if err := <-fed; err != nil {
		t.Fatal(err)
	}
	holds(fol, 1000)

	// The drain-once contract: a tail whose stop is already closed still
	// ships everything submitted before the call.
	rec := &recordingSink{}
	sess, resumed, err := tr.NewReplicationSessionFrom(rec, fol.AppliedLSNs())
	if err != nil || !resumed {
		t.Fatalf("resume = (%v, %v)", resumed, err)
	}
	for i, k := range keys[1000:] {
		tr.UpsertAsync(k, TID(1000+i))
	}
	if err := sess.Run(stop); err != nil {
		t.Fatal(err)
	}
	sess.Close()
	if err := fol.Feed(bytes.NewReader(rec.buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	holds(fol, 2000)
}

// TestReplicationResumeDeclined pins the fallback: when the leader's logs
// rotated past the follower's frontier (a Checkpoint between disconnect
// and reconnect), or the vector does not match the shard layout, the
// session degrades to a full bootstrap on the same connection — and the
// follower's second bootstrap cleanly replaces its first.
func TestReplicationResumeDeclined(t *testing.T) {
	dir := t.TempDir()
	keys := dataset.Generate(dataset.Integer, 2000, 17)
	store := &tidstore.Store{}
	for _, k := range keys {
		store.Add(k)
	}
	tr, _, err := OpenDurableShardedTree(dir, store.Key, 4, keys, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for i, k := range keys[:1000] {
		tr.Insert(k, TID(i))
	}

	rec := &recordingSink{}
	sess, err := tr.NewReplicationSession(rec)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	close(stop)
	if err := sess.Run(stop); err != nil {
		t.Fatal(err)
	}
	sess.Close()
	fol := NewFollower(store.Key, nil)
	if err := fol.Feed(bytes.NewReader(rec.buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	frontier := fol.AppliedLSNs()

	// Wrong shard count: full fallback, no error.
	if _, resumed, err := func() (*ReplicationSession, bool, error) {
		s, r, e := tr.NewReplicationSessionFrom(&recordingSink{}, frontier[:2])
		if s != nil {
			s.Close()
		}
		return s, r, e
	}(); err != nil || resumed {
		t.Fatalf("short vector: resumed=%v err=%v, want full fallback", resumed, err)
	}

	// The leader writes on and checkpoints: every log rotates its base to
	// its last LSN, past the disconnected follower's frontier.
	for i, k := range keys[1000:] {
		tr.Insert(k, TID(1000+i))
	}
	if err := tr.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	rec2 := &recordingSink{}
	sess2, resumed, err := tr.NewReplicationSessionFrom(rec2, frontier)
	if err != nil {
		t.Fatal(err)
	}
	if resumed {
		t.Fatal("leader resumed across a log rotation that dropped the frontier")
	}
	stop2 := make(chan struct{})
	close(stop2)
	if err := sess2.Run(stop2); err != nil {
		t.Fatal(err)
	}
	sess2.Close()
	if err := fol.Feed(bytes.NewReader(rec2.buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if fol.Bootstraps() != 2 || fol.Resumes() != 0 {
		t.Fatalf("Bootstraps=%d Resumes=%d, want 2, 0", fol.Bootstraps(), fol.Resumes())
	}
	if err := fol.Verify(); err != nil {
		t.Fatal(err)
	}
	if got, want := fol.Len(), tr.Len(); got != want {
		t.Fatalf("Len = %d, leader has %d", got, want)
	}

	// A frontier AHEAD of the leader (diverged history) must also decline.
	ahead := fol.AppliedLSNs()
	for i := range ahead {
		ahead[i] += 100
	}
	sess3, resumed, err := tr.NewReplicationSessionFrom(&recordingSink{}, ahead)
	if err != nil {
		t.Fatal(err)
	}
	sess3.Close()
	if resumed {
		t.Fatal("leader resumed a follower claiming LSNs it never assigned")
	}
}

// TestFollowerResumeRequiresBootstrap: a RESUME stream aimed at a follower
// with no complete bootstrap is a protocol error, never a crash or a
// silent empty state.
func TestFollowerResumeRequiresBootstrap(t *testing.T) {
	var buf bytes.Buffer
	if err := wire.WriteFrame(&buf, wire.RepResume, nil); err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(&buf, wire.RepTailStart, nil); err != nil {
		t.Fatal(err)
	}
	store := &tidstore.Store{}
	fol := NewFollower(store.Key, nil)
	if err := fol.Feed(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("un-bootstrapped follower accepted a RESUME stream")
	}
	if fol.AppliedLSNs() != nil {
		t.Fatal("AppliedLSNs non-nil before any bootstrap")
	}
}

// TestReplicationSessionRequiresDurable pins the API contract: sessions
// need a write-ahead log to tail, and a closed store refuses new sessions.
func TestReplicationSessionRequiresDurable(t *testing.T) {
	keys := dataset.Generate(dataset.Integer, 100, 3)
	store := &tidstore.Store{}
	for _, k := range keys {
		store.Add(k)
	}
	plain := NewShardedTree(store.Key, 2, keys)
	if _, err := plain.NewReplicationSession(&bytes.Buffer{}); err == nil {
		t.Fatal("non-durable tree accepted a replication session")
	}

	dir := t.TempDir()
	tr, _, err := OpenDurableShardedTree(dir, store.Key, 2, keys, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.NewReplicationSession(&bytes.Buffer{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed tree: err = %v, want ErrClosed", err)
	}
}
