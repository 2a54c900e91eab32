package hot

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"testing"

	"github.com/hotindex/hot/internal/dataset"
	"github.com/hotindex/hot/internal/persist"
	"github.com/hotindex/hot/internal/tidstore"
)

// TestColdTierOracle demotes every shard and requires the cold read paths
// — Lookup, LookupBatch, Scan, Verify — to agree with a fully resident
// oracle byte for byte, then checks that an insert and a delete stay cold
// in the shard's delta.
func TestColdTierOracle(t *testing.T) {
	for _, kind := range []dataset.Kind{dataset.URL, dataset.Integer} {
		t.Run(fmt.Sprint(kind), func(t *testing.T) {
			keys := dataset.Generate(kind, 6000, 42)
			store := &tidstore.Store{}
			for _, k := range keys {
				store.Add(k)
			}
			st, oracle := buildPair(keys, store, 8)
			if err := st.EnableColdTier(ColdTierConfig{Dir: t.TempDir()}); err != nil {
				t.Fatal(err)
			}
			for s := 0; s < st.Shards(); s++ {
				if err := st.Demote(s); err != nil {
					t.Fatalf("Demote(%d): %v", s, err)
				}
				if !st.IsCold(s) {
					t.Fatalf("shard %d not cold after Demote", s)
				}
			}
			cs := st.ColdStats()
			if !cs.Enabled || cs.ColdShards != st.Shards() || cs.ResidentShards != 0 || cs.ColdBytes == 0 {
				t.Fatalf("ColdStats after full demotion = %+v", cs)
			}
			if st.Len() != oracle.Len() {
				t.Fatalf("cold Len %d != %d", st.Len(), oracle.Len())
			}
			if err := st.Verify(); err != nil {
				t.Fatal(err)
			}
			for i, k := range keys {
				tid, ok := st.Lookup(k)
				if !ok || tid != TID(i) {
					t.Fatalf("cold lookup %q = (%d, %v), want (%d, true)", k, tid, ok, i)
				}
			}
			if _, ok := st.Lookup([]byte("\xff\xff\xff-definitely-absent")); ok {
				t.Fatal("absent key found cold")
			}
			out := make([]TID, len(keys))
			found := st.LookupBatch(keys, out)
			for i := range keys {
				if !found[i] || out[i] != TID(i) {
					t.Fatalf("cold LookupBatch[%d] = (%d, %v)", i, out[i], found[i])
				}
			}
			want := scanSeq(oracle, store)
			got := scanSeq(st, store)
			if len(got) != len(want) {
				t.Fatalf("cold scan yields %d keys, want %d", len(got), len(want))
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("cold scan diverges at %d: %q vs %q", i, got[i], want[i])
				}
			}
			cs = st.ColdStats()
			if cs.CacheHits+cs.CacheMisses == 0 {
				t.Fatal("cold reads ran but the page cache saw no traffic")
			}
			// An insert into a cold shard lands in its delta: the shard stays
			// cold, counts the key, and promotes nothing.
			nk := append(append([]byte(nil), keys[0]...), []byte("-new")...)
			ntid := store.Add(nk)
			owner := st.Shard(nk)
			if !st.Insert(nk, ntid) {
				t.Fatal("insert into cold shard failed")
			}
			if st.Insert(keys[0], 0) {
				t.Fatal("insert of a key the cold section holds was not rejected")
			}
			if !st.IsCold(owner) {
				t.Fatalf("shard %d promoted by an insert", owner)
			}
			if tid, ok := st.Lookup(nk); !ok || tid != ntid {
				t.Fatalf("lookup after a cold insert = (%d, %v)", tid, ok)
			}
			if got := st.ColdStats(); got.Promotions != 0 || got.DeltaKeys != 1 || st.Len() != oracle.Len()+1 {
				t.Fatalf("after a cold insert: %+v, Len %d", got, st.Len())
			}
			// A delete stays cold too: the delta's own key goes, a section
			// key leaves a tombstone, a second delete of it is rejected.
			if !st.Delete(nk) || !st.Delete(keys[0]) || st.Delete(keys[0]) {
				t.Fatal("deletes from a cold shard disagree with the oracle")
			}
			if _, ok := st.Lookup(keys[0]); ok || !st.IsCold(owner) {
				t.Fatalf("deleted section key found (%v), or shard %d promoted", ok, owner)
			}
			if got := st.ColdStats(); got.Promotions != 0 || st.Len() != oracle.Len()-1 {
				t.Fatalf("after the deletes: %+v, Len %d", got, st.Len())
			}
		})
	}
}

// TestColdTierChurnOracle is the eviction e2e: a dataset three times the
// memory budget, concurrent writers (sync and async), readers and random
// demote/promote churn, then a full reconciliation against an in-memory
// oracle — Verify clean and the merged scan byte-identical.
func TestColdTierChurnOracle(t *testing.T) {
	const n = 24000
	keys := dataset.Generate(dataset.URL, n, 7)
	store := &tidstore.Store{}
	for _, k := range keys {
		store.Add(k)
	}
	st := NewShardedTree(store.Key, 8, keys)
	for i, k := range keys {
		if !st.Insert(k, TID(i)) {
			t.Fatalf("seed insert %d failed", i)
		}
	}
	resident := st.Memory().GoBytes
	if err := st.EnableColdTier(ColdTierConfig{
		Dir:          t.TempDir(),
		MemoryBudget: int64(resident) / 3,
	}); err != nil {
		t.Fatal(err)
	}

	// Key roles: thirds. Stable keys never change — readers assert their
	// exact TIDs mid-churn. Churn keys are deleted and re-inserted with
	// their own TID, so any interleaving converges to the same state.
	// Extra keys are inserted during churn, each by exactly one worker.
	stable := keys[:n/3]
	churn := keys[n/3 : 2*n/3]
	const workers = 4
	const opsPerWorker = 4000
	extras := make([][]byte, workers*200)
	extraTID := make([]TID, len(extras))
	for i := range extras {
		extras[i] = []byte(fmt.Sprintf("zzz-extra-%05d", i))
		extraTID[i] = store.Add(extras[i])
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			mine := extras[w*200 : (w+1)*200]
			for op := 0; op < opsPerWorker; op++ {
				switch rng.Intn(4) {
				case 0:
					i := n/3 + rng.Intn(len(churn))
					k := keys[i]
					st.Delete(k)
					st.Insert(k, TID(i))
				case 1:
					i := rng.Intn(len(stable))
					st.Upsert(keys[i], TID(i))
				case 2:
					i := rng.Intn(len(mine))
					st.UpsertAsync(mine[i], extraTID[w*200+(i)])
				default:
					i := rng.Intn(len(stable))
					if tid, ok := st.Lookup(keys[i]); !ok || tid != TID(i) {
						panic(fmt.Sprintf("stable key %q = (%d, %v) mid-churn", keys[i], tid, ok))
					}
				}
			}
		}(w)
	}
	// Readers: point lookups, batched lookups and scans over stable keys
	// while shards flap hot/cold underneath them.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + r)))
			batch := make([][]byte, 64)
			out := make([]TID, 64)
			for it := 0; it < 300; it++ {
				for j := range batch {
					batch[j] = keys[rng.Intn(len(stable))]
				}
				found := st.LookupBatch(batch, out)
				for j, k := range batch {
					if !found[j] {
						panic(fmt.Sprintf("stable key %q missing from batch", k))
					}
				}
				st.Scan(keys[rng.Intn(n)], 50, func(TID) bool { return true })
			}
		}(r)
	}
	// The churn agent: random explicit transitions on top of the budget's
	// automatic demotions.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(300))
		for it := 0; it < 400; it++ {
			s := rng.Intn(st.Shards())
			var err error
			if rng.Intn(2) == 0 {
				err = st.Demote(s)
			} else {
				err = st.Promote(s)
			}
			if err != nil {
				panic(fmt.Sprintf("transition on shard %d: %v", s, err))
			}
		}
	}()
	wg.Wait()
	if _, rejected := st.Flush(); rejected != 0 {
		t.Fatalf("%d async ops rejected", rejected)
	}

	// Reconcile to the deterministic final state and compare to an oracle.
	for i := n / 3; i < 2*n/3; i++ {
		st.Upsert(keys[i], TID(i))
	}
	for i, e := range extras {
		st.Upsert(e, extraTID[i])
	}
	oracle := New(store.Key)
	for i, k := range keys {
		oracle.Insert(k, TID(i))
	}
	for i, e := range extras {
		oracle.Insert(e, extraTID[i])
	}
	if err := st.Verify(); err != nil {
		t.Fatal(err)
	}
	if st.Len() != oracle.Len() {
		t.Fatalf("Len %d != oracle %d", st.Len(), oracle.Len())
	}
	want := scanSeq(oracle, store)
	got := scanSeq(st, store)
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("scan diverges at %d: %q vs %q", i, got[i], want[i])
		}
	}
	cs := st.ColdStats()
	if cs.Demotions == 0 || cs.Promotions == 0 || cs.CacheMisses == 0 {
		t.Fatalf("churn never exercised the tier: %+v", cs)
	}
	t.Logf("cold stats after churn: %+v (hit rate %.3f)", cs, cs.HitRate())
}

// TestColdTierAutoDemotion checks the budget enforcement: with a budget
// of a quarter of the resident footprint, background maintenance demotes
// least-recently-written shards until the estimate fits — never the one
// being written — and everything stays readable.
func TestColdTierAutoDemotion(t *testing.T) {
	keys := dataset.Generate(dataset.Integer, 16000, 9)
	store := &tidstore.Store{}
	for _, k := range keys {
		store.Add(k)
	}
	st := NewShardedTree(store.Key, 8, keys)
	for i, k := range keys {
		st.Insert(k, TID(i))
	}
	resident := st.Memory().GoBytes
	if err := st.EnableColdTier(ColdTierConfig{Dir: t.TempDir(), MemoryBudget: int64(resident) / 4}); err != nil {
		t.Fatal(err)
	}
	if cs := st.ColdStats(); cs.Demotions == 0 || cs.ResidentShards == 0 {
		t.Fatalf("the enable-time pass: %+v, want shards demoted and one left hot", cs)
	}
	// Hammer one shard the enable-time pass left hot. Promote the others
	// back first, a clock tick (1024 writes) before the hammering starts,
	// so the first budget pass finds the store over budget and the
	// hammered shard the only one written since: it must demote the
	// others, and upserts must promote nothing.
	hotIdx := -1
	for i, k := range keys {
		if !st.IsCold(st.Shard(k)) {
			hotIdx = i
			break
		}
	}
	hot := keys[hotIdx]
	hotShard := st.Shard(hot)
	promoted := 0
	for s := 0; s < st.Shards(); s++ {
		if st.IsCold(s) {
			if err := st.Promote(s); err != nil {
				t.Fatal(err)
			}
			promoted++
		}
	}
	demoted := st.ColdStats().Demotions
	st.cold.Load().clock.Add(1)
	for i := 0; i < 5000; i++ {
		st.Upsert(hot, TID(hotIdx))
	}
	cs := st.ColdStats()
	if cs.Demotions == demoted || cs.ColdShards == 0 {
		t.Fatalf("budget never enforced: %+v", cs)
	}
	if cs.ResidentShards == 0 {
		t.Fatal("maintenance demoted every shard; at least one must stay hot")
	}
	if st.IsCold(hotShard) {
		t.Fatal("the hottest shard was demoted")
	}
	if cs.Promotions != uint64(promoted) {
		t.Fatalf("upserts promoted a shard: %+v after %d explicit promotions", cs, promoted)
	}
	m := st.Memory()
	if m.ColdShards != cs.ColdShards || m.ColdBytes == 0 {
		t.Fatalf("MemoryStats disagrees with ColdStats: %+v vs %+v", m, cs)
	}
	for i, k := range keys {
		if tid, ok := st.Lookup(k); !ok || tid != TID(i) {
			t.Fatalf("lookup %q = (%d, %v), want %d", k, tid, ok, i)
		}
	}
	if err := st.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestColdTierFoldsUnderBudget runs a zipf upsert stream over cold shards
// under a MemoryBudget below one shard: every write to a cold shard lands
// in its delta, nothing is promoted, and the budget pass folds the largest
// deltas. With the store demoted whole, the resident estimate — tries plus
// deltas — is within the budget after every pass. With one shard left hot,
// its trie alone over the budget, the deltas are within the budget after
// every pass, and a pass folds only once they outgrow it: it does not
// rewrite every section that has a delta, pass after pass. The contents
// must equal the model throughout.
func TestColdTierFoldsUnderBudget(t *testing.T) {
	const n, tidsPerKey, writes = 20000, 4, 30000
	keys := dataset.Generate(dataset.URL, n, 13)
	store := &tidstore.Store{}
	for v := 0; v < tidsPerKey; v++ {
		for _, k := range keys {
			store.Add(k) // TID v*n+i resolves to keys[i]
		}
	}
	for _, tc := range []struct {
		name    string
		keepHot bool // leave the enable-time pass's one hot shard hot
		share   int  // the budget is the loaded footprint over share
	}{
		{"all-demoted", false, 32},
		{"one-hot-over-budget", true, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := NewShardedTree(store.Key, 4, keys)
			model := make(map[string]TID, n)
			for i, k := range keys {
				st.Insert(k, TID(i))
				model[string(k)] = TID(i)
			}
			budget := int64(st.Memory().GoBytes) / int64(tc.share)
			if err := st.EnableColdTier(ColdTierConfig{Dir: t.TempDir(), MemoryBudget: budget}); err != nil {
				t.Fatal(err)
			}
			for s := 0; s < st.Shards() && !tc.keepHot; s++ {
				if err := st.Demote(s); err != nil {
					t.Fatal(err)
				}
			}
			ct := st.cold.Load()
			rng := rand.New(rand.NewSource(13))
			zipf := rand.NewZipf(rng, 1.1, 1, n-1)
			passes, kept := 0, 0 // passes that left a delta unfolded
			for w := 1; w <= writes; w++ {
				i := int(zipf.Uint64())
				tid := TID(rng.Intn(tidsPerKey)*n + i)
				old, ok := st.Upsert(keys[i], tid)
				if !ok || old != model[string(keys[i])] {
					t.Fatalf("write %d: Upsert = (%d, %v), model says (%d, true)", w, old, ok, model[string(keys[i])])
				}
				model[string(keys[i])] = tid
				if w%1024 != 0 { // the tree's 1024th write since the last pass
					continue
				}
				passes++
				tries, deltas, hot, _, _ := ct.survey()
				switch {
				case !tc.keepHot && (tries+deltas > budget || hot != 0):
					t.Fatalf("after the pass at write %d: resident estimate %d over budget %d, %d hot shards", w, tries+deltas, budget, hot)
				case tc.keepHot && (tries <= budget || hot != 1 || deltas > budget):
					t.Fatalf("after the pass at write %d: %d hot shards, trie bytes %d, delta bytes %d, want one trie over budget %d and the deltas within it", w, hot, tries, deltas, budget)
				}
				if st.ColdStats().DeltaKeys > 0 {
					kept++
				}
			}
			cs := st.ColdStats()
			if cs.Promotions != 0 || cs.Folds == 0 || cs.ColdShards+cs.ResidentShards != st.Shards() {
				t.Fatalf("zipf upserts over cold shards: %+v", cs)
			}
			if tc.keepHot && (kept == 0 || cs.Folds >= uint64(passes)) {
				t.Fatalf("%d folds in %d passes, %d of which left a delta: the pass folds deltas the budget has room for", cs.Folds, passes, kept)
			}
			want := make([]pathEntry, 0, n)
			for _, k := range dataset.SortedCopy(keys) {
				want = append(want, pathEntry{k, model[string(k)]})
			}
			checkTree(t, st, want)
			t.Logf("%d writes: %d folds in %d passes (%d left a delta), %d keys in deltas at the end, budget %d B",
				writes, cs.Folds, passes, kept, cs.DeltaKeys, budget)
		})
	}
}

// TestColdTierStatsMonotonic: demoting a shard folds its trie's counters
// into the retired aggregate, so OpStats and ReclaimStats never move
// backwards, and the page counters surface cold read traffic.
func TestColdTierStatsMonotonic(t *testing.T) {
	keys := dataset.Generate(dataset.URL, 4000, 3)
	store := &tidstore.Store{}
	for _, k := range keys {
		store.Add(k)
	}
	st := NewShardedTree(store.Key, 4, keys)
	for i, k := range keys {
		st.Insert(k, TID(i))
	}
	if err := st.EnableColdTier(ColdTierConfig{Dir: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	before := st.OpStats()
	freedBefore, _ := st.ReclaimStats()
	for s := 0; s < st.Shards(); s++ {
		if err := st.Demote(s); err != nil {
			t.Fatal(err)
		}
	}
	after := st.OpStats()
	if total := after.Normal + after.Pushdown + after.PullUp + after.Intermediate + after.NewRoot; total < before.Normal+before.Pushdown+before.PullUp+before.Intermediate+before.NewRoot {
		t.Fatalf("insertion counters went backwards across demotion: %d -> %d", before, total)
	}
	if cs := st.ColdStats(); cs.Demotions != uint64(st.Shards()) {
		t.Fatalf("Demotions = %d, want %d", cs.Demotions, st.Shards())
	}
	freedAfter, _ := st.ReclaimStats()
	if freedAfter < freedBefore {
		t.Fatalf("freed bytes went backwards: %d -> %d", freedBefore, freedAfter)
	}
	for _, k := range keys[:100] {
		st.Lookup(k)
	}
	if cs := st.ColdStats(); cs.CacheHits+cs.CacheMisses == 0 {
		t.Fatal("cold lookups left no page counters")
	}
	// Inserts into a cold shard run in its delta, whose counters count
	// too — once the delta holds two keys, every insert is one case — and
	// survive the fold that replaces the delta.
	cases := func() uint64 {
		o := st.OpStats()
		return o.Normal + o.Pushdown + o.PullUp + o.Intermediate + o.NewRoot
	}
	const n = 100
	var fresh [][]byte
	for _, k := range keys {
		if st.Shard(k) == 0 && len(fresh) < n+2 {
			fresh = append(fresh, append(append([]byte(nil), k...), "-cold"...))
		}
	}
	var base uint64
	for i, k := range fresh {
		if i == 2 {
			base = cases()
		}
		if !st.Insert(k, store.Add(k)) {
			t.Fatalf("cold insert %d rejected", i)
		}
	}
	if got := cases(); got < base+n {
		t.Fatalf("%d cold inserts raised the insertion cases from %d to %d", n, base, got)
	}
	base = cases()
	if err := st.Demote(0); err != nil {
		t.Fatal(err)
	}
	if got := cases(); got < base || st.ColdStats().Folds != 1 {
		t.Fatalf("the fold lowered the insertion cases from %d to %d", base, got)
	}
}

// TestColdTierDurableRecovery: shards demoted in durable mode stay cold
// across a reopen (their section is the recovery base), a logged write to
// a cold shard stays cold — recovery replays it into the shard's delta —,
// Checkpoint folds that delta into a fresh indexed base and leaves an idle
// cold shard alone, a promoted shard's Checkpoint cut leaves it hot, a
// reopen without ColdTier folds everything back to memory and its idle
// Checkpoint writes nothing, and a reopen with ColdTier then serves every
// shard from its base — the shards the Checkpoints cut while hot too —
// counting its entries in SnapshotEntries as the untiered reopen did.
func TestColdTierDurableRecovery(t *testing.T) {
	dir := t.TempDir()
	keys := dataset.Generate(dataset.URL, 3000, 5)
	store := &tidstore.Store{}
	for _, k := range keys {
		store.Add(k)
	}
	cfg := &ColdTierConfig{} // manual transitions only
	tr, info, err := OpenDurableShardedTree(dir, store.Key, 4, keys, DurableOptions{ColdTier: cfg})
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if !tr.Insert(k, TID(i)) {
			t.Fatalf("insert %d failed", i)
		}
	}
	if err := tr.Demote(1); err != nil {
		t.Fatal(err)
	}
	if err := tr.Demote(3); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with the tier armed: the demoted shards come back cold.
	tr, info, err = OpenDurableShardedTree(dir, store.Key, 4, keys, DurableOptions{ColdTier: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if info.ColdShards != 2 || !tr.IsCold(1) || !tr.IsCold(3) {
		t.Fatalf("recovered ColdShards=%d IsCold(1)=%v IsCold(3)=%v, want 2 cold", info.ColdShards, tr.IsCold(1), tr.IsCold(3))
	}
	for i, k := range keys {
		if tid, ok := tr.Lookup(k); !ok || tid != TID(i) {
			t.Fatalf("post-recovery lookup %q = (%d, %v)", k, tid, ok)
		}
	}
	if err := tr.Verify(); err != nil {
		t.Fatal(err)
	}
	// A durable write into cold shard 1 lands in its delta. The key set
	// must stay prefix-free, so write to an existing shard-1 key.
	nk, ntid := []byte(nil), TID(0)
	for i, k := range keys {
		if tr.Shard(k) == 1 {
			nk, ntid = k, TID(i)
			break
		}
	}
	if nk == nil {
		t.Fatal("no key routes to shard 1")
	}
	if old, replaced := tr.Upsert(nk, ntid); !replaced || old != ntid {
		t.Fatalf("durable upsert into cold shard = (%d, %v), want the section's (%d, true)", old, replaced, ntid)
	}
	if !tr.IsCold(1) {
		t.Fatal("shard 1 promoted by a durable upsert")
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: shard 1's log tail replays into its delta, so both demoted
	// shards come back cold. Checkpoint folds shard 1 — a fresh
	// snap-001.hot, its log rotated, its delta empty — skips shard 3, and
	// cuts hot shards 0 and 2, which stay hot.
	tr, info, err = OpenDurableShardedTree(dir, store.Key, 4, keys, DurableOptions{ColdTier: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if cs := tr.ColdStats(); info.ColdShards != 2 || cs.DeltaKeys != 1 || cs.Promotions != 0 {
		t.Fatalf("after replay ColdShards=%d, %+v, want shards 1 and 3 cold, the tail in a delta", info.ColdShards, cs)
	}
	if tid, ok := tr.Lookup(nk); !ok || tid != ntid {
		t.Fatalf("replayed cold write = (%d, %v)", tid, ok)
	}
	cold3, err := os.Stat(filepath.Join(dir, "snap-003.hot"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if cs := tr.ColdStats(); !tr.IsCold(1) || cs.Folds != 1 || cs.DeltaKeys != 0 || tr.dur.wals[1].LastLSN() != tr.dur.wals[1].Base() {
		t.Fatalf("Checkpoint over a cold delta: IsCold(1)=%v, %+v, shard 1 log not rotated", tr.IsCold(1), cs)
	}
	if tr.IsCold(0) || tr.IsCold(2) {
		t.Fatal("Checkpoint demoted a hot shard")
	}
	for s := 0; s < 4; s++ {
		pr, err := persist.OpenPageReaderFile(filepath.Join(dir, snapFileName(s)), persist.KindTree)
		if err != nil || !pr.Indexed() {
			t.Fatalf("shard %d's base after the Checkpoint: %v, want an indexed snap-NNN.hot", s, err)
		}
		pr.Close()
	}
	if fi, err := os.Stat(filepath.Join(dir, "snap-003.hot")); err != nil || !os.SameFile(fi, cold3) {
		t.Fatalf("Checkpoint rewrote idle cold shard 3's section: %v", err)
	}
	if err := tr.Verify(); err != nil {
		t.Fatal(err)
	}
	// A delete and a re-insert stay in shard 1's delta; promoted, its next
	// Checkpoint cut leaves it hot.
	if !tr.Delete(nk) || !tr.Insert(nk, ntid) || !tr.IsCold(1) {
		t.Fatal("delete and re-insert into cold shard 1 failed")
	}
	if err := tr.Promote(1); err != nil || tr.IsCold(1) {
		t.Fatalf("Promote(1) = %v", err)
	}
	if err := tr.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if tr.IsCold(1) || tr.dur.wals[1].LastLSN() != tr.dur.wals[1].Base() {
		t.Fatal("promoted shard 1's Checkpoint cut demoted it or left its log")
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen WITHOUT ColdTier: every base folds back into memory, and a
	// Checkpoint with nothing logged writes nothing.
	tr, info, err = OpenDurableShardedTree(dir, store.Key, 4, keys, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if info.ColdShards != 0 || tr.IsCold(3) || info.SnapshotEntries != uint64(len(keys)) {
		t.Fatalf("ColdTier-nil reopen: %+v, want no cold shard and %d entries", info, len(keys))
	}
	for i, k := range keys {
		if tid, ok := tr.Lookup(k); !ok || tid != TID(i) {
			t.Fatalf("folded-back lookup %q = (%d, %v)", k, tid, ok)
		}
	}
	if err := tr.Verify(); err != nil {
		t.Fatal(err)
	}
	before := dirCensus(t, dir)
	if err := tr.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if changed, removed := censusChanges(before, dirCensus(t, dir)); len(changed)+len(removed) != 0 {
		t.Fatalf("idle Checkpoint changed %v, removed %v", changed, removed)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen WITH ColdTier: every shard has a base, so every shard is
	// served from it — hot shards 0 and 2, cut by a Checkpoint, included.
	tr, info, err = OpenDurableShardedTree(dir, store.Key, 4, keys, DurableOptions{ColdTier: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if info.ColdShards != 4 || info.SnapshotEntries != uint64(len(keys)) {
		t.Fatalf("tiered reopen over four bases: %+v, want 4 cold shards holding %d entries", info, len(keys))
	}
	if err := tr.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestColdTierReopenUnderBudget: reopening a store whose previous run
// left a shard cold, with a MemoryBudget below the resident footprint the
// other shards' logs rebuild, must never pick a not-yet-installed cold
// shard as a demotion victim. Before the open-path fix, the enable-time
// budget pass ran while recovered cold shards were still empty placeholder
// tries and could demote one — atomically replacing the shard's real base,
// its only durable copy (the WAL was rotated at the original demotion
// cut), with an empty section. The loss stayed silent until the next
// open, which this test performs.
func TestColdTierReopenUnderBudget(t *testing.T) {
	dir := t.TempDir()
	keys := dataset.Generate(dataset.URL, 3000, 11)
	store := &tidstore.Store{}
	for _, k := range keys {
		store.Add(k)
	}
	cfg := &ColdTierConfig{} // manual transitions in the seeding run
	tr, _, err := OpenDurableShardedTree(dir, store.Key, 4, keys, DurableOptions{ColdTier: cfg})
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if !tr.Insert(k, TID(i)) {
			t.Fatalf("insert %d failed", i)
		}
	}
	// No Checkpoint: shards 1–3 keep their state in their logs alone, so
	// they reopen hot, a large resident footprint. Demote shard 0, which
	// reopens served from its base: with all recency clocks equal, the
	// maintenance scan picks the lowest index first, so a
	// placeholder-demoting budget pass at reopen would clobber exactly this
	// shard's section.
	if err := tr.Demote(0); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen far above budget: the open-time pass must demote only the
	// genuinely resident shards 1–3, after shard 0's base is installed.
	small := &ColdTierConfig{MemoryBudget: 1}
	tr, info, err := OpenDurableShardedTree(dir, store.Key, 4, keys, DurableOptions{ColdTier: small})
	if err != nil {
		t.Fatal(err)
	}
	if info.ColdShards != 1 || !tr.IsCold(0) {
		t.Fatalf("recovered ColdShards=%d IsCold(0)=%v, want shard 0 back cold", info.ColdShards, tr.IsCold(0))
	}
	if cs := tr.ColdStats(); cs.ColdShards != 3 || cs.ResidentShards != 1 {
		t.Fatalf("post-open ColdStats = %+v, want the budget pass leaving 1 resident shard", cs)
	}
	for i, k := range keys {
		if tid, ok := tr.Lookup(k); !ok || tid != TID(i) {
			t.Fatalf("under-budget reopen lookup %q = (%d, %v), want (%d, true)", k, tid, ok, i)
		}
	}
	if err := tr.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	// The next open is where a clobbered section would surface (shard 0
	// recovered empty): every key must still be present.
	tr, _, err = OpenDurableShardedTree(dir, store.Key, 4, keys, DurableOptions{ColdTier: small})
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if tid, ok := tr.Lookup(k); !ok || tid != TID(i) {
			t.Fatalf("second reopen lookup %q = (%d, %v), want (%d, true)", k, tid, ok, i)
		}
	}
	if err := tr.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestColdTierUint64Set: the set facade demotes and serves cold too.
func TestColdTierUint64Set(t *testing.T) {
	vals := make([]uint64, 3000)
	for i := range vals {
		vals[i] = uint64(i)*2654435761 + 17
	}
	s := NewShardedUint64Set(4, vals)
	for _, v := range vals {
		if !s.Insert(v) {
			t.Fatalf("insert %d failed", v)
		}
	}
	if err := s.EnableColdTier(ColdTierConfig{Dir: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := s.Demote(i); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range vals {
		if !s.Contains(v) {
			t.Fatalf("cold set lost %d", v)
		}
	}
	if s.Contains(1) {
		t.Fatal("cold set invented a member")
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	if !s.Insert(999_999_999_999) {
		t.Fatal("insert into cold set failed")
	}
	if got := s.ColdStats(); got.Promotions != 0 || got.DeltaKeys != 1 || s.Len() != len(vals)+1 {
		t.Fatalf("set insert into a cold shard: %+v, Len %d", got, s.Len())
	}
	if !s.Delete(vals[0]) || s.Contains(vals[0]) {
		t.Fatal("delete from cold set missed")
	}
	if got := s.ColdStats(); got.Promotions != 0 || got.DeltaKeys != 2 || s.Len() != len(vals) {
		t.Fatalf("set delete into a cold shard: %+v, Len %d", got, s.Len())
	}
}

// TestColdCursorMatchesModel seeks a cursor over fully demoted shards at
// every 7th key, at the gap above it and at every delta key, and requires
// the sorted tail from there — far enough to cross block and shard
// boundaries — key and TID, for both codecs. The shards carry delta keys
// in every position the cursor's merge can meet one: below the first
// block, equal to a block's first key (a new TID, which the delta must
// win), between two blocks, above the last key, and in a third shard
// demoted empty; and tombstones, which must hide their section entry, in
// the same positions: the shard's first key, a block's first key, the last
// key before a block and the shard's last key — plus a deleted key
// inserted again and a renewed key deleted. One cursor is re-seeked
// throughout, so its key buffers are carried from page to page; the
// closing Verify and lookups would show a cached page that reuse had
// written into.
func TestColdCursorMatchesModel(t *testing.T) {
	for _, kind := range []dataset.Kind{dataset.URL, dataset.Integer} {
		for _, codec := range []SnapshotCodec{SnapshotCodecRaw, SnapshotCodecPacked} {
			// The section's keys, and a sorted pool of keys from the same
			// population to place in the deltas.
			all := dataset.Generate(kind, 24000, 11)
			keys, pool := all[:6000], dataset.SortedCopy(all[6000:])
			store := &tidstore.Store{}
			model := make(map[string]TID, len(all))
			for i, k := range keys {
				store.Add(k)
				model[string(k)] = TID(i)
			}
			sorted := dataset.SortedCopy(keys)
			last, top := sorted[len(sorted)-1], pool[len(pool)-2]
			if bytes.Compare(pool[0], sorted[0]) >= 0 || bytes.Compare(pool[len(pool)-3], last) <= 0 {
				t.Fatalf("%v: the pool does not reach past both ends of the section", kind)
			}
			// Three shards: the section's keys split in two, and one from
			// top up, above them all, demoted empty.
			st := newShardedFromBounds(treeFlavor(store.Key), [][]byte{sorted[len(sorted)/2], top})
			for i, k := range keys {
				st.Insert(k, TID(i))
			}
			st.SetSnapshotCodec(codec)
			if err := st.EnableColdTier(ColdTierConfig{Dir: t.TempDir()}); err != nil {
				t.Fatal(err)
			}
			for s := 0; s < st.Shards(); s++ {
				if err := st.Demote(s); err != nil {
					t.Fatal(err)
				}
			}
			var deltas [][]byte
			add := func(k []byte) { // a key new to the shard, or deleted
				tid := store.Add(k)
				if !st.Insert(k, tid) {
					t.Fatalf("%v: cold insert of %q rejected", kind, k)
				}
				model[string(k)] = tid
				deltas = append(deltas, k)
			}
			renew := func(k []byte) { // a key the section holds, new TID
				tid := store.Add(k)
				if old, ok := st.Upsert(k, tid); !ok || old != model[string(k)] {
					t.Fatalf("%v: cold upsert of %q = (%d, %v), want the section's %d", kind, k, old, ok, model[string(k)])
				}
				model[string(k)] = tid
				deltas = append(deltas, k)
			}
			drop := func(k []byte) { // a key the section holds
				if !st.Delete(k) || st.Delete(k) {
					t.Fatalf("%v: cold deletes of %q disagree with the model", kind, k)
				}
				delete(model, string(k))
				deltas = append(deltas, k)
			}
			add(pool[0])           // below the first block
			add(pool[len(pool)-3]) // above the last key
			add(top)               // the empty shard
			add(pool[len(pool)-1])
			half := len(sorted) / 2
			drop(sorted[half-1])        // the first shard's last key
			drop(sorted[len(sorted)-1]) // the second shard's last key
			drop(sorted[half+1])
			add(sorted[half+1]) // deleted, then inserted again
			renew(sorted[half+2])
			drop(sorted[half+2]) // renewed, then deleted
			for s := 0; s < 2; s++ {
				pr := st.shards[s].Load().pr
				between := 0
				for b := 0; b < pr.Blocks(); b++ {
					first := pr.FirstKey(b)
					if (s+b)%2 == 0 {
						drop(first) // shard 0: its first key, below everything
					} else {
						renew(first) // equal to a block's first key
					}
					if b == 0 {
						continue
					}
					// Between block b-1's last key and block b's first, when
					// the pool has a key there; and the last key before the
					// block deleted.
					at := sort.Search(len(sorted), func(i int) bool { return bytes.Compare(sorted[i], first) >= 0 })
					below := sorted[at-1]
					if p := pool[sort.Search(len(pool), func(i int) bool { return bytes.Compare(pool[i], below) > 0 })]; bytes.Compare(p, first) < 0 {
						add(p)
						between++
					}
					drop(below)
				}
				if pr.Blocks() > 1 && between == 0 {
					t.Fatalf("%v/%v: shard %d has %d blocks and no pool key between any two", kind, codec, s, pr.Blocks())
				}
			}
			touched := make(map[string]bool)
			for _, k := range deltas {
				touched[string(k)] = true
			}
			if cs := st.ColdStats(); cs.ColdShards != 3 || cs.Promotions != 0 || cs.DeltaKeys != len(touched) {
				t.Fatalf("%v/%v: %+v after writes to %d keys", kind, codec, cs, len(touched))
			}
			msorted := make([][]byte, 0, len(model))
			for k := range model {
				msorted = append(msorted, []byte(k))
			}
			sort.Slice(msorted, func(i, j int) bool { return bytes.Compare(msorted[i], msorted[j]) < 0 })
			c := &ShardedCursor{}
			check := func(from []byte, at int) {
				t.Helper()
				st.SeekCursor(c, from)
				for i := at; i < len(msorted) && i < at+700; i++ {
					if !c.Valid() || !bytes.Equal(c.Key(), msorted[i]) || c.TID() != model[string(msorted[i])] {
						t.Fatalf("%v/%v: seek %q: entry %d is not %q", kind, codec, from, i, msorted[i])
					}
					c.Next()
				}
				if at+700 >= len(msorted) && c.Valid() {
					t.Fatalf("%v/%v: seek %q runs past the last key", kind, codec, from)
				}
			}
			check(nil, 0)
			for i := 0; i < len(msorted); i += 7 {
				check(msorted[i], i)
				check(append(append([]byte{}, msorted[i]...), 0), i+1)
			}
			for _, k := range deltas {
				i := sort.Search(len(msorted), func(i int) bool { return bytes.Compare(msorted[i], k) >= 0 })
				check(k, i)
				check(msorted[max(i-1, 0)], max(i-1, 0))
			}
			if err := st.Verify(); err != nil {
				t.Fatal(err)
			}
			if st.Len() != len(model) {
				t.Fatalf("%v/%v: Len %d, model %d", kind, codec, st.Len(), len(model))
			}
			for k, tid := range model {
				if got, ok := st.Lookup([]byte(k)); !ok || got != tid {
					t.Fatalf("%v/%v: after the seeks Lookup(%q) = (%d, %v), want %d", kind, codec, k, got, ok, tid)
				}
			}
		}
	}
}

// TestColdScanTouchesOnlyWhatItReaches: with shards 2..7 of eight demoted,
// a scan that stays inside hot shard 0 makes no page-cache access at all,
// and one that runs off the end of hot shard 1 into cold shard 2 makes
// exactly one — shard 2's first page; shards 3..7 are never opened.
func TestColdScanTouchesOnlyWhatItReaches(t *testing.T) {
	keys := dataset.Generate(dataset.URL, 8000, 37)
	store := &tidstore.Store{}
	for _, k := range keys {
		store.Add(k)
	}
	st, _ := buildPair(keys, store, 8)
	if err := st.EnableColdTier(ColdTierConfig{Dir: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	for s := 2; s < 8; s++ {
		if err := st.Demote(s); err != nil {
			t.Fatal(err)
		}
	}
	sorted := dataset.SortedCopy(keys)
	accesses := func() uint64 {
		cs := st.ColdStats()
		return cs.CacheHits + cs.CacheMisses
	}
	scan := func(at, n int) {
		t.Helper()
		i := at
		st.Scan(sorted[at], n, func(tid TID) bool {
			if !bytes.Equal(store.Key(tid, nil), sorted[i]) {
				t.Fatalf("scan from key %d: entry %d is %q, want %q", at, i-at, store.Key(tid, nil), sorted[i])
			}
			i++
			return true
		})
		if i != at+n {
			t.Fatalf("scan from key %d yields %d entries, want %d", at, i-at, n)
		}
	}
	before := accesses()
	scan(0, 50)
	if d := accesses() - before; d != 0 {
		t.Fatalf("a scan inside hot shard 0 made %d page-cache accesses", d)
	}
	before = accesses()
	scan(st.ShardLen(0)+st.ShardLen(1)-10, 20) // 10 entries of shard 1, 10 of shard 2
	if d := accesses() - before; d != 1 {
		t.Fatalf("a scan crossing into cold shard 2 made %d page-cache accesses, want 1", d)
	}
}

// TestColdCursorParkedAcrossTransition: a cursor parked on shard i's last
// entry has not opened shard i+1 yet, so whatever happens to that shard
// meanwhile — demoted, or demoted and promoted again — the cursor picks up
// its backing as it is on arrival and continues in oracle order.
func TestColdCursorParkedAcrossTransition(t *testing.T) {
	keys := dataset.Generate(dataset.URL, 4000, 41)
	store := &tidstore.Store{}
	for _, k := range keys {
		store.Add(k)
	}
	st, _ := buildPair(keys, store, 4)
	if err := st.EnableColdTier(ColdTierConfig{Dir: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	sorted := dataset.SortedCopy(keys)
	last := -1
	for i := 0; i+1 < st.Shards(); i++ {
		last += st.ShardLen(i)
		for _, promote := range []bool{false, true} {
			c := st.Iter(sorted[last])
			if err := st.Demote(i + 1); err != nil {
				t.Fatal(err)
			}
			if promote {
				if err := st.Promote(i + 1); err != nil {
					t.Fatal(err)
				}
			}
			for j := last; j < len(sorted); j++ {
				if !c.Valid() || !bytes.Equal(c.Key(), sorted[j]) {
					t.Fatalf("parked on shard %d (promote=%v): entry %d is not %q", i, promote, j-last, sorted[j])
				}
				c.Next()
			}
			if c.Valid() {
				t.Fatalf("parked on shard %d (promote=%v): cursor runs past the last key", i, promote)
			}
		}
	}
}

// TestColdCacheHoldsStoredBytes is the root-level guard against a decoded
// copy of a block growing back beside the stored one: with every page of a
// demoted store resident, the cache accounts at most 1.3 times what the
// sections take on disk.
func TestColdCacheHoldsStoredBytes(t *testing.T) {
	keys := dataset.Generate(dataset.URL, 20000, 5)
	store := &tidstore.Store{}
	for _, k := range keys {
		store.Add(k)
	}
	for _, codec := range []SnapshotCodec{SnapshotCodecRaw, SnapshotCodecPacked} {
		st, _ := buildPair(keys, store, 2)
		st.SetSnapshotCodec(codec)
		if err := st.EnableColdTier(ColdTierConfig{Dir: t.TempDir()}); err != nil {
			t.Fatal(err)
		}
		for s := 0; s < st.Shards(); s++ {
			if err := st.Demote(s); err != nil {
				t.Fatal(err)
			}
		}
		for i, k := range keys {
			if tid, ok := st.Lookup(k); !ok || tid != TID(i) {
				t.Fatalf("%v: cold lookup %q = (%d, %v)", codec, k, tid, ok)
			}
		}
		cs := st.ColdStats()
		if cs.CacheEvictions != 0 || cs.CacheBytes < cs.ColdBytes*9/10 || float64(cs.CacheBytes) > 1.3*float64(cs.ColdBytes) {
			t.Fatalf("%v: %d pages hold %d bytes for %d on disk (%d evictions)", codec, cs.CachePages, cs.CacheBytes, cs.ColdBytes, cs.CacheEvictions)
		}
	}
}

// TestParentWrittenDirectoryServes opens testdata/durable-pr22 — a durable
// directory written by the commit before pages were served from the stored
// block (PR 22: packed codec, four shards, shards 0 and 1 demoted to cold
// sections, 2 and 3 checkpointed with a log tail behind the checkpoint) —
// and requires every key it was given, with and without a cold tier: same
// bytes in, same answers out. Under the tier all four shards are served
// from their bases, the legacy cold-NNN.hot and the unindexed snap-NNN.hot
// alike, their log tails in their deltas.
func TestParentWrittenDirectoryServes(t *testing.T) {
	keys := dataset.Generate(dataset.URL, 3000, 23)
	store := &tidstore.Store{}
	for _, k := range keys {
		store.Add(k)
	}
	for _, cold := range []*ColdTierConfig{{}, nil} {
		dir := t.TempDir()
		files, err := filepath.Glob("testdata/durable-pr22/*")
		if err != nil || len(files) != 9 {
			t.Fatalf("fixture: %d files, %v", len(files), err)
		}
		for _, f := range files {
			b, err := os.ReadFile(f)
			if err == nil {
				err = os.WriteFile(filepath.Join(dir, filepath.Base(f)), b, 0o644)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		st, info, err := OpenDurableShardedTree(dir, store.Key, 4, nil, DurableOptions{ColdTier: cold})
		if err != nil {
			t.Fatal(err)
		}
		wantCold := 0
		if cold != nil {
			wantCold = 4 // every shard with a base: the checkpointed ones too
		}
		if info.ColdShards != wantCold || info.SnapshotDamage != nil || info.WALDamage != nil || info.WALRecords != 89 {
			t.Fatalf("recovery = %+v, want %d cold shards, 89 log records, no damage", info, wantCold)
		}
		found := 0
		for i, k := range keys {
			// The writer skipped the late keys that would have promoted a
			// cold shard.
			written := i < 2800 || st.Shard(k) >= 2
			tid, ok := st.Lookup(k)
			if ok != written || (ok && tid != TID(i)) {
				t.Fatalf("cold=%v: Lookup(%q) = (%d, %v), written %v as %d", cold != nil, k, tid, ok, written, i)
			}
			if ok {
				found++
			}
		}
		if found != 2889 || st.Len() != found {
			t.Fatalf("cold=%v: %d keys found, Len %d, want 2889", cold != nil, found, st.Len())
		}
		if err := st.Verify(); err != nil {
			t.Fatal(err)
		}
		var prev []byte
		n := 0
		for c := st.Iter(nil); c.Valid(); c.Next() {
			if prev != nil && bytes.Compare(prev, c.Key()) >= 0 {
				t.Fatalf("cold=%v: scan out of order at %q", cold != nil, c.Key())
			}
			prev = append(prev[:0], c.Key()...)
			n++
		}
		if n != found {
			t.Fatalf("cold=%v: scan yields %d keys, want %d", cold != nil, n, found)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzTieredShardOps drives a three-shard tree under a cold tier with an
// operation tape and holds it to a map: the reply of every write and the
// Lookup of its key after every step, and after every lifecycle event Len,
// a full cursor walk, Verify and a tier directory without cold-NNN.hot. The tape starts on every other key of the
// table cut to sections, so deletes meet section keys, delta keys and keys
// the delta renewed. An op is three bytes: its kind in the low three bits
// of the first (the TID variant above them), then a big-endian index into
// the key table.
func FuzzTieredShardOps(f *testing.F) {
	const n, variants = 3600, 2
	keys := dataset.Generate(dataset.URL, n, 17)
	store := &tidstore.Store{}
	for v := 0; v < variants; v++ {
		for _, k := range keys {
			store.Add(k) // TID v*n+i resolves to keys[i]
		}
	}
	sorted := dataset.SortedCopy(keys)
	bounds := [][]byte{sorted[n/3], sorted[2*n/3]}
	const (
		opInsert byte = iota
		opUpsert
		opDelete
		opLookup
		opScan
		opDemote
		opPromote
		opFold
	)
	open := func(t testing.TB) (*ShardedTree, map[string]TID, string) {
		tr := newShardedFromBounds(treeFlavor(store.Key), bounds)
		model := make(map[string]TID, n)
		for i := 0; i < n; i += 2 {
			tr.Insert(keys[i], TID(i))
			model[string(keys[i])] = TID(i)
		}
		dir := t.TempDir()
		if err := tr.EnableColdTier(ColdTierConfig{Dir: dir}); err != nil {
			t.Fatal(err)
		}
		for s := 0; s < tr.Shards(); s++ {
			if err := tr.Demote(s); err != nil {
				t.Fatal(err)
			}
		}
		return tr, model, dir
	}
	step := func(kind byte, variant, i int) []byte {
		return []byte{kind | byte(variant)<<3, byte(i >> 8), byte(i)}
	}
	tape := func(steps ...[]byte) []byte { return bytes.Join(steps, nil) }
	// Key 4 and 6 start in a section, key 7 does not; first is the first
	// key of a block.
	tr, _, _ := open(f)
	fk := tr.shards[1].Load().pr.FirstKey(1)
	first := slices.IndexFunc(keys, func(k []byte) bool { return bytes.Equal(k, fk) })
	f.Add(tape(step(opDelete, 0, first), step(opLookup, 0, first), step(opInsert, 1, first), step(opFold, 0, first)))
	f.Add(tape(step(opDelete, 0, 4), step(opFold, 0, 4), step(opLookup, 0, 4)))
	f.Add(tape(step(opDelete, 0, first), step(opPromote, 0, first), step(opScan, 0, first)))
	f.Add(tape(step(opUpsert, 1, first), step(opDelete, 0, first), step(opScan, 0, first), step(opDemote, 0, first)))
	f.Add(tape(step(opDelete, 0, 6), step(opDelete, 0, 6), step(opInsert, 0, 7), step(opDelete, 0, 7), step(opUpsert, 1, 6)))
	f.Fuzz(func(t *testing.T, ops []byte) {
		tr, model, dir := open(t)
		check := func() {
			t.Helper()
			// Every cut writes the one base kind.
			if legacy, err := filepath.Glob(filepath.Join(dir, "cold-*.hot")); err != nil || len(legacy) != 0 {
				t.Fatalf("tier directory holds %v (%v)", legacy, err)
			}
			want := make([]pathEntry, 0, len(model))
			for _, k := range sorted {
				if tid, ok := model[string(k)]; ok {
					want = append(want, pathEntry{k, tid})
				}
			}
			checkTree(t, tr, want)
		}
		for ; len(ops) >= 3; ops = ops[3:] {
			i := (int(ops[1])<<8 | int(ops[2])) % n
			k, tid := keys[i], TID(int(ops[0]>>3)%variants*n+i)
			s := tr.Shard(k)
			have, present := model[string(k)]
			switch ops[0] & 7 {
			case opInsert:
				if ok := tr.Insert(k, tid); ok == present {
					t.Fatalf("Insert(%d) = %v with the key present %v", i, ok, present)
				} else if ok {
					model[string(k)] = tid
				}
			case opUpsert:
				if old, ok := tr.Upsert(k, tid); ok != present || old != have {
					t.Fatalf("Upsert(%d) = (%d, %v), model (%d, %v)", i, old, ok, have, present)
				}
				model[string(k)] = tid
			case opDelete:
				if ok := tr.Delete(k); ok != present {
					t.Fatalf("Delete(%d) = %v with the key present %v", i, ok, present)
				}
				delete(model, string(k))
			case opLookup:
			case opScan:
				var got []TID
				tr.Scan(k, 20, func(tid TID) bool { got = append(got, tid); return true })
				j := sort.Search(n, func(j int) bool { return bytes.Compare(sorted[j], k) >= 0 })
				var want []TID
				for ; j < n && len(want) < 20; j++ {
					if tid, ok := model[string(sorted[j])]; ok {
						want = append(want, tid)
					}
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("Scan(%d) = %v, want %v", i, got, want)
				}
			case opDemote, opPromote, opFold:
				var err error
				switch ops[0] & 7 {
				case opDemote:
					err = tr.Demote(s)
				case opPromote:
					err = tr.Promote(s)
				default:
					if tr.IsCold(s) {
						err = tr.Demote(s)
					}
				}
				if err != nil {
					t.Fatal(err)
				}
				check()
			}
			if got, ok := tr.Lookup(k); got != model[string(k)] || ok != hasKey(model, k) {
				t.Fatalf("op %d on key %d: Lookup = (%d, %v), model (%d, %v)", ops[0]&7, i, got, ok, model[string(k)], hasKey(model, k))
			}
		}
		check()
	})
}

func hasKey(m map[string]TID, k []byte) bool {
	_, ok := m[string(k)]
	return ok
}
