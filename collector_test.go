package hot

import (
	"bytes"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/hotindex/hot/internal/dataset"
	"github.com/hotindex/hot/internal/tidstore"
)

// TestReadersOutliveReplacedNodes states the safety argument for reading
// obsolete nodes: no reader pins anything and no writer defers a free, so
// a node that an insert or delete replaced stays intact only because the
// garbage collector keeps it while a reader still holds it. Under
// SetGCPercent(1), which collects almost continuously, ROWEX inserts and
// deletes on a ConcurrentTree and Writer-path writes on a ShardedTree race
// readers doing Lookup, LookupBatch, Scan and a cursor walk. Half the keys
// stay put and must always be found; the other half come and go. Every
// answer must be the TID its key was stored under, and every scan and
// walk must ascend. Readers must finish rounds and the collector must
// run while the writers do, or the test showed nothing.
func TestReadersOutliveReplacedNodes(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(1))
	const n = 4000
	keys := dataset.Generate(dataset.URL, n, 61)
	s := &tidstore.Store{}
	tids := make([]TID, n)
	for i, k := range keys {
		tids[i] = s.Add(k)
	}
	type index interface {
		Lookup([]byte) (TID, bool)
		LookupBatch([][]byte, []TID) []bool
		Scan([]byte, int, func(TID) bool) int
		Insert([]byte, TID) bool
		Delete([]byte) bool
	}
	ct := NewConcurrent(s.Key)
	st := NewShardedTree(s.Key, 4, keys)
	for _, c := range []struct {
		name string
		tr   index
		// walk visits up to max entries from start in order.
		walk func(start []byte, max int, fn func(TID))
	}{
		{"rowex", ct, func(start []byte, max int, fn func(TID)) {
			for c := ct.Iter(start); c.Valid() && max > 0; c.Next() {
				fn(c.TID())
				max--
			}
		}},
		{"sharded", st, func(start []byte, max int, fn func(TID)) {
			for c := st.Iter(start); c.Valid() && max > 0; c.Next() {
				fn(c.TID())
				max--
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			for i := 0; i < n; i += 2 {
				c.tr.Insert(keys[i], tids[i])
			}
			// ascending checks that the TIDs one scan or walk reached
			// resolve to strictly ascending keys.
			ascending := func(what string, visit func(fn func(TID))) {
				var prev []byte
				visit(func(tid TID) {
					k := s.Key(tid, nil)
					if prev != nil && bytes.Compare(prev, k) >= 0 {
						t.Errorf("%s went from %q to %q", what, prev, k)
					}
					prev = k
				})
			}
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			gcs := ms.NumGC
			var rounds atomic.Int64
			var wg sync.WaitGroup
			stop := make(chan struct{})
			for r := 0; r < 2; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					batch := make([][]byte, 32)
					out := make([]TID, len(batch))
					for j := r; ; j += 7 {
						select {
						case <-stop:
							return
						default:
						}
						i := j % n
						if tid, ok := c.tr.Lookup(keys[i]); ok && tid != tids[i] || !ok && i%2 == 0 {
							t.Errorf("Lookup(%d) = (%d, %v), want TID %d", i, tid, ok, tids[i])
							return
						}
						for b := range batch {
							batch[b] = keys[(i+b)%n]
						}
						found := c.tr.LookupBatch(batch, out)
						for b := range batch {
							if i := (i + b) % n; found[b] && out[b] != tids[i] || !found[b] && i%2 == 0 {
								t.Errorf("LookupBatch key %d = (%d, %v), want TID %d", i, out[b], found[b], tids[i])
								return
							}
						}
						ascending("Scan", func(fn func(TID)) {
							c.tr.Scan(keys[i], 64, func(tid TID) bool { fn(tid); return true })
						})
						ascending("cursor walk", func(fn func(TID)) { c.walk(keys[i], 64, fn) })
						rounds.Add(1)
					}
				}(r)
			}
			for round := 0; round < 3; round++ {
				for i := 1; i < n; i += 2 {
					c.tr.Insert(keys[i], tids[i])
				}
				for i := 1; i < n; i += 2 {
					c.tr.Delete(keys[i])
				}
			}
			close(stop)
			wg.Wait()
			runtime.ReadMemStats(&ms)
			if rounds.Load() == 0 || ms.NumGC == gcs {
				t.Fatalf("%d reader rounds, %d collections during the writes", rounds.Load(), ms.NumGC-gcs)
			}
			t.Logf("%d reader rounds, %d collections", rounds.Load(), ms.NumGC-gcs)
		})
	}
}
