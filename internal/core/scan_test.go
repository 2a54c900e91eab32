package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/hotindex/hot/internal/tidstore"
)

// FuzzScan checks Scan on both trie types against a sorted oracle after a
// random insert/delete sequence: from a nil start, a stored key and an
// absent one, with a random max (math.MaxInt among them, the unbounded
// scan) and a random index at which fn stops the scan, the TIDs handed out
// and the returned count must be the oracle's.
// Short sequences leave 0-, 1- and 2-entry tries; long ones over the
// variable-length keys grow inner nodes that hold leaf entries, the runs
// of one a scan steps through between leaf nodes.
func FuzzScan(f *testing.F) {
	// Seeds: an empty trie; 1- and 2-entry tries; scans that max ends in
	// mid-leaf (stop = max: fn never refuses) and ones fn stops; a scan
	// with max 0; one past the end; unbounded ones, stopped and not.
	f.Add(int64(1), uint16(0), false, uint8(10), uint8(10))
	f.Add(int64(2), uint16(1), false, uint8(3), uint8(0))
	f.Add(int64(3), uint16(2), true, uint8(5), uint8(5))
	f.Add(int64(4), uint16(400), false, uint8(50), uint8(50))
	f.Add(int64(5), uint16(900), true, uint8(37), uint8(37))
	f.Add(int64(6), uint16(600), false, uint8(33), uint8(21))
	f.Add(int64(7), uint16(700), true, uint8(0), uint8(9))
	f.Add(int64(8), uint16(500), false, uint8(254), uint8(200))
	f.Add(int64(9), uint16(1), false, uint8(255), uint8(255))
	f.Add(int64(10), uint16(2), true, uint8(255), uint8(255))
	f.Add(int64(11), uint16(600), false, uint8(255), uint8(255))
	f.Add(int64(12), uint16(900), true, uint8(255), uint8(40))
	f.Fuzz(func(t *testing.T, seed int64, opsIn uint16, fixed bool, maxIn, stopIn uint8) {
		rng := rand.New(rand.NewSource(seed))
		gen := func() []byte {
			if fixed {
				// Integers from a narrow range share long prefixes.
				return binary.BigEndian.AppendUint64(nil, uint64(rng.Intn(1<<12))<<20)
			}
			return randomKey(rng)
		}
		s := &tidstore.Store{}
		tr, ct := New(s.Key), NewConcurrent(s.Key)
		oracle := map[string]TID{}
		for op := 0; op < int(opsIn)%1200; op++ {
			k := gen()
			if rng.Intn(4) == 0 {
				_, present := oracle[string(k)]
				if tr.Delete(k) != present || ct.Delete(k) != present {
					t.Fatalf("delete %x: want %v", k, present)
				}
				delete(oracle, string(k))
				continue
			}
			tid := s.Add(k)
			if _, present := oracle[string(k)]; !present {
				oracle[string(k)] = tid
			}
			tr.Insert(k, tid)
			ct.Insert(k, tid)
		}
		sorted := make([]string, 0, len(oracle))
		for k := range oracle {
			sorted = append(sorted, k)
		}
		sort.Strings(sorted)

		starts := [][]byte{nil, gen()}
		if len(sorted) > 0 {
			starts = append(starts, []byte(sorted[rng.Intn(len(sorted))]))
		}
		max, stop := int(maxIn)%70, int(stopIn) // fn refuses entry stop; none when stop ≥ len(want)
		switch {
		case maxIn == 255:
			max = math.MaxInt // unbounded
		case maxIn >= 250:
			max = len(sorted) + 1 // beyond the end
		}
		if max < math.MaxInt {
			stop %= max + 1
		}
		for _, start := range starts {
			lb := sort.Search(len(sorted), func(i int) bool { return bytes.Compare([]byte(sorted[i]), start) >= 0 })
			var want []TID
			for _, k := range sorted[lb:][:min(len(sorted)-lb, max)] {
				want = append(want, oracle[k])
			}
			if stop < len(want) {
				want = want[:stop+1]
			}
			for _, c := range []struct {
				name string
				scan func([]byte, int, func(TID) bool) int
			}{{"Trie", tr.Scan}, {"ConcurrentTrie", ct.Scan}} {
				var got []TID
				n := c.scan(start, max, func(tid TID) bool {
					got = append(got, tid)
					return len(got)-1 != stop
				})
				if n != len(want) || !slices.Equal(got, want) {
					t.Fatalf("%s.Scan(%x, %d) stopping at %d over %d keys: n=%d got %v, want %v",
						c.name, start, max, stop, len(sorted), n, got, want)
				}
			}
		}
	})
}
