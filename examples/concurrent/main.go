// concurrent demonstrates the ROWEX-synchronized trie (Section 5 of the
// paper): writers insert from multiple goroutines while readers run
// wait-free lookups and ordered scans, then the example reports reader/
// writer throughput per goroutine count and how many entries a scan saw
// while inserts ran.
package main

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	hot "github.com/hotindex/hot"
)

func main() {
	const n = 500000
	keys := make([][]byte, n)
	for i := range keys {
		k := make([]byte, 8)
		binary.BigEndian.PutUint64(k, uint64(i)*0x9E3779B97F4A7C15>>1)
		keys[i] = k
	}
	loader := func(tid hot.TID, buf []byte) []byte { return keys[tid] }

	maxThreads := runtime.GOMAXPROCS(0)
	fmt.Printf("%-8s %-14s %-14s\n", "threads", "insert Mops", "lookup Mops")
	for threads := 1; threads <= maxThreads; threads *= 2 {
		tr := hot.NewConcurrent(loader)

		start := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < threads; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < n; i += threads {
					tr.Insert(keys[i], hot.TID(i))
				}
			}(w)
		}
		wg.Wait()
		insertMops := float64(n) / time.Since(start).Seconds() / 1e6

		start = time.Now()
		var misses atomic.Int64
		for w := 0; w < threads; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < n; i += threads {
					if _, ok := tr.Lookup(keys[i]); !ok {
						misses.Add(1)
					}
				}
			}(w)
		}
		wg.Wait()
		lookupMops := float64(n) / time.Since(start).Seconds() / 1e6

		if misses.Load() != 0 || tr.Len() != n {
			panic("concurrent index lost keys")
		}
		fmt.Printf("%-8d %-14.2f %-14.2f\n", threads, insertMops, lookupMops)
	}

	// Readers stay wait-free while writers churn: run a scan during writes.
	tr := hot.NewConcurrent(loader)
	for i := 0; i < n/2; i++ {
		tr.Insert(keys[i], hot.TID(i))
	}
	stop := make(chan struct{})
	var scanned atomic.Int64
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			tr.Scan(nil, 1000, func(hot.TID) bool { scanned.Add(1); return true })
		}
	}()
	for i := n / 2; i < n; i++ {
		tr.Insert(keys[i], hot.TID(i))
	}
	close(stop)

	fmt.Printf("\nscanned %d entries concurrently with %d inserts\n", scanned.Load(), n/2)
}
