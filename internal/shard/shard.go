// Package shard implements the range-partitioning substrate of the sharded
// HOT index: boundary selection from a sampled key table, key→shard
// routing, the range check every entry entering a shard must pass, and Op,
// the one write a shard applies. Because the shards
// partition the key space by range, the globally ordered stream is shard
// i's stream followed by shard i+1's; scans need no merge.
//
// A shard table is a strictly ascending slice of boundary keys; with
// len(bounds) = N-1 boundaries, shard i (0-based) owns exactly the keys k
// with bounds[i-1] <= k < bounds[i] (bounds[-1] = -inf, bounds[N-1] = +inf).
// Boundaries are inclusive lower bounds of the shard above them, so a key
// equal to a boundary routes to the higher shard — the convention every
// routing, scan-seek and snapshot-section decision in the layer shares.
package shard

import (
	"bytes"
	"sort"
)

// maxSample caps how many sample keys Boundaries sorts; callers may hand
// over their full key set and selection strides down to this budget.
const maxSample = 4096

// Boundaries picks up to n-1 strictly ascending boundary keys partitioning
// the key space into at most n range shards, chosen as the quantiles of the
// sampled key table. Duplicate quantiles (heavily skewed samples) are
// dropped rather than invented, so the result may describe fewer than n
// shards; an empty or too-small sample falls back to a uniform split of the
// first key byte. The returned keys are copies and never alias the sample.
func Boundaries(n int, sample [][]byte) [][]byte {
	if n <= 1 {
		return nil
	}
	// Stride the sample down to the sorting budget, then sort and dedupe.
	s := make([][]byte, 0, maxSample)
	step := (len(sample) + maxSample - 1) / maxSample
	if step < 1 {
		step = 1
	}
	for i := 0; i < len(sample); i += step {
		s = append(s, sample[i])
	}
	sort.Slice(s, func(i, j int) bool { return bytes.Compare(s[i], s[j]) < 0 })
	dedup := s[:0]
	for i, k := range s {
		if i == 0 || !bytes.Equal(dedup[len(dedup)-1], k) {
			dedup = append(dedup, k)
		}
	}
	if len(dedup) < n {
		return uniformBoundaries(n)
	}
	bounds := make([][]byte, 0, n-1)
	for i := 1; i < n; i++ {
		q := dedup[i*len(dedup)/n]
		if len(bounds) > 0 && bytes.Compare(bounds[len(bounds)-1], q) >= 0 {
			continue // skewed sample: drop the duplicate quantile
		}
		bounds = append(bounds, append([]byte(nil), q...))
	}
	return bounds
}

// uniformBoundaries splits the key space evenly on the first key byte, the
// sample-free fallback.
func uniformBoundaries(n int) [][]byte {
	if n > 256 {
		n = 256
	}
	bounds := make([][]byte, 0, n-1)
	for i := 1; i < n; i++ {
		b := byte(i * 256 / n)
		if len(bounds) > 0 && bounds[len(bounds)-1][0] == b {
			continue
		}
		bounds = append(bounds, []byte{b})
	}
	return bounds
}

// Find returns the index of the shard owning k under bounds: the number of
// boundaries ≤ k. A key equal to a boundary belongs to the shard above it.
func Find(bounds [][]byte, k []byte) int {
	lo, hi := 0, len(bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if bytes.Compare(k, bounds[mid]) < 0 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Check reports whether k lies inside shard i's range under bounds.
func Check(bounds [][]byte, i int, k []byte) bool {
	if i > 0 && bytes.Compare(k, bounds[i-1]) < 0 {
		return false
	}
	if i < len(bounds) && bytes.Compare(k, bounds[i]) >= 0 {
		return false
	}
	return true
}
