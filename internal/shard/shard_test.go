package shard

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

func u64(v uint64) []byte {
	k := make([]byte, 8)
	binary.BigEndian.PutUint64(k, v)
	return k
}

func TestBoundariesQuantiles(t *testing.T) {
	// A uniform sample must produce n-1 roughly even, strictly ascending
	// boundaries that never alias the sample.
	rng := rand.New(rand.NewSource(1))
	sample := make([][]byte, 10000)
	for i := range sample {
		sample[i] = u64(rng.Uint64() >> 1)
	}
	for _, n := range []int{2, 4, 8, 32} {
		bounds := Boundaries(n, sample)
		if len(bounds) != n-1 {
			t.Fatalf("n=%d: got %d boundaries", n, len(bounds))
		}
		for i := 1; i < len(bounds); i++ {
			if bytes.Compare(bounds[i-1], bounds[i]) >= 0 {
				t.Fatalf("n=%d: boundaries not strictly ascending at %d", n, i)
			}
		}
		// Route the sample: every shard should own a meaningful slice.
		counts := make([]int, n)
		for _, k := range sample {
			counts[Find(bounds, k)]++
		}
		for s, c := range counts {
			if c < len(sample)/(4*n) {
				t.Fatalf("n=%d: shard %d owns only %d of %d sampled keys", n, s, c, len(sample))
			}
		}
	}
}

func TestBoundariesSkewFallsBack(t *testing.T) {
	// Fewer distinct keys than shards: quantiles are impossible, the
	// uniform first-byte split takes over.
	sample := [][]byte{[]byte("aaa"), []byte("aaa"), []byte("aab")}
	bounds := Boundaries(8, sample)
	if len(bounds) == 0 {
		t.Fatal("no boundaries from skewed sample")
	}
	for i := 1; i < len(bounds); i++ {
		if bytes.Compare(bounds[i-1], bounds[i]) >= 0 {
			t.Fatal("fallback boundaries not ascending")
		}
	}
	// Nil sample: same fallback.
	if got := Boundaries(4, nil); len(got) != 3 {
		t.Fatalf("nil sample: %d boundaries, want 3", len(got))
	}
	// n=1 needs no boundaries at all.
	if got := Boundaries(1, sample); got != nil {
		t.Fatalf("n=1: got %v", got)
	}
}

func TestBoundariesDoNotAliasSample(t *testing.T) {
	sample := make([][]byte, 64)
	for i := range sample {
		sample[i] = u64(uint64(i) * 1000)
	}
	bounds := Boundaries(4, sample)
	for i := range sample {
		for j := range sample[i] {
			sample[i][j] = 0xFF // clobber the sample
		}
	}
	for i := 1; i < len(bounds); i++ {
		if bytes.Compare(bounds[i-1], bounds[i]) >= 0 {
			t.Fatal("boundaries alias the sample storage")
		}
	}
}

func TestFindAndCheckBoundaryConvention(t *testing.T) {
	bounds := [][]byte{[]byte("b"), []byte("m"), []byte("t")}
	cases := []struct {
		k    string
		want int
	}{
		{"", 0}, {"a", 0}, {"azzz", 0},
		{"b", 1}, // on the boundary: higher shard
		{"bb", 1}, {"lzz", 1},
		{"m", 2}, {"s", 2},
		{"t", 3}, {"zz", 3},
	}
	for _, c := range cases {
		if got := Find(bounds, []byte(c.k)); got != c.want {
			t.Fatalf("Find(%q) = %d, want %d", c.k, got, c.want)
		}
		for i := 0; i <= len(bounds); i++ {
			if got := Check(bounds, i, []byte(c.k)); got != (i == c.want) {
				t.Fatalf("Check(%d, %q) = %v, Find says %d", i, c.k, got, c.want)
			}
		}
	}
	// Find against Check must agree on random keys too.
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		k := u64(rng.Uint64() >> 1)[:1+rng.Intn(7)]
		s := Find(bounds, k)
		if !Check(bounds, s, k) {
			t.Fatalf("Find(%q)=%d but Check rejects it", k, s)
		}
	}
}
