package main

import (
	"bytes"
	"hash/fnv"
	"math"
	"sort"
)

// keyset is one generated key table and the harness's oracle over it. The
// TID of keys[i] is i everywhere, so every lookup has one right answer and
// every scan has one right TID sequence. dataset.Generate draws keys
// sequentially, so an n-key set is a prefix of every larger set from the
// same seed: all url workloads share one key population.
type keyset struct {
	keys   [][]byte // by TID, in generation (random) order
	order  []uint32 // TIDs in ascending key order
	rank   []uint32 // rank[tid] = position of keys[tid] in order
	sorted [][]byte // keys in ascending order: the calibrator's table
}

func newKeyset(keys [][]byte) *keyset {
	n := len(keys)
	ks := &keyset{keys: keys, order: make([]uint32, n), rank: make([]uint32, n), sorted: make([][]byte, n)}
	for i := range ks.order {
		ks.order[i] = uint32(i)
	}
	sort.Slice(ks.order, func(a, b int) bool { return bytes.Compare(keys[ks.order[a]], keys[ks.order[b]]) < 0 })
	for pos, tid := range ks.order {
		ks.rank[tid] = uint32(pos)
		ks.sorted[pos] = keys[tid]
	}
	return ks
}

// prefix returns the oracle over the first n keys (the ladder's sample).
func (ks *keyset) prefix(n int) *keyset {
	if n >= len(ks.keys) {
		return ks
	}
	return newKeyset(ks.keys[:n])
}

// boundarySample returns up to 4096 exact quantiles of the key table.
// shard.Boundaries takes its shard bounds from the quantiles of its
// sample, so this makes the eight shards equal-sized on every seed, and
// per-shard effects (which shards stay resident on cold-url) repeat.
func (ks *keyset) boundarySample() [][]byte {
	const max = 4096
	n := len(ks.sorted)
	if n <= max {
		return ks.sorted
	}
	out := make([][]byte, max)
	for i := range out {
		out[i] = ks.sorted[i*n/max]
	}
	return out
}

// rng is splitmix64: the op streams must not change when math/rand does.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) intn(n int) int { return int(r.float() * float64(n)) }

// streamSeed derives one phase's stream seed from the run seed.
func streamSeed(seed int64, phase string) rng {
	h := fnv.New64a()
	var b [8]byte
	for i := range b {
		b[i] = byte(uint64(seed) >> (8 * i))
	}
	h.Write(b[:])
	h.Write([]byte(phase))
	return rng(h.Sum64())
}

// zipf draws ranks in [0, n) with skew theta by the method of Gray et al.
// ("Quickly generating billion-record synthetic databases"), as YCSB does.
// Rank r is key r: the key table is in random order already, so the hot
// keys are spread over the whole key space and over all shards.
type zipf struct {
	n, theta, alpha, zetan, eta, half float64
}

func newZipf(n int, theta float64) *zipf {
	z := &zipf{n: float64(n), theta: theta, alpha: 1 / (1 - theta), half: math.Pow(0.5, theta)}
	for i := 1; i <= n; i++ {
		z.zetan += 1 / math.Pow(float64(i), theta)
	}
	z.eta = (1 - math.Pow(2/z.n, 1-theta)) / (1 - (1+z.half)/z.zetan)
	return z
}

func (z *zipf) draw(r *rng) int {
	u := r.float()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+z.half {
		return 1
	}
	if i := int(z.n * math.Pow(z.eta*u-z.eta+1, z.alpha)); i < int(z.n) {
		return i
	}
	return int(z.n) - 1
}

// writeBit marks an op of the mixed stream as the Upsert half.
const writeBit = 1 << 31

// stream fills op buffers for one phase: key indices (TIDs), uniform or
// zipf, all inside [0, n) so every op targets a loaded key. Generation
// happens before a slice is timed.
type stream struct {
	r      rng
	n      int
	z      *zipf // nil: uniform
	mixed  bool  // odd ops carry writeBit: exactly half the ops are writes
	digest uint64
}

func (s *stream) fill(buf []uint32) {
	for i := range buf {
		var k int
		if s.z != nil {
			k = s.z.draw(&s.r)
		} else {
			k = s.r.intn(s.n)
		}
		v := uint32(k)
		if s.mixed && i&1 == 1 {
			v |= writeBit
		}
		buf[i] = v
		s.digest = (s.digest ^ uint64(v)) * 0x100000001b3
	}
}

// phaseStream returns the op stream of one phase. Reads are uniform except
// on cold-url, where they are zipf; the mixed and put streams are zipf on
// every workload.
func phaseStream(w *workloadCfg, phase string, seed int64, n int, z *zipf) *stream {
	s := &stream{r: streamSeed(seed, w.name+"/"+phase), n: n, digest: 0xcbf29ce484222325}
	switch phase {
	case "mixed":
		s.z, s.mixed = z, true
	case "put", "tail":
		s.z = z
	case "scan":
	default:
		if w.name == "cold-url" {
			s.z = z
		}
	}
	return s
}
