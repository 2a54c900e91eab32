package core

// DepthStats describes the distribution of leaf depths in compound nodes,
// the paper's tree-balance measure (Figure 11). A leaf entry of the root
// node has depth 1.
type DepthStats struct {
	Leaves int
	Min    int
	Max    int
	Mean   float64
	Hist   map[int]int
}

// MemoryStats reports the index's footprint two ways: PaperBytes follows
// the C++ node layouts of Figure 6 (what the paper's Figure 9 measures);
// GoBytes estimates the actual Go heap footprint of this implementation.
//
// Nodes/PaperBytes/GoBytes count only resident in-memory trees — a hot
// shard's trie, a demoted (cold) shard's delta of writes taken since its
// section was cut — never a cold section. The cold tier is reported
// separately — ColdShards and CacheBytes — so resident tree bytes and
// page-cache bytes are never blended into one number.
type MemoryStats struct {
	Nodes      int
	PaperBytes int
	GoBytes    int
	// Layouts counts nodes per physical layout (Figure 6's 9 layouts).
	Layouts [numLayouts]int
	// FanoutSum/Nodes is the average compound-node fanout.
	FanoutSum int

	// Cold-tier fields, populated by the shard layer when a memory budget
	// is active; always zero on unsharded tries.
	ResidentShards int   // shards currently served from in-memory trees
	ColdShards     int   // shards currently served from their snapshot section
	ColdBytes      int64 // on-disk bytes of the cold shards' snapshot files
	CacheBytes     int64 // stored blocks plus restart tables resident in the page cache right now
}

// Merge folds other into s: the combined leaf-depth distribution of
// several disjoint tries (the shard layer merges its per-shard stats).
func (s DepthStats) Merge(other DepthStats) DepthStats {
	if other.Leaves == 0 {
		return s
	}
	if s.Leaves == 0 {
		return other
	}
	out := DepthStats{
		Leaves: s.Leaves + other.Leaves,
		Min:    s.Min,
		Max:    s.Max,
		Hist:   map[int]int{},
	}
	if other.Min < out.Min {
		out.Min = other.Min
	}
	if other.Max > out.Max {
		out.Max = other.Max
	}
	for d, n := range s.Hist {
		out.Hist[d] += n
	}
	for d, n := range other.Hist {
		out.Hist[d] += n
	}
	out.Mean = (s.Mean*float64(s.Leaves) + other.Mean*float64(other.Leaves)) / float64(out.Leaves)
	return out
}

// Add returns m + other field-wise: the aggregate footprint of several
// disjoint tries (the shard layer sums its per-shard stats).
func (m MemoryStats) Add(other MemoryStats) MemoryStats {
	out := MemoryStats{
		Nodes:          m.Nodes + other.Nodes,
		PaperBytes:     m.PaperBytes + other.PaperBytes,
		GoBytes:        m.GoBytes + other.GoBytes,
		FanoutSum:      m.FanoutSum + other.FanoutSum,
		ResidentShards: m.ResidentShards + other.ResidentShards,
		ColdShards:     m.ColdShards + other.ColdShards,
		ColdBytes:      m.ColdBytes + other.ColdBytes,
		CacheBytes:     m.CacheBytes + other.CacheBytes,
	}
	for i := range out.Layouts {
		out.Layouts[i] = m.Layouts[i] + other.Layouts[i]
	}
	return out
}

// BytesPerKey returns the paper-layout bytes per stored key.
func (m MemoryStats) BytesPerKey(keys int) float64 {
	if keys == 0 {
		return 0
	}
	return float64(m.PaperBytes) / float64(keys)
}

// AvgFanout returns the average number of entries per compound node.
func (m MemoryStats) AvgFanout() float64 {
	if m.Nodes == 0 {
		return 0
	}
	return float64(m.FanoutSum) / float64(m.Nodes)
}

// LayoutName returns the name of physical layout i, for reports.
func (m MemoryStats) LayoutName(i int) string { return layoutKind(i).String() }

// NumLayouts is the number of physical node layouts (9, Figure 6).
const NumLayouts = int(numLayouts)

// Depths computes the leaf-depth distribution.
func (t *tree) Depths() DepthStats {
	st := DepthStats{Hist: map[int]int{}}
	rb := t.root.Load()
	if rb.leaf {
		st.Leaves, st.Min, st.Max, st.Mean = 1, 1, 1, 1
		st.Hist[1] = 1
		return st
	}
	if rb.n == nil {
		return st
	}
	var walk func(nd *node, d int)
	walk = func(nd *node, d int) {
		for i := range int(nd.n) {
			if c := nd.child(i); c != nil {
				walk(c, d+1)
				continue
			}
			st.Leaves++
			st.Hist[d]++
			if st.Min == 0 || d < st.Min {
				st.Min = d
			}
			if d > st.Max {
				st.Max = d
			}
			st.Mean += float64(d)
		}
	}
	walk(rb.n, 1)
	if st.Leaves > 0 {
		st.Mean /= float64(st.Leaves)
	}
	return st
}

// Memory computes the memory statistics by walking the tree.
func (t *tree) Memory() MemoryStats {
	var m MemoryStats
	rb := t.root.Load()
	if rb.n == nil {
		return m
	}
	var walk func(nd *node)
	walk = func(nd *node) {
		m.Nodes++
		m.PaperBytes += nd.paperBytes()
		m.GoBytes += nd.goBytes()
		m.Layouts[nd.layout()]++
		m.FanoutSum += int(nd.n)
		for i := range int(nd.n) {
			if c := nd.child(i); c != nil {
				walk(c)
			}
		}
	}
	walk(rb.n)
	return m
}
