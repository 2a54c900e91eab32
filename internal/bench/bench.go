// Package bench wires the index structures, data sets and YCSB workloads
// together for the experiment driver (cmd/hot-exp) and the root benchmark
// suite: a uniform way to construct each evaluated index over a tuple
// store and to query its memory footprint.
package bench

import (
	"fmt"

	"github.com/hotindex/hot/internal/art"
	"github.com/hotindex/hot/internal/btree"
	"github.com/hotindex/hot/internal/core"
	"github.com/hotindex/hot/internal/dataset"
	"github.com/hotindex/hot/internal/masstree"
	"github.com/hotindex/hot/internal/tidstore"
	"github.com/hotindex/hot/internal/ycsb"
)

// Instance is one index under test.
type Instance struct {
	Idx ycsb.Index
	// PaperBytes returns the index's memory footprint in the paper's C++
	// node layouts (Figure 9's measure).
	PaperBytes func() int
}

// Names lists the evaluated index structures in the paper's order.
func Names() []string { return []string{"hot", "art", "btree", "masstree"} }

// New constructs the named index resolving keys through the store.
func New(name string, store *tidstore.Store) (Instance, error) {
	switch name {
	case "hot":
		t := core.New(store.Key)
		return Instance{Idx: t, PaperBytes: func() int { return t.Memory().PaperBytes }}, nil
	case "art":
		t := art.New(store.Key)
		return Instance{Idx: t, PaperBytes: func() int { return t.Memory().PaperBytes }}, nil
	case "btree":
		t := btree.New(store.Key)
		return Instance{Idx: t, PaperBytes: func() int { return t.Memory().PaperBytes }}, nil
	case "masstree":
		t := masstree.New()
		return Instance{Idx: t, PaperBytes: func() int { return t.Memory().PaperBytes }}, nil
	}
	return Instance{}, fmt.Errorf("bench: unknown index %q (hot|art|btree|masstree)", name)
}

// Data is a generated data set registered in a tuple store, ready to feed
// a ycsb.Runner.
type Data struct {
	Kind  dataset.Kind
	Keys  [][]byte
	TIDs  []uint64
	Store *tidstore.Store
}

// Load generates n+reserve keys of the given kind (reserve feeds
// transaction-phase inserts) and registers them in a fresh store.
func Load(kind dataset.Kind, n, reserve int, seed int64) *Data {
	keys := dataset.Generate(kind, n+reserve, seed)
	store := &tidstore.Store{}
	tids := make([]uint64, len(keys))
	for i, k := range keys {
		tids[i] = store.Add(k)
	}
	return &Data{Kind: kind, Keys: keys, TIDs: tids, Store: store}
}

// Runner builds a ycsb.Runner that loads the first n keys into inst.
func (d *Data) Runner(inst Instance, n int, seed int64) *ycsb.Runner {
	return ycsb.NewRunner(inst.Idx, d.Keys, d.TIDs, n, seed)
}
