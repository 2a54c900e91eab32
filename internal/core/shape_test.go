package core

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/hotindex/hot/internal/dataset"
	"github.com/hotindex/hot/internal/tidstore"
)

var updateShape = flag.Bool("update-shape", false, "rewrite testdata/shape-*.json from the current build")

// trieShape is everything about a trie's shape that its node layout must
// not change: node and entry counts, the Figure 6 layout census, the
// paper-layout bytes, the height and the leaf-depth histogram.
type trieShape struct {
	Nodes      int
	FanoutSum  int
	Layouts    [numLayouts]int
	PaperBytes int
	Height     int
	Depths     DepthStats
}

func shapeOf(tr *Trie) trieShape {
	m := tr.Memory()
	return trieShape{
		Nodes:      m.Nodes,
		FanoutSum:  m.FanoutSum,
		Layouts:    m.Layouts,
		PaperBytes: m.PaperBytes,
		Height:     tr.Height(),
		Depths:     tr.Depths(),
	}
}

// buildShapeTrie builds the seeded 100k-key trie of kind the shape tests
// measure, returning it and its keys.
func buildShapeTrie(kind dataset.Kind) (*Trie, [][]byte) {
	keys := dataset.Generate(kind, 100000, 1)
	s := &tidstore.Store{}
	tr := New(s.Key)
	for _, k := range keys {
		tr.Insert(k, s.Add(k))
	}
	return tr, keys
}

// TestNodeShapeFixture builds seeded 100k-key tries over the url and
// integer data sets, then deletes every fourth key, and compares the shape
// after each phase with testdata/shape-<kind>.json. The physical node
// representation is free to change; the trie it represents is not. Run
// with -update-shape only when the trie itself is meant to change. Each
// phase's trie must also verify: the url trie holds multi16 nodes, whose
// blocks keep a tail.
func TestNodeShapeFixture(t *testing.T) {
	for _, kind := range []dataset.Kind{dataset.URL, dataset.Integer} {
		tr, keys := buildShapeTrie(kind)
		got := map[string]trieShape{"loaded": shapeOf(tr)}
		if err := tr.Verify(); err != nil {
			t.Fatalf("%v loaded: %v", kind, err)
		}
		for i := 0; i < len(keys); i += 4 {
			tr.Delete(keys[i])
		}
		got["deleted"] = shapeOf(tr)
		if err := tr.Verify(); err != nil {
			t.Fatalf("%v deleted: %v", kind, err)
		}

		path := filepath.Join("testdata", "shape-"+kind.String()+".json")
		if *updateShape {
			b, err := json.MarshalIndent(got, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var want map[string]trieShape
		if err := json.Unmarshal(b, &want); err != nil {
			t.Fatal(err)
		}
		for _, phase := range []string{"loaded", "deleted"} {
			if !reflect.DeepEqual(got[phase], want[phase]) {
				t.Errorf("%v %s: shape changed\ngot  %+v\nwant %+v", kind, phase, got[phase], want[phase])
			}
		}
	}
}

// TestGoBytesPerKey bounds the Go heap the nodes of TestNodeShapeFixture's
// loaded tries take per key — the figure the fixture leaves out, since
// the representation may change: a layout that regresses memory fails
// here, not only in the benchmark. Leaf nodes hold bare 8-byte TIDs and no
// block stores the bit positions its header implies, so the tries sit
// near 13.5 (url) and 12.6 (integer) B/key.
func TestGoBytesPerKey(t *testing.T) {
	for _, c := range []struct {
		kind  dataset.Kind
		bound float64
	}{{dataset.URL, 14.2}, {dataset.Integer, 13.0}} {
		tr, keys := buildShapeTrie(c.kind)
		perKey := float64(tr.Memory().GoBytes) / float64(len(keys))
		t.Logf("%v: %.2f B/key", c.kind, perKey)
		if perKey > c.bound {
			t.Errorf("%v: nodes take %.2f B/key, want ≤ %.1f", c.kind, perKey, c.bound)
		}
	}
}
