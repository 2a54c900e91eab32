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

// TestNodeShapeFixture builds seeded 100k-key tries over the url and
// integer data sets, then deletes every fourth key, and compares the shape
// after each phase with testdata/shape-<kind>.json. The physical node
// representation is free to change; the trie it represents is not. Run
// with -update-shape only when the trie itself is meant to change.
func TestNodeShapeFixture(t *testing.T) {
	for _, kind := range []dataset.Kind{dataset.URL, dataset.Integer} {
		keys := dataset.Generate(kind, 100000, 1)
		s := &tidstore.Store{}
		tr := New(s.Key)
		for _, k := range keys {
			tr.Insert(k, s.Add(k))
		}
		got := map[string]trieShape{"loaded": shapeOf(tr)}
		for i := 0; i < len(keys); i += 4 {
			tr.Delete(keys[i])
		}
		got["deleted"] = shapeOf(tr)

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
