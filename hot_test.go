package hot

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"github.com/hotindex/hot/internal/tidstore"
)

func TestTreePublicAPI(t *testing.T) {
	s := &tidstore.Store{}
	tr := New(s.Key)
	words := []string{"delta", "alpha", "charlie", "bravo", "echo"}
	for _, w := range words {
		if !tr.Insert([]byte(w), s.AddString(w)) {
			t.Fatalf("insert %q failed", w)
		}
	}
	if tr.Len() != len(words) {
		t.Fatalf("len = %d", tr.Len())
	}
	if tid, ok := tr.Lookup([]byte("charlie")); !ok || string(s.Key(tid, nil)) != "charlie" {
		t.Fatal("lookup failed")
	}
	var got []string
	tr.Scan(nil, 10, func(tid TID) bool {
		got = append(got, string(s.Key(tid, nil)))
		return true
	})
	want := append([]string(nil), words...)
	sort.Strings(want)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("scan = %v", got)
	}
	if !tr.Delete([]byte("bravo")) || tr.Len() != 4 {
		t.Fatal("delete failed")
	}
	if old, replaced := tr.Upsert([]byte("echo"), s.AddString("echo")); !replaced || string(s.Key(old, nil)) != "echo" {
		t.Fatal("upsert failed")
	}
	if tr.Height() < 1 {
		t.Fatal("height")
	}
	if m := tr.Memory(); m.Nodes == 0 || m.PaperBytes == 0 {
		t.Fatal("memory stats empty")
	}
	if d := tr.Depths(); d.Leaves != 4 {
		t.Fatalf("depths = %+v", d)
	}
}

func TestMapArbitraryKeys(t *testing.T) {
	m := NewMap()
	// Keys with embedded zeros, prefixes of each other, and empty keys all
	// coexist thanks to the order-preserving escape.
	keys := [][]byte{
		{}, {0}, {0, 0}, {0, 1}, {1}, {1, 0},
		[]byte("a"), []byte("ab"), []byte("a\x00b"), []byte("a\x00"),
	}
	for i, k := range keys {
		if !m.Set(k, uint64(i+100)) {
			t.Fatalf("Set(%x) reported existing", k)
		}
	}
	if m.Len() != len(keys) {
		t.Fatalf("len = %d, want %d", m.Len(), len(keys))
	}
	for i, k := range keys {
		v, ok := m.Get(k)
		if !ok || v != uint64(i+100) {
			t.Fatalf("Get(%x) = (%d,%v), want %d", k, v, ok, i+100)
		}
	}
	// Overwrite.
	if m.Set(keys[3], 999) {
		t.Fatal("overwrite reported new")
	}
	if v, _ := m.Get(keys[3]); v != 999 {
		t.Fatal("overwrite lost")
	}
	// Range order must equal lexicographic byte order of the raw keys.
	sorted := append([][]byte(nil), keys...)
	sort.Slice(sorted, func(i, j int) bool { return bytes.Compare(sorted[i], sorted[j]) < 0 })
	var got [][]byte
	m.Range(nil, -1, func(k []byte, v uint64) bool {
		got = append(got, append([]byte(nil), k...))
		return true
	})
	if len(got) != len(sorted) {
		t.Fatalf("range returned %d keys", len(got))
	}
	for i := range got {
		if !bytes.Equal(got[i], sorted[i]) {
			t.Fatalf("range[%d] = %x, want %x", i, got[i], sorted[i])
		}
	}
	// Bounded range from a start key.
	got = got[:0]
	m.Range([]byte{0, 0}, 3, func(k []byte, v uint64) bool {
		got = append(got, append([]byte(nil), k...))
		return true
	})
	if len(got) != 3 || !bytes.Equal(got[0], []byte{0, 0}) {
		t.Fatalf("bounded range = %x", got)
	}
	// Delete.
	if !m.Delete(keys[0]) || m.Delete(keys[0]) {
		t.Fatal("delete misbehaved")
	}
}

func TestMapRandomOracle(t *testing.T) {
	m := NewMap()
	oracle := map[string]uint64{}
	rng := rand.New(rand.NewSource(51))
	for step := 0; step < 20000; step++ {
		k := make([]byte, rng.Intn(12))
		for i := range k {
			k[i] = byte(rng.Intn(4)) // small alphabet: many prefixes/zeros
		}
		switch rng.Intn(4) {
		case 0:
			if got := m.Delete(k); got != (func() bool { _, ok := oracle[string(k)]; return ok })() {
				t.Fatalf("delete mismatch at %d", step)
			}
			delete(oracle, string(k))
		default:
			v := rng.Uint64()
			isNew := m.Set(k, v)
			if _, present := oracle[string(k)]; present == isNew {
				t.Fatalf("Set new=%v but oracle present=%v", isNew, present)
			}
			oracle[string(k)] = v
		}
		if m.Len() != len(oracle) {
			t.Fatalf("len %d != %d", m.Len(), len(oracle))
		}
	}
	for k, v := range oracle {
		got, ok := m.Get([]byte(k))
		if !ok || got != v {
			t.Fatalf("Get(%x) = (%d,%v), want %d", k, got, ok, v)
		}
	}
}

func TestMapKeyLengthLimit(t *testing.T) {
	m := NewMap()
	// MaxMapKeyLen is accepted even in the worst case (all zero bytes).
	big := make([]byte, MaxMapKeyLen)
	if !m.Set(big, 1) {
		t.Fatal("max-length zero key rejected")
	}
	if v, ok := m.Get(big); !ok || v != 1 {
		t.Fatal("max-length key lost")
	}
	defer func() {
		if recover() == nil {
			t.Error("no panic for oversize Map key")
		}
	}()
	m.Set(make([]byte, MaxMapKeyLen+1), 2)
}

func TestEscapeKeyOrderPreserving(t *testing.T) {
	f := func(a, b []byte) bool {
		ea, eb := escapeKey(nil, a), escapeKey(nil, b)
		return sign(bytes.Compare(a, b)) == sign(bytes.Compare(ea, eb))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	// Round trip.
	g := func(a []byte) bool {
		return bytes.Equal(unescapeKey(nil, escapeKey(nil, a)), a)
	}
	if err := quick.Check(g, nil); err != nil {
		t.Fatal(err)
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

func TestConcurrentTreePublicAPI(t *testing.T) {
	s := &tidstore.Store{}
	keys := make([][]byte, 5000)
	for i := range keys {
		k := make([]byte, 8)
		binary.BigEndian.PutUint64(k, uint64(i)*0x9E3779B97F4A7C15>>1)
		keys[i] = k
		s.Add(k)
	}
	tr := NewConcurrent(s.Key)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(keys); i += 4 {
				tr.Insert(keys[i], TID(i))
			}
		}(w)
	}
	wg.Wait()
	if tr.Len() != len(keys) {
		t.Fatalf("len = %d", tr.Len())
	}
	for i, k := range keys {
		if tid, ok := tr.Lookup(k); !ok || tid != TID(i) {
			t.Fatalf("lookup %d failed", i)
		}
	}
	if tr.Height() == 0 || tr.Memory().Nodes == 0 || tr.Depths().Leaves != len(keys) {
		t.Error("stats methods broken")
	}
}
