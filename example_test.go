package hot_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"testing"

	hot "github.com/hotindex/hot"
)

// TestExamplesRun runs the four programs under examples/ the way the README
// says to, each with its temporary files confined to the test's own
// directory: `go build ./...` proves they compile, only this proves they
// still run to completion. kvstore runs twice against the same directory —
// the second run must find both of its stores where the first left them.
func TestExamplesRun(t *testing.T) {
	tmp := t.TempDir()
	run := func(name string) []byte {
		cmd := exec.Command("go", "run", "./examples/"+name)
		cmd.Env = append(os.Environ(), "TMPDIR="+tmp)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("go run ./examples/%s: %v\n%s", name, err, out)
		}
		return out
	}
	for _, name := range []string{"quickstart", "emailindex", "concurrent", "kvstore"} {
		run(name)
	}
	out := run("kvstore")
	recovered := func(text []byte, re string) {
		m := regexp.MustCompile(re).FindSubmatch(text)
		if m == nil {
			t.Fatalf("kvstore's second run printed no line matching %s:\n%s", re, out)
		}
		if n, _ := strconv.Atoi(string(m[1])); n == 0 {
			t.Fatalf("kvstore's second run recovered nothing (%s):\n%s", m[0], out)
		}
	}
	first, _, _ := bytes.Cut(out, []byte("\n"))
	recovered(first, `^recovered (\d+) keys`)
	recovered(out, `(?m)^durable: recovered (\d+) keys`)
}

func ExampleMap() {
	m := hot.NewMap()
	m.Set([]byte("cherry"), 3)
	m.Set([]byte("apple"), 1)
	m.Set([]byte("banana"), 2)

	v, ok := m.Get([]byte("banana"))
	fmt.Println(v, ok)

	m.Range(nil, -1, func(k []byte, v uint64) bool {
		fmt.Printf("%s=%d\n", k, v)
		return true
	})
	// Output:
	// 2 true
	// apple=1
	// banana=2
	// cherry=3
}

func ExampleMap_Range() {
	m := hot.NewMap()
	for _, city := range []string{"berlin", "bern", "bonn", "boston", "bogota"} {
		m.Set([]byte(city), uint64(len(city)))
	}
	// The first two keys at or after "bo".
	m.Range([]byte("bo"), 2, func(k []byte, v uint64) bool {
		fmt.Printf("%s\n", k)
		return true
	})
	// Output:
	// bogota
	// bonn
}

// An integer set needs no tuple store: a loader that writes the TID's 8
// big-endian bytes makes every value its own key and TID, the paper's
// embedded-key optimization.
func ExampleTree_integerKeys() {
	embedded := func(tid hot.TID, buf []byte) []byte {
		return binary.BigEndian.AppendUint64(buf[:0], tid)
	}
	key := func(v uint64) []byte { return binary.BigEndian.AppendUint64(nil, v) }

	set := hot.New(embedded)
	for _, v := range []uint64{42, 7, 99, 7} {
		set.Insert(key(v), v) // the second 7 is refused
	}
	fmt.Println("size:", set.Len())
	set.Scan(key(10), set.Len(), func(v hot.TID) bool {
		fmt.Println(v)
		return true
	})
	// Output:
	// size: 3
	// 42
	// 99
}

// The same embedded-key loader makes a ShardedTree the concurrent,
// range-partitioned integer set, and serves every sharded entrance —
// OpenDurableShardedTree, LoadShardedTree, NewFollower.
func ExampleShardedTree_integerKeys() {
	embedded := func(tid hot.TID, buf []byte) []byte {
		return binary.BigEndian.AppendUint64(buf[:0], tid)
	}
	key := func(v uint64) []byte { return binary.BigEndian.AppendUint64(nil, v) }

	set := hot.NewShardedTree(embedded, 4, [][]byte{key(100), key(200), key(300)})
	for _, v := range []uint64{250, 7, 120, 999, 42} {
		set.Insert(key(v), v)
	}
	_, ok := set.Lookup(key(120))
	fmt.Println(ok, set.Len(), set.Shards())
	// Up to 3 values ≥ 40, in order across the shards.
	set.Scan(key(40), 3, func(v hot.TID) bool {
		fmt.Println(v)
		return true
	})
	// Output:
	// true 5 4
	// 42
	// 120
	// 250
}

func ExampleNew() {
	// The paper's index abstraction: the tree stores tuple identifiers and
	// resolves keys from the base table through a loader.
	table := []string{"ada\x00", "alan\x00", "grace\x00"}
	idx := hot.New(func(tid hot.TID, _ []byte) []byte { return []byte(table[tid]) })
	for tid := range table {
		idx.Insert([]byte(table[tid]), hot.TID(tid))
	}
	tid, ok := idx.Lookup([]byte("alan\x00"))
	fmt.Println(tid, ok)
	// Output:
	// 1 true
}

func ExampleTree_Scan() {
	table := []string{"a1\x00", "a2\x00", "b1\x00", "b2\x00", "c1\x00"}
	idx := hot.New(func(tid hot.TID, _ []byte) []byte { return []byte(table[tid]) })
	for tid := range table {
		idx.Insert([]byte(table[tid]), hot.TID(tid))
	}
	// Up to 2 entries starting at the first key ≥ "b".
	idx.Scan([]byte("b"), 2, func(tid hot.TID) bool {
		fmt.Println(table[tid][:2])
		return true
	})
	// Output:
	// b1
	// b2
}

func ExampleNewConcurrent() {
	keys := [][]byte{[]byte("k1\x00"), []byte("k2\x00")}
	idx := hot.NewConcurrent(func(tid hot.TID, _ []byte) []byte { return keys[tid] })
	done := make(chan struct{})
	go func() {
		idx.Insert(keys[0], 0)
		close(done)
	}()
	idx.Insert(keys[1], 1) // safe concurrently: ROWEX writers lock per node
	<-done
	fmt.Println(idx.Len())
	// Output:
	// 2
}
