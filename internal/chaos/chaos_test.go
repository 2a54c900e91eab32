package chaos

import (
	"sync"
	"testing"
)

func TestDisarmedFireIsNoop(t *testing.T) {
	if Armed() {
		t.Fatal("registry armed at test start")
	}
	for _, p := range Points() {
		if Fire(p) {
			t.Fatalf("disarmed Fire(%v) reported an action", p)
		}
	}
}

func TestArmFireDisarm(t *testing.T) {
	r := New(1)
	var ran int
	r.On(RowexAfterTraverse, 1, func() { ran++ })
	r.Arm()
	defer Disarm()

	if !Fire(RowexAfterTraverse) {
		t.Fatal("prob-1 point did not fire")
	}
	if Fire(RowexBeforeUnlock) {
		t.Fatal("unconfigured point fired")
	}
	if ran != 1 {
		t.Fatalf("action ran %d times", ran)
	}
	if r.Hits(RowexAfterTraverse) != 1 || r.Fired(RowexAfterTraverse) != 1 {
		t.Fatalf("hits=%d fired=%d", r.Hits(RowexAfterTraverse), r.Fired(RowexAfterTraverse))
	}
	if r.Hits(RowexBeforeUnlock) != 1 || r.Fired(RowexBeforeUnlock) != 0 {
		t.Fatalf("unconfigured point hits=%d fired=%d",
			r.Hits(RowexBeforeUnlock), r.Fired(RowexBeforeUnlock))
	}
	if r.FiredTotal() != 1 {
		t.Fatalf("FiredTotal = %d", r.FiredTotal())
	}

	Disarm()
	if Fire(RowexAfterTraverse) {
		t.Fatal("fired after Disarm")
	}
	if r.Hits(RowexAfterTraverse) != 1 {
		t.Fatal("disarmed Fire still counted a hit")
	}
}

func TestSeedDeterminism(t *testing.T) {
	// The same seed must produce the same fire/skip sequence for a
	// single-goroutine hit stream.
	sequence := func(seed int64) []bool {
		r := New(seed)
		r.On(RowexMidCopy, 0.5, nil)
		r.Arm()
		defer Disarm()
		var got []bool
		for i := 0; i < 256; i++ {
			got = append(got, Fire(RowexMidCopy))
		}
		return got
	}
	a, b := sequence(42), sequence(42)
	fired := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sequences diverge at hit %d", i)
		}
		if a[i] {
			fired++
		}
	}
	if fired == 0 || fired == len(a) {
		t.Fatalf("prob-0.5 fired %d of %d hits", fired, len(a))
	}
	c := sequence(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical sequences")
	}
}

func TestDoubleArmPanics(t *testing.T) {
	r1, r2 := New(1), New(2)
	r1.Arm()
	defer Disarm()
	defer func() {
		if recover() == nil {
			t.Fatal("second Arm did not panic")
		}
	}()
	r2.Arm()
}

func TestConcurrentFire(t *testing.T) {
	r := New(7)
	r.On(RowexBetweenLocks, 0.5, Yield(1))
	r.Arm()
	defer Disarm()
	var wg sync.WaitGroup
	const workers, perWorker = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				Fire(RowexBetweenLocks)
			}
		}()
	}
	wg.Wait()
	if got := r.Hits(RowexBetweenLocks); got != workers*perWorker {
		t.Fatalf("hits = %d, want %d", got, workers*perWorker)
	}
	if f := r.Fired(RowexBetweenLocks); f == 0 || f >= workers*perWorker {
		t.Fatalf("fired = %d of %d", f, workers*perWorker)
	}
}

func TestPointNames(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range Points() {
		n := p.String()
		if n == "" || n == "chaos/unknown" || seen[n] {
			t.Fatalf("bad or duplicate point name %q", n)
		}
		seen[n] = true
	}
}
