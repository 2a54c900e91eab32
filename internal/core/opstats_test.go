package core

import (
	"reflect"
	"testing"

	"github.com/hotindex/hot/internal/dataset"
	"github.com/hotindex/hot/internal/tidstore"
)

// TestAllInsertCasesOccur verifies that realistic workloads exercise every
// structure-adaptation case of Section 3.2 — the counters double as the
// wiring check for the OpStats observability API.
func TestAllInsertCasesOccur(t *testing.T) {
	var total OpStats
	for _, kind := range dataset.Kinds() {
		keys := dataset.Generate(kind, 100000, 3)
		s := &tidstore.Store{}
		tr := New(s.Key)
		for _, k := range keys {
			tr.Insert(k, s.Add(k))
		}
		st := tr.OpStats()
		// Normal inserts, pull ups and root creation happen on every data
		// set; pushdown and intermediate creation need height imbalance and
		// only fire on skewed distributions (they are checked in aggregate
		// below).
		if st.Normal == 0 {
			t.Errorf("%v: no normal inserts", kind)
		}
		if st.PullUp == 0 {
			t.Errorf("%v: no parent pull ups", kind)
		}
		// The height discipline in numbers: the root was created exactly
		// height-1 times after the first compound node appeared.
		if got, want := st.NewRoot, uint64(tr.Height()-1); got != want {
			t.Errorf("%v: NewRoot=%d, want height-1=%d", kind, got, want)
		}
		total.Normal += st.Normal
		total.Pushdown += st.Pushdown
		total.PullUp += st.PullUp
		total.Intermediate += st.Intermediate
		total.NewRoot += st.NewRoot
		t.Logf("%v: %s height=%d", kind, st, tr.Height())
	}
	if total.Pushdown == 0 {
		t.Error("no data set triggered leaf-node pushdown")
	}
	if total.Intermediate == 0 {
		t.Error("no data set triggered intermediate node creation")
	}
}

func TestOpStatsStringAndSub(t *testing.T) {
	a := OpStats{Normal: 10, Pushdown: 2, PullUp: 3, Intermediate: 1, NewRoot: 1,
		Restarts: 7, Backoffs: 2, ValidationFails: 5, Contended: 4}
	b := OpStats{Normal: 4, Restarts: 3, ValidationFails: 1}
	d := a.Sub(b)
	if d.Normal != 6 || d.Restarts != 4 || d.ValidationFails != 4 || d.Contended != 4 {
		t.Fatalf("Sub = %+v", d)
	}
	want := "normal=6 pushdown=2 pullup=3 intermediate=1 newroot=1 " +
		"restarts=4 backoffs=2 validationfails=4 contended=4"
	if got := d.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestOpStatsQueueCounters(t *testing.T) {
	a := OpStats{Normal: 1, Enqueued: 10, Steals: 3, Drains: 4, Drained: 9,
		QueueFull: 2, QueueDepth: 5}
	b := OpStats{Enqueued: 4, Drains: 1, Drained: 2, QueueDepth: 7}
	d := a.Sub(b)
	// Counters subtract; QueueDepth is a gauge and passes through.
	if d.Enqueued != 6 || d.Steals != 3 || d.Drains != 3 || d.Drained != 7 ||
		d.QueueFull != 2 || d.QueueDepth != 5 {
		t.Fatalf("Sub = %+v", d)
	}
	sum := a.Add(b)
	if sum.Enqueued != 14 || sum.Drained != 11 || sum.QueueDepth != 12 {
		t.Fatalf("Add = %+v", sum)
	}
	want := "normal=1 pushdown=0 pullup=0 intermediate=0 newroot=0 " +
		"restarts=0 backoffs=0 validationfails=0 contended=0 " +
		"enqueued=10 steals=3 drains=4 drained=9 queuefull=2 queuedepth=5"
	if got := a.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	// The queue block stays out of unsharded reports.
	plain := OpStats{Normal: 2}
	if got, want := plain.String(), "normal=2 pushdown=0 pullup=0 intermediate=0 newroot=0 "+
		"restarts=0 backoffs=0 validationfails=0 contended=0"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

// TestOpStatsTableCoversEveryField is the drift guard of opStatsFields:
// every field of the struct is a uint64 counter with exactly one row, so a
// counter added without its row fails here instead of silently staying out
// of Sub, Add and String.
func TestOpStatsTableCoversEveryField(t *testing.T) {
	var s OpStats
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		field, ok := v.Field(i).Addr().Interface().(*uint64)
		if !ok {
			t.Fatalf("OpStats.%s is not a uint64 counter", name)
		}
		rows := 0
		for _, f := range opStatsFields {
			if f.at(&s) == field {
				rows++
			}
		}
		if rows != 1 {
			t.Errorf("OpStats.%s has %d rows in opStatsFields, want 1", name, rows)
		}
	}
	if len(opStatsFields) != v.NumField() {
		t.Errorf("opStatsFields has %d rows for %d fields", len(opStatsFields), v.NumField())
	}
}

// TestOpStatsStringFixtures pins String's bytes — the drivers' logs are
// compared across builds — for the two shapes a report takes: plain and
// submission queues active.
func TestOpStatsStringFixtures(t *testing.T) {
	const plain = "normal=1 pushdown=2 pullup=3 intermediate=4 newroot=5 " +
		"restarts=6 backoffs=7 validationfails=8 contended=9"
	base := OpStats{Normal: 1, Pushdown: 2, PullUp: 3, Intermediate: 4, NewRoot: 5,
		Restarts: 6, Backoffs: 7, ValidationFails: 8, Contended: 9}
	queues := base
	queues.QueueDepth = 15
	for _, c := range []struct {
		s    OpStats
		want string
	}{
		{base, plain},
		{queues, plain + " enqueued=0 steals=0 drains=0 drained=0 queuefull=0 queuedepth=15"},
		{base.Add(OpStats{Enqueued: 10, Steals: 11, Drains: 12, Drained: 13, QueueFull: 14, QueueDepth: 15}),
			plain + " enqueued=10 steals=11 drains=12 drained=13 queuefull=14 queuedepth=15"},
	} {
		if got := c.s.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}
