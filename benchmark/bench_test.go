package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"testing"
)

// streamDigest hashes the first slices of every phase's op stream of a
// workload: equal for equal seeds, different for different ones.
func streamDigest(w *workloadCfg, seed int64, n int) uint64 {
	z := newZipf(n, zipfTheta)
	var d uint64
	buf := make([]uint32, 1000)
	for _, p := range w.phases {
		s := phaseStream(w, p.name, seed, n, z)
		s.fill(buf)
		d = d*31 + s.digest
	}
	return d
}

func TestStreamDigestFollowsSeed(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, b, c := streamDigest(w, 7, 5000), streamDigest(w, 7, 5000), streamDigest(w, 8, 5000)
		if a != b {
			t.Errorf("%s: same seed gave digests %x and %x", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same digest %x", w.name, a)
		}
	}
}

func TestStreamsHitOnlyLoadedKeys(t *testing.T) {
	const n = 3000
	z := newZipf(n, zipfTheta)
	buf := make([]uint32, 20000)
	for i := range workloads {
		w := &workloads[i]
		for _, p := range append([]phaseCfg{{name: "warm"}, {name: "tail"}, {name: "ladder"}}, w.phases...) {
			s := phaseStream(w, p.name, 3, n, z)
			s.fill(buf)
			writes := 0
			for _, v := range buf {
				if v&writeBit != 0 {
					writes++
				}
				if int(v&^writeBit) >= n {
					t.Fatalf("%s/%s: op targets key %d of %d", w.name, p.name, v&^writeBit, n)
				}
			}
			want := 0
			if p.name == "mixed" {
				want = len(buf) / 2
			}
			if writes != want {
				t.Errorf("%s/%s: %d writes, want %d", w.name, p.name, writes, want)
			}
		}
	}
	// The zipf stream is skewed the way theta 0.99 says: rank 0 is drawn
	// about 1/zeta(n) of the time, and more often than rank 1.
	s := &stream{r: 1, n: n, z: z}
	s.fill(buf)
	var c0, c1 int
	for _, v := range buf {
		switch v {
		case 0:
			c0++
		case 1:
			c1++
		}
	}
	if want := float64(len(buf)) / z.zetan; math.Abs(float64(c0)-want) > 0.25*want || c0 <= c1 {
		t.Errorf("zipf: rank 0 drawn %d times (want about %.0f), rank 1 %d times", c0, want, c1)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	mk := func(n int) []int64 {
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = int64(i + 1)
		}
		return xs
	}
	if v, ok := percentile(mk(2000), 0.99); v != 1980 || !ok {
		t.Errorf("p99 of 1..2000 = %d, %v; want 1980 with a tail", v, ok)
	}
	if _, ok := percentile(mk(999), 0.99); ok {
		t.Errorf("p99 of 999 samples has 9 beyond it: must not count")
	}
	if _, ok := percentile(mk(1000), 0.99); !ok {
		t.Errorf("p99 of 1000 samples has 10 beyond it: must count")
	}
	if v, ok := percentile(mk(100), 0.50); v != 50 || !ok {
		t.Errorf("p50 of 1..100 = %d, %v", v, ok)
	}
	// Every latency phase is sized so its per-slice p99 has that tail.
	for _, w := range workloads {
		for _, p := range w.phases {
			if p.name != "getlat" && p.name != "put" {
				continue
			}
			if _, ok := percentile(mk(p.sliceOps), 0.99); !ok {
				t.Errorf("%s/%s: %d samples per slice leave fewer than %d beyond p99", w.name, p.name, p.sliceOps, minTail)
			}
		}
	}
}

func TestCalibratedArithmetic(t *testing.T) {
	// Three slices at 500, 1000 and 800 kops/s, the probe after each at
	// 1000, 2500 and 1000 kops/s: scores 0.5, 0.4, 0.8, median 0.5, times
	// the reference rate of 1200 kops/s.
	p := &phaseResult{Rates: []float64{500e3, 1000e3, 800e3}, ProbeRates: []float64{1000e3, 2500e3, 1000e3}, ref: 1200e3}
	if got := p.kops(); math.Abs(got-600) > 1e-9 {
		t.Errorf("calibrated kops = %v, want 600", got)
	}
	if got := p.rawKops(); got != 800 {
		t.Errorf("raw kops = %v, want the median slice rate 800", got)
	}
	// A latency is multiplied by its probe's rate: 100 us beside a probe at
	// twice the reference rate counts as 200 us.
	p.P50us = []float64{100, 100, 300}
	p.ProbeRates = []float64{2400e3, 1200e3, 600e3}
	if got := p.us(p.P50us); math.Abs(got-150) > 1e-9 {
		t.Errorf("calibrated p50 = %v, want the median of 200, 100, 150", got)
	}
	// An uncalibrated phase reports its raw median.
	p.ProbeRates, p.ref = nil, 0
	if p.kops() != 800 || p.us(p.P50us) != 100 {
		t.Errorf("uncalibrated phase reports %v kops %v us, want 800 and 100", p.kops(), p.us(p.P50us))
	}
}

func TestQuartilesArePythons(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func (m metricDef) reportedOn(workload string) bool {
	if m.on == nil {
		return true
	}
	for _, w := range m.on {
		if w == workload {
			return true
		}
	}
	return false
}

func names(defs []metricDef, workload string) []string {
	var out []string
	for _, d := range defs {
		if d.reportedOn(workload) {
			out = append(out, d.name)
		}
	}
	sort.Strings(out)
	return out
}

func keysOf(m metricSet) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Every workload, untraced and traced, at a hundredth of its size: no wrong
// answer, and exactly the metrics the tables promise.
func TestSmokeAllWorkloads(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(&options{w: w, seed: 5, seconds: 12, scale: 0.01, trace: trace, dir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if res.Failed != 0 || !res.Correct || res.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d ops failed", w.name, trace, res.Failed, res.Attempted)
			}
			want := names(endToEnd, w.name)
			if trace {
				want = names(perLayer, w.name)
				if len(res.tracer.spans) == 0 || len(res.Ladder) == 0 {
					t.Errorf("%s: traced run recorded %d spans and %d ladder lines", w.name, len(res.tracer.spans), len(res.Ladder))
				}
			} else if missing := minus(names(extras, w.name), keysOf(res.Extras)); len(missing) > 0 {
				t.Errorf("%s: extras %v not reported", w.name, missing)
			}
			if got := keysOf(res.Metrics); !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%v: metrics\n got %v\nwant %v", w.name, trace, got, want)
			}
			for k, m := range res.Metrics {
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || (!trace && m.Value <= 0) {
					t.Errorf("%s trace=%v: %s = %v", w.name, trace, k, m.Value)
				}
			}
		}
	}
}

func minus(a, b []string) []string {
	have := map[string]bool{}
	for _, x := range b {
		have[x] = true
	}
	var out []string
	for _, x := range a {
		if !have[x] {
			out = append(out, x)
		}
	}
	return out
}

// BENCHMARK.json and the code name the same workloads and metrics.
func TestManifestMatchesCode(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Why, Unit, Better string
		Bound                   float64
	}
	var m struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Paths, []string{"benchmark"}) || m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("paths %v run_seconds %d", m.Paths, m.RunSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why || len(w.Why) > 200 {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the code (or its why differs or is over 200 characters)", i, w.Name, workloads[i].name)
		}
	}
	match := func(kind string, got []entry, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the code", kind, len(got), len(want))
		}
		for i, e := range got {
			checkName(e.Name)
			d := want[i]
			if e.Name != d.name || e.Unit != d.unit || e.Better != d.better || !unit.MatchString(e.Unit) {
				t.Errorf("%s %d: %+v in BENCHMARK.json, %+v in the code", kind, i, e, d)
			}
			if bounded && (e.Bound != d.bound || e.Bound <= 0 || e.Bound > 0.25) {
				t.Errorf("%s %s: bound %v in BENCHMARK.json, %v in the code", kind, e.Name, e.Bound, d.bound)
			}
		}
	}
	match("end_to_end", m.EndToEnd, endToEnd, true)
	match("per_layer", m.PerLayer, perLayer, false)
	if m.EndToEnd[0].Name != "setup_s" {
		t.Errorf("setup_s must be an end-to-end metric")
	}
}

func TestCompareFlagsWorseAndUnsteadyCells(t *testing.T) {
	dir := t.TempDir()
	write := func(set string, i int, get, mem float64) {
		r := result{Workload: "embed-int", Seconds: 12, Scale: 1, Gomaxprocs: 2, Correct: true,
			Metrics: metricSet{"get_kops": {get, "kops/s"}, "mem_bytes_per_key": {mem, "B/key"}}}
		if err := os.MkdirAll(filepath.Join(dir, set), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := writeJSON(filepath.Join(dir, set, string(rune('a'+i))+".json"), r); err != nil {
			t.Fatal(err)
		}
	}
	for i, v := range []float64{1000, 1010, 990, 1005, 995} {
		write("base", i, v, 27.5)
		write("same", i, v*1.02, 27.5)
		write("slow", i, v*0.70, 27.5)
		write("fat", i, v, 28.5)
		write("wild", i, v*(1+0.4*float64(i%2)), 27.5)
	}
	set := func(s string) []string { return []string{filepath.Join(dir, s)} }
	if err := compareSets(io.Discard, set("base"), set("same"), true); err != nil {
		t.Errorf("2%% apart: %v", err)
	}
	for _, bad := range []string{"slow", "fat", "wild"} {
		if err := compareSets(io.Discard, set("base"), set(bad), false); err == nil {
			t.Errorf("set %q passed", bad)
		}
	}
	if err := compareSets(io.Discard, set("slow"), set("base"), false); err != nil {
		t.Errorf("an improvement failed: %v", err)
	}
	if err := compareSets(io.Discard, set("slow"), set("base"), true); err == nil {
		t.Errorf("A/A with 30%% between the sets passed")
	}
}
