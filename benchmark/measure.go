package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns what Python's statistics.quantiles(xs, n=4) returns
// (the exclusive method), so spreads printed here are the ones the
// benchmark's driver computes. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func cv(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	for _, x := range xs {
		sq += (x - mean) * (x - mean)
	}
	return math.Sqrt(sq/float64(len(xs)-1)) / mean
}

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// percentile returns the q-quantile of ascending samples, and whether at
// least minTail samples lie beyond it. A percentile without that tail is
// one or two outliers, not a property of the system.
func percentile(sorted []int64, q float64) (v int64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i], n-1-i >= minTail
}

// slice is one timed unit of a phase.
type slice struct {
	idx []uint32 // the ops: key indices, writeBit marking the mixed phase's writes
	lat []int64  // non-nil: the driver stores each op's latency in ns
	tr  *tracer  // non-nil: the driver records one span per public call
}

// phaseResult is what one phase measured. Every reported value is the
// median over its slices, never total ops over total time.
type phaseResult struct {
	Name    string  `json:"name"`
	Slices  int     `json:"slices"`
	Ops     int     `json:"ops"`
	Samples int     `json:"latency_samples_per_slice,omitempty"`
	WallS   float64 `json:"wall_s"`

	// Per untraced slice: its rate in ops/s, the mean rate of the two probe
	// slices that bracket it (empty when the phase is uncalibrated), and
	// its latency percentiles in us (latency phases only).
	Rates      []float64 `json:"slice_rates"`
	ProbeRates []float64 `json:"probe_rates,omitempty"`
	P50us      []float64 `json:"slice_p50_us,omitempty"`
	P99us      []float64 `json:"slice_p99_us,omitempty"`
	cal        calKind   // the probe that ran
	ref        float64   // and its reference rate in ops/s
	// Per traced slice of a traced run.
	tracedRates []float64
}

// kops is the phase's calibrated rate in kops/s.
func (p *phaseResult) kops() float64 { return calibrated(p.Rates, p.ProbeRates, p.ref, false) / 1e3 }

func (p *phaseResult) rawKops() float64 { return median(p.Rates) / 1e3 }

// us calibrates one of the phase's latency series.
func (p *phaseResult) us(series []float64) float64 {
	return calibrated(series, p.ProbeRates, p.ref, true)
}

// runner times phases for one workload run.
type runner struct {
	w      *workloadCfg
	probes [3]prober // by calKind; calNone's is nil
	tr     *tracer   // nil: untraced run

	attempted, failed int
	phases            []*phaseResult
}

// phaseSpec is how a phase is cut into slices. A time-boxed phase runs
// whole slices until budget is spent, at least minSlices; fixed work (the
// load) sets minSlices == maxSlices and no budget.
type phaseSpec struct {
	name                 string
	cal                  calKind
	budget               time.Duration
	sliceOps             int
	minSlices, maxSlices int
	latency              bool
}

// run executes one phase. fill writes the next slice's ops (untimed);
// exec runs them and returns how many gave a wrong answer. In a traced run
// slices alternate untraced and traced, so host drift hits both alike.
func (r *runner) run(spec phaseSpec, fill func([]uint32), exec func(*slice) int) *phaseResult {
	res := &phaseResult{Name: spec.name, cal: spec.cal, ref: r.ref(spec.cal)}
	sl := &slice{idx: make([]uint32, spec.sliceOps)}
	if spec.latency {
		sl.lat = make([]int64, spec.sliceOps)
		res.Samples = spec.sliceOps
	}
	runtime.GC()
	start := time.Now()
	// A probe slice runs before the first slice and after every slice; a
	// slice is scored against the mean of the two that bracket it.
	probe := r.probes[spec.cal]
	var before float64
	if probe != nil {
		before = probe.run()
	}
	for n := 0; n < spec.maxSlices && (n < spec.minSlices || time.Since(start) < spec.budget); n++ {
		fill(sl.idx)
		traced := r.tr != nil && n%2 == 1
		if traced {
			sl.tr = r.tr
			r.tr.beginSlice(spec.name)
		}
		t0 := time.Now()
		bad := exec(sl)
		dt := time.Since(t0)
		if traced {
			r.tr.endSlice()
			sl.tr = nil
		}
		r.attempted += len(sl.idx)
		r.failed += bad
		res.Slices++
		res.Ops += len(sl.idx)
		rate := float64(len(sl.idx)) / dt.Seconds()
		var after float64
		if probe != nil {
			after = probe.run()
		}
		bracket := (before + after) / 2
		before = after
		if traced {
			res.tracedRates = append(res.tracedRates, rate)
			continue
		}
		res.Rates = append(res.Rates, rate)
		if spec.latency {
			sort.Slice(sl.lat, func(a, b int) bool { return sl.lat[a] < sl.lat[b] })
			p50, _ := percentile(sl.lat, 0.50)
			p99, _ := percentile(sl.lat, 0.99)
			res.P50us = append(res.P50us, float64(p50)/1e3)
			res.P99us = append(res.P99us, float64(p99)/1e3)
		}
		if probe != nil {
			res.ProbeRates = append(res.ProbeRates, bracket)
		}
	}
	res.WallS = time.Since(start).Seconds()
	r.phases = append(r.phases, res)
	return res
}

// ref is the reference rate, in ops/s, of the probe of kind k.
func (r *runner) ref(k calKind) float64 {
	switch k {
	case calMem:
		return r.w.memRefKops * 1e3
	case calFsync:
		return fsyncRefKops * 1e3
	}
	return 0
}

func (r *runner) phase(name string) *phaseResult {
	for _, p := range r.phases {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// check counts one harness-side verification (Len, Verify, a totals check).
func (r *runner) check(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}
