package main

import (
	"bytes"
	"os"
	"sort"
	"time"
)

// The calibrators. HOT point operations are bound by DRAM latency and a
// durable write by the disk's flush latency, and on a shared host both
// drift over minutes by more than any bound this benchmark sets: forty
// identical runs in a row differ by a quarter. So each timed slice is
// followed at once by a probe slice that is bound by the same resource and
// touches none of the program's code, and the slice's value is taken
// relative to the probes around it: a rate is divided by the probe's rate,
// a latency is multiplied by it. The reported value is the median of those scores
// scaled by the probe's rate on the builder's host (its reference rate),
// which keeps the units readable as kops/s and us.
//
// The probes are frozen: changing one changes every number it calibrates.

// calKind names the probe that calibrates a phase.
type calKind uint8

const (
	calNone  calKind = iota // raw wall-clock value
	calMem                  // memProbe: work bound by the CPU and DRAM latency
	calFsync                // fsyncProbe: work bound by durable-write latency
)

// fsyncRefKops is fsyncProbe's median rate on the builder's host.
const fsyncRefKops = 7.5

type prober interface {
	run() float64 // one probe slice; its rate in ops/s
}

// memProbe binary-searches the workload's own sorted key table.
type memProbe struct {
	sorted [][]byte
	state  uint64
	bad    int // searches that did not find their key; always 0
}

func (p *memProbe) run() float64 {
	n := len(p.sorted)
	t0 := time.Now()
	for i := 0; i < probeLookups; i++ {
		p.state = p.state*6364136223846793005 + 1442695040888963407
		k := p.sorted[int(p.state>>33)%n]
		j := sort.Search(n, func(m int) bool { return bytes.Compare(p.sorted[m], k) >= 0 })
		if j >= n || !bytes.Equal(p.sorted[j], k) {
			p.bad++
		}
	}
	return probeLookups / time.Since(t0).Seconds()
}

// fsyncProbe appends a log-record-sized write to its own file and fsyncs
// it, as a write-ahead log does for one acknowledged put.
type fsyncProbe struct {
	f   *os.File
	n   int // fsyncs per slice: probeFsyncs, fewer in a scaled-down smoke run
	bad int // failed writes or syncs; always 0
}

func (p *fsyncProbe) run() float64 {
	var rec [64]byte
	t0 := time.Now()
	for i := 0; i < p.n; i++ {
		if _, err := p.f.Write(rec[:]); err != nil || p.f.Sync() != nil {
			p.bad++
		}
	}
	return float64(p.n) / time.Since(t0).Seconds()
}

// calibrated combines per-slice values with the probe rates measured
// around them. A rate is divided by its probe rate and scaled by the
// reference rate; a latency (inverse) is multiplied and scaled down. With
// no probe rates the median raw value is returned.
func calibrated(values, probeRates []float64, ref float64, inverse bool) float64 {
	if len(probeRates) == 0 {
		return median(values)
	}
	scores := make([]float64, len(values))
	for i, v := range values {
		if inverse {
			scores[i] = v * probeRates[i] / ref
		} else {
			scores[i] = v / probeRates[i] * ref
		}
	}
	return median(scores)
}
