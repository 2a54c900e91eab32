package main

import (
	"bufio"
	"os"
	"strconv"
	"time"
)

// Spans are recorded by the benchmark itself, around each call into the
// program's public surface; spans inside the program are a later change.
// A traced slice is the parent span, each public call in it a child, and
// the spans of one op share its op id.

type span struct {
	id, parent int32 // parent -1: a slice span
	op         int32 // op id; -1 on slice spans
	name       uint8
	start, end int64 // ns since epoch
}

type tracer struct {
	spans  []span
	names  []string
	cur    int32 // the open slice span, -1 outside a traced slice
	nextOp int32
}

func newTracer() *tracer { return &tracer{cur: -1} }

// epoch is the zero of every span and latency timestamp.
var epoch = time.Now()

func nanotime() int64 { return int64(time.Since(epoch)) }

func (t *tracer) nameID(name string) uint8 {
	for i, n := range t.names {
		if n == name {
			return uint8(i)
		}
	}
	t.names = append(t.names, name)
	return uint8(len(t.names) - 1)
}

func (t *tracer) beginSlice(phase string) {
	t.cur = int32(len(t.spans))
	t.spans = append(t.spans, span{id: t.cur, parent: -1, op: -1, name: t.nameID("slice." + phase), start: nanotime()})
}

func (t *tracer) endSlice() {
	t.spans[t.cur].end = nanotime()
	t.cur = -1
}

// call records one public call that ran from start to end.
func (t *tracer) call(name uint8, start, end int64) {
	t.spans = append(t.spans, span{id: int32(len(t.spans)), parent: t.cur, op: t.nextOp, name: name, start: start, end: end})
	t.nextOp++
}

// spanStat sums one span name: total is time inside the spans, self is
// total minus the part their child spans cover.
type spanStat struct {
	total, self int64
}

func (t *tracer) stats() map[string]*spanStat {
	out := map[string]*spanStat{}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		st := out[t.names[s.name]]
		if st == nil {
			st = &spanStat{}
			out[t.names[s.name]] = st
		}
		d := s.end - s.start
		st.total += d
		st.self += d - child[i]
	}
	return out
}

// writeFile writes one span per line: id parent op name start_ns end_ns.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	w.WriteString("id parent op name start_ns end_ns\n")
	var b []byte
	for _, s := range t.spans {
		b = strconv.AppendInt(b[:0], int64(s.id), 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(s.parent), 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(s.op), 10)
		b = append(b, ' ')
		b = append(b, t.names[s.name]...)
		b = append(b, ' ')
		b = strconv.AppendInt(b, s.start, 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, s.end, 10)
		b = append(b, '\n')
		w.Write(b)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
