package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// compareSets judges two sets of result files, A (baseline) and B, cell by
// cell — a cell is one metric on one workload. A cell with a bound fails
// when B's median is worse than A's by more than the bound, or when any
// single run lies further than the bound from its own set's median (the
// sets are then too unsteady to carry a verdict). With aa, the two sets
// are the same commit, and a B that is better by more than the bound
// fails as well. Cells without a bound are printed for reference.
func compareSets(w io.Writer, a, b []string, aa bool) error {
	setA, err := loadSet(a)
	if err != nil {
		return err
	}
	setB, err := loadSet(b)
	if err != nil {
		return err
	}
	defs := map[string]metricDef{}
	for _, d := range append(append([]metricDef{}, endToEnd...), extras...) {
		defs[d.name] = d
	}
	for _, d := range perLayer {
		defs[d.name] = d
	}
	var cells []cellKey
	for k := range setA {
		if _, ok := setB[k]; ok {
			cells = append(cells, k)
		}
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].workload != cells[j].workload {
			return cells[i].workload < cells[j].workload
		}
		return cells[i].metric < cells[j].metric
	})
	fmt.Fprintf(w, "%-14s %-28s %-9s %12s %22s %12s %22s %8s %6s  %s\n",
		"workload", "metric", "unit", "median A", "quartiles A", "median B", "quartiles B", "B vs A", "bound", "verdict")
	failed := 0
	for _, k := range cells {
		va, vb := setA[k], setB[k]
		ma, mb := median(va.values), median(vb.values)
		d := defs[k.metric]
		diff := 0.0
		if ma != 0 {
			diff = (mb - ma) / math.Abs(ma)
		}
		worse := diff
		if d.better == "higher" {
			worse = -diff
		}
		verdict := "-"
		if d.bound > 0 {
			switch {
			case unsteady(va.values, d.bound) || unsteady(vb.values, d.bound):
				verdict = "UNSTEADY"
			case worse > d.bound:
				verdict = "WORSE"
			case aa && -worse > d.bound:
				verdict = "DIFFERENT"
			default:
				verdict = "ok"
			}
			if verdict != "ok" {
				failed++
			}
		}
		bound := "-"
		if d.bound > 0 {
			bound = fmt.Sprintf("%.0f%%", d.bound*100)
		}
		fmt.Fprintf(w, "%-14s %-28s %-9s %12.5g %22s %12.5g %22s %+7.2f%% %6s  %s\n",
			k.workload, k.metric, va.unit, ma, quartileText(va.values), mb, quartileText(vb.values), diff*100, bound, verdict)
	}
	if failed > 0 {
		return fmt.Errorf("%d cells outside their bound", failed)
	}
	return nil
}

type cellKey struct{ workload, metric string }

type cell struct {
	unit   string
	values []float64
}

// loadSet reads result files (a directory stands for the *.json in it) and
// collects every metric of every untraced or traced run by cell.
func loadSet(paths []string) (map[cellKey]*cell, error) {
	var files []string
	for _, p := range paths {
		if fi, err := os.Stat(p); err == nil && fi.IsDir() {
			m, _ := filepath.Glob(filepath.Join(p, "*.json"))
			files = append(files, m...)
		} else {
			files = append(files, p)
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no result files in %v", paths)
	}
	set := map[cellKey]*cell{}
	var first *result
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if !r.Correct {
			return nil, fmt.Errorf("%s: the run had %d wrong answers", f, r.Failed)
		}
		if first == nil {
			first = &r
		} else if r.Seconds != first.Seconds && r.Trace == first.Trace || r.Scale != first.Scale || r.Gomaxprocs != first.Gomaxprocs {
			return nil, fmt.Errorf("%s: seconds/scale/GOMAXPROCS differ from the set's first file: not comparable", f)
		}
		for _, ms := range []metricSet{r.Metrics, r.Extras} {
			for name, m := range ms {
				k := cellKey{r.Workload, name}
				if set[k] == nil {
					set[k] = &cell{unit: m.Unit}
				}
				set[k].values = append(set[k].values, m.Value)
			}
		}
	}
	return set, nil
}

func unsteady(xs []float64, bound float64) bool {
	m := median(xs)
	for _, x := range xs {
		if math.Abs(x-m) > bound*math.Abs(m) {
			return true
		}
	}
	return false
}

func quartileText(xs []float64) string {
	if len(xs) < 2 {
		return "-"
	}
	q1, _, q3 := quartiles(xs)
	return fmt.Sprintf("%.5g..%.5g", q1, q3)
}
