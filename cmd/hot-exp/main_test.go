package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// rows returns the non-empty output lines that follow the header line
// starting with headerPrefix; it fails the test if there is no such line.
func rows(t *testing.T, output, headerPrefix string) []string {
	t.Helper()
	lines := strings.Split(output, "\n")
	for i, l := range lines {
		if strings.HasPrefix(l, headerPrefix) {
			var out []string
			for _, r := range lines[i+1:] {
				if strings.TrimSpace(r) != "" {
					out = append(out, r)
				}
			}
			return out
		}
	}
	t.Fatalf("no header line starting %q in:\n%s", headerPrefix, output)
	return nil
}

// TestSubcommandSmoke runs every subcommand in-process at a small scale and
// checks the shape of what it prints — headers and row counts, not timings.
func TestSubcommandSmoke(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "out.json")
	for _, tc := range []struct {
		args   string
		header string
		rows   int
	}{
		// 2 workloads × 2 indexes × 2 batch sizes, plus the "wrote" line.
		{"ycsb -n 20000 -ops 20000 -workloads C,load -datasets integer -indexes hot,art -batch 0,16 -json " + jsonPath,
			"dataset ", 8 + 1},
		// Per data set: the two baselines and four indexes.
		{"mem -n 20000", "dataset ", 4 * (2 + 4)},
		{"mem -n 20000 -datasets url -indexes hot", "dataset ", 2 + 1},
		{"depth -n 20000", "dataset ", 4 * 3},
		// 3 indexes × thread counts 1 and 2.
		{"scale -n 20000 -lookups 20000 -threads 2 -runs 1", "index ", 3 * 2},
		// The data set's row, its one section, the packed ratio.
		{"snap -n 20000 -codec packed -datasets integer", "dataset ", 3},
	} {
		var out bytes.Buffer
		if err := run(strings.Fields(tc.args), &out); err != nil {
			t.Errorf("%s: %v", tc.args, err)
			continue
		}
		if got := rows(t, out.String(), tc.header); len(got) != tc.rows {
			t.Errorf("%s: %d rows, want %d:\n%s", tc.args, len(got), tc.rows, out.String())
		}
	}

	// The ycsb record is the seven fields of results/fig8_batch.json.
	blob, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var records []struct {
		Dataset, Workload, Dist, Index string
		Batch, Misses                  int
		Mops                           float64
	}
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&records); err != nil {
		t.Fatalf("ycsb -json: %v", err)
	}
	if len(records) != 8 {
		t.Fatalf("ycsb -json: %d records, want 8", len(records))
	}
	for _, r := range records {
		if r.Misses != 0 || r.Mops <= 0 || r.Dataset != "integer" || r.Dist != "uniform" {
			t.Errorf("ycsb -json: bad record %+v", r)
		}
	}
}

// TestListFlagsRejectEmptyAndUnknown: a list flag that names nothing, or
// something unknown, fails before anything is generated or printed, in
// every subcommand that has the flag.
func TestListFlagsRejectEmptyAndUnknown(t *testing.T) {
	flags := map[string][]string{
		"ycsb":  {"datasets", "indexes", "workloads", "dists", "batch"},
		"mem":   {"datasets", "indexes"},
		"scale": {"datasets", "indexes"},
		"depth": {"datasets", "indexes"},
		"snap":  {"datasets"},
	}
	if len(flags) != len(subcommands) {
		t.Fatalf("table covers %d subcommands, there are %d", len(flags), len(subcommands))
	}
	for sub, names := range flags {
		for _, name := range names {
			for _, value := range []string{"", ",", " , ", "nosuch"} {
				var out bytes.Buffer
				err := run([]string{sub, "-n", "1000", "-" + name, value}, &out)
				if err == nil || !strings.Contains(err.Error(), "-"+name) {
					t.Errorf("%s -%s %q: error %v, want one naming the flag", sub, name, value, err)
				}
				if out.Len() > 0 {
					t.Errorf("%s -%s %q printed before failing:\n%s", sub, name, value, out.String())
				}
			}
		}
	}
	// scale cannot build the unsynchronized B-tree, depth has no masstree.
	for _, args := range []string{"scale -indexes btree", "depth -indexes masstree", "nosuch", ""} {
		if err := run(strings.Fields(args), &bytes.Buffer{}); err == nil {
			t.Errorf("%q: no error", args)
		}
	}
}

// TestSnapFailureRemovesTempDir: the -baseline guard's failing exit — the
// one run somebody will look at — must not leave its snapshot files behind.
func TestSnapFailureRemovesTempDir(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	work := t.TempDir()
	jsonPath := filepath.Join(work, "snap.json")
	args := []string{"snap", "-n", "20000", "-codec", "packed", "-datasets", "integer"}
	if err := run(append(args, "-json", jsonPath), &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var measured []snapRecord
	if err := json.Unmarshal(blob, &measured); err != nil || len(measured) != 1 {
		t.Fatalf("snap -json: %v, %d records", err, len(measured))
	}

	// A baseline 10% below what this code writes reads as a regression.
	basePath := filepath.Join(work, "baseline.json")
	base := fmt.Sprintf(`{"codec":"packed","n":20000,"bytes_per_key":{"integer":%f}}`, measured[0].BytesPerKey*0.9)
	if err := os.WriteFile(basePath, []byte(base), 0o644); err != nil {
		t.Fatal(err)
	}
	err = run(append(args, "-baseline", basePath), &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "regressed") {
		t.Fatalf("doctored baseline: error %v, want a regression", err)
	}
	left, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		t.Errorf("left behind in TMPDIR: %s", e.Name())
	}
}
