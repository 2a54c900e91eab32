// Command benchmark is the repository's benchmark: one invocation runs one
// workload once in one process and prints every metric by name with its
// unit, checks every answer it reads, and exits non-zero on a wrong one.
// BENCHMARK.json at the root of the repository names the workloads and the
// metrics; README.md in this directory explains them.
//
//	bash benchmark/run.sh --workload embed-url --seed 1 --seconds 12 --trace 0
//	bash benchmark/run.sh -compare resultsA/ resultsB/
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// result is one run's result file. Two files are comparable when their
// workload, seconds, scale, gomaxprocs and reference rates agree; seed,
// commit, go version and nproc say what else differed.
type result struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Trace      int     `json:"trace"`
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	Nproc      int     `json:"nproc"`
	Gomaxprocs int     `json:"gomaxprocs"`
	MemRefKops float64 `json:"mem_ref_kops"`   // CAL_REF_KOPS of the memory probe
	FsyncRef   float64 `json:"fsync_ref_kops"` // and of the fsync probe
	Seconds    float64 `json:"seconds"`
	Scale      float64 `json:"scale"`
	WallS      float64 `json:"wall_s"`

	Phases []*phaseResult `json:"phases"`
	// Metrics is what the run's last output line carries: the end-to-end
	// metrics of an untraced run, the per-layer metrics of a traced one.
	Metrics metricSet `json:"metrics"`
	// Extras is everything else the run measured.
	Extras    metricSet `json:"extras"`
	Attempted int       `json:"ops_attempted"`
	Failed    int       `json:"ops_failed"`
	Correct   bool      `json:"correct"`

	Ladder []string `json:"ladder,omitempty"` // the traced run's stage table, as printed
	tracer *tracer
}

func newResult(o *options, seconds float64) *result {
	trace := 0
	if o.trace {
		trace = 1
	}
	return &result{Workload: o.w.name, Seed: o.seed, Trace: trace, GoVersion: runtime.Version(),
		Nproc: runtime.NumCPU(), Gomaxprocs: runtime.GOMAXPROCS(0), MemRefKops: o.w.memRefKops, FsyncRef: fsyncRefKops,
		Seconds: seconds, Scale: o.scale, Extras: metricSet{}}
}

func printSet(title string, m metricSet) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("# %s\n", title)
	for _, k := range names {
		fmt.Printf("%s %.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

func (res *result) print() {
	fmt.Printf("# workload %s seed %d trace %d commit %s %s nproc %d GOMAXPROCS %d wall %.1fs\n",
		res.Workload, res.Seed, res.Trace, res.Commit, res.GoVersion, res.Nproc, res.Gomaxprocs, res.WallS)
	for _, p := range res.Phases {
		fmt.Printf("# phase %-8s slices %3d ops %8d wall %6.2fs\n", p.Name, p.Slices, p.Ops, p.WallS)
	}
	printSet("metrics", res.Metrics)
	printSet("extras", res.Extras)
	for _, l := range res.Ladder {
		fmt.Println(l)
	}
	fmt.Printf("ops_attempted %d count\nops_failed %d count\n", res.Attempted, res.Failed)
	// The last line is the driver's: exactly these four keys.
	last, _ := json.Marshal(map[string]any{"correct": res.Correct, "attempted": res.Attempted,
		"failed": res.Failed, "metrics": res.Metrics})
	fmt.Println(string(last))
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed of the keys and of every op stream")
	seconds := fs.Float64("seconds", 12, "time for the time-boxed phases together")
	trace := fs.Int("trace", 0, "1: run the workload at a tenth of -seconds with spans recorded, then the per-layer ladder")
	scale := fs.Float64("scale", 1, "scales key counts and -seconds; for smoke tests only")
	base := fs.String("base", ".bench_build", "directory for data directories and result files")
	dir := fs.String("dir", "", "data directory root (default <base>/data)")
	out := fs.String("out", "", "result file (default <base>/results/<workload>-seed<n>-trace<t>.json)")
	traceOut := fs.String("trace-out", "", "span file of a traced run (default beside the result file)")
	commit := fs.String("commit", "unknown", "commit recorded in the result file")
	compare := fs.String("compare", "", "judge result set B against set A: -compare A B, each a directory or a comma list of files")
	aa := fs.Bool("aa", false, "with -compare: both sets are the same commit, so a better B fails too")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare != "" {
		return compareSets(os.Stdout, strings.Split(*compare, ","), splitAll(fs.Args()), *aa)
	}
	w := findWorkload(*workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q (want one of %s)", *workload, strings.Join(workloadNames(), ", "))
	}
	if *seconds <= 0 || *scale <= 0 || *scale > 1 {
		return fmt.Errorf("-seconds must be positive and -scale in (0, 1]")
	}
	runtime.GOMAXPROCS(2)
	if *dir == "" {
		*dir = filepath.Join(*base, "data")
	}
	if *out == "" {
		*out = filepath.Join(*base, "results", fmt.Sprintf("%s-seed%d-trace%d.json", w.name, *seed, *trace))
	}
	for _, d := range []string{*dir, filepath.Dir(*out)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return err
		}
	}
	res, err := runWorkload(&options{w: w, seed: *seed, seconds: *seconds, scale: *scale, trace: *trace != 0, dir: *dir})
	if err != nil {
		return err
	}
	res.Commit = *commit
	if res.tracer != nil {
		if *traceOut == "" {
			*traceOut = strings.TrimSuffix(*out, ".json") + ".spans"
		}
		if err := res.tracer.writeFile(*traceOut); err != nil {
			return err
		}
	}
	if err := writeJSON(*out, res); err != nil {
		return err
	}
	res.print()
	if !res.Correct {
		return fmt.Errorf("%d of %d ops gave a wrong answer", res.Failed, res.Attempted)
	}
	return nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func splitAll(args []string) []string {
	var out []string
	for _, a := range args {
		out = append(out, strings.Split(a, ",")...)
	}
	return out
}
