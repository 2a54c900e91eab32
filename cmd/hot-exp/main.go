// hot-exp regenerates the paper's evaluation (Section 6), one subcommand
// per figure, plus the snapshot experiment this implementation adds:
//
//	hot-exp ycsb    Figure 8 and Appendix A: YCSB throughput per index
//	hot-exp mem     Figure 9: memory consumption after the load phase
//	hot-exp scale   Figure 10: multi-threaded insert and lookup throughput
//	hot-exp depth   Figure 11: leaf depth distribution
//	hot-exp snap    snapshot recovery versus rebuild, and codec bytes/key
//
// Every subcommand takes -n, -seed and -datasets, and -indexes where it
// can build more than one index. Paper scale is -n 50000000; the defaults
// are laptop-sized. Numbers that are not in the paper (durability, the
// network, the cold tier) are measured by benchmark/, not here.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"github.com/hotindex/hot/internal/dataset"
)

var subcommands = map[string]func(args []string, out io.Writer) error{
	"ycsb":  runYCSB,
	"mem":   runMem,
	"scale": runScale,
	"depth": runDepth,
	"snap":  runSnap,
}

func main() {
	// -h has printed the subcommand's usage already and is not a failure.
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "hot-exp:", err)
		os.Exit(1)
	}
}

// run dispatches to a subcommand. Subcommands report failure by returning
// an error, so their deferred cleanup runs; main holds the only os.Exit.
func run(args []string, out io.Writer) error {
	if len(args) > 0 {
		if sub, ok := subcommands[args[0]]; ok {
			return sub(args[1:], out)
		}
	}
	return errors.New("usage: hot-exp ycsb|mem|scale|depth|snap [flags]   (-h after a subcommand lists its flags)")
}

// common is the flag set of one subcommand with the flags all of them
// share already registered; the subcommand adds its own to fs, then calls
// parse.
type common struct {
	fs       *flag.FlagSet
	n        *int
	seed     *int64
	datasets *string
	indexes  *string // nil when the subcommand drives one fixed index
	known    []string
}

// newFlags registers the shared flags. indexes names what the subcommand
// can build, all of it the default; none given means no -indexes flag.
func newFlags(name string, n int, datasets string, indexes ...string) *common {
	c := &common{fs: flag.NewFlagSet("hot-exp "+name, flag.ContinueOnError), known: indexes}
	c.n = c.fs.Int("n", n, "keys to load")
	c.seed = c.fs.Int64("seed", 2018, "data/workload seed")
	c.datasets = c.fs.String("datasets", datasets, "comma list of data sets (url|email|yago|integer)")
	if len(indexes) > 0 {
		all := strings.Join(indexes, ",")
		c.indexes = c.fs.String("indexes", all, "comma list of index structures ("+strings.ReplaceAll(all, ",", "|")+")")
	}
	return c
}

// parse parses args and resolves the shared list flags.
func (c *common) parse(args []string) (kinds []dataset.Kind, indexes []string, err error) {
	if err := c.fs.Parse(args); err != nil {
		return nil, nil, err
	}
	if c.fs.NArg() > 0 {
		return nil, nil, fmt.Errorf("unexpected argument %q", c.fs.Arg(0))
	}
	if kinds, err = list("datasets", *c.datasets, dataset.ParseKind); err != nil {
		return nil, nil, err
	}
	if c.indexes != nil {
		indexes, err = list("indexes", *c.indexes, func(s string) (string, error) {
			if !slices.Contains(c.known, s) {
				return "", fmt.Errorf("unknown index %q (%s)", s, strings.Join(c.known, "|"))
			}
			return s, nil
		})
	}
	return kinds, indexes, err
}

// list parses a comma-list flag value element by element, so that every
// name is checked before any data set is generated. An empty list is an
// error too: it would run no configuration and exit 0.
func list[T any](name, value string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, p := range strings.Split(value, ",") {
		if p = strings.TrimSpace(p); p == "" {
			continue
		}
		v, err := parse(p)
		if err != nil {
			return nil, fmt.Errorf("-%s: %w", name, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-%s: empty list %q", name, value)
	}
	return out, nil
}

// writeJSON writes records to path as an indented JSON array.
func writeJSON(path string, records any) error {
	blob, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
