package hot

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

// TestMakefileFuzzListCoversAllTargets guards against drift between the
// Fuzz* functions defined anywhere in the module and the `make fuzz`
// recipe: every target must get a burst line in the Makefile, and the
// Makefile must not reference targets that no longer exist. Adding a fuzz
// target without wiring it into `make fuzz` silently exempts it from CI
// exploration.
func TestMakefileFuzzListCoversAllTargets(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}

	declRe := regexp.MustCompile(`(?m)^func (Fuzz\w+)\(`)
	defined := map[string]bool{}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name != "." && (strings.HasPrefix(name, ".") || name == "testdata" || name == "results") {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, rerr := os.ReadFile(path)
		if rerr != nil {
			return rerr
		}
		for _, m := range declRe.FindAllSubmatch(src, -1) {
			defined[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(defined) == 0 {
		t.Fatal("no Fuzz targets found in any _test.go file")
	}

	recipeRe := regexp.MustCompile(`-fuzz (Fuzz\w+)`)
	recipe := map[string]bool{}
	for _, m := range recipeRe.FindAllSubmatch(mk, -1) {
		recipe[string(m[1])] = true
	}

	var missing, stale []string
	for name := range defined {
		if !recipe[name] {
			missing = append(missing, name)
		}
	}
	for name := range recipe {
		if !defined[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	if len(missing) > 0 {
		t.Errorf("fuzz targets missing from the Makefile fuzz recipe: %v", missing)
	}
	if len(stale) > 0 {
		t.Errorf("Makefile fuzz recipe names nonexistent targets: %v", stale)
	}
}

// TestCIWorkflowCoversAllTiers guards against drift between the Makefile's
// `all` target and the hosted CI pipeline: every verification tier that
// `make all` runs locally — six of them — must appear as a `make <tier>`
// step in .github/workflows/ci.yml, and every `make <tier>` step there
// (the nightly fuzz burst aside) must be a tier of `all`. Dropping a tier
// from the workflow would silently stop gating merges on it; a job for a
// tier `all` no longer has would run a target that does not exist.
func TestCIWorkflowCoversAllTiers(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	allRe := regexp.MustCompile(`(?m)^all:\s*(.+)$`)
	m := allRe.FindSubmatch(mk)
	if m == nil {
		t.Fatal("no `all:` target found in the Makefile")
	}
	tiers := strings.Fields(string(m[1]))
	if len(tiers) != 6 {
		t.Fatalf("the Makefile `all` target lists %d tiers %v, want 6", len(tiers), tiers)
	}

	wf, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatalf("CI workflow missing: %v", err)
	}
	var missing []string
	for _, tier := range tiers {
		stepRe := regexp.MustCompile(`(?m)run:\s*make\s+` + regexp.QuoteMeta(tier) + `\b`)
		if !stepRe.Match(wf) {
			missing = append(missing, tier)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("make all tiers with no `make <tier>` step in .github/workflows/ci.yml: %v", missing)
	}
	for _, step := range regexp.MustCompile(`(?m)run:\s*make\s+([\w-]+)`).FindAllSubmatch(wf, -1) {
		if job := string(step[1]); job != "fuzz" && !slices.Contains(tiers, job) {
			t.Errorf(".github/workflows/ci.yml runs `make %s`, which is not a tier of make all", job)
		}
	}
}

// TestDocsNameOnlyWhatExists guards against drift between the documents
// that tell a reader what to run and the tree they describe: every command
// (`cmd/<name>`, or a bare `hot-<name>`), every `make <target>` and every
// checked-in `BENCH_*.json` or `results/` file they name must exist, and so
// must every Go name the prose documents spell out — `hot.<Ident>` is an
// exported declaration of the root package, a backticked constructor-shaped
// identifier (Open*/New*/Load*/Recover*/Pack*) one of the root package or
// an internal/* package. Renaming or deleting a tool, target, result file
// or entry point without its mentions fails here. ROADMAP.md and CHANGES.md
// are history and exempt.
func TestDocsNameOnlyWhatExists(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([\w-]+):`).FindAllSubmatch(mk, -1) {
		targets[string(m[1])] = true
	}

	var (
		// A tool name, and in the second group what makes it something
		// else: a longer hyphenated word, a temp-file pattern (hot-x-*),
		// an index label (hot-s4).
		toolRe = regexp.MustCompile(`(?:^|[^\w-])(?:cmd/)?(hot-[a-z]+)([\w-]*)`)
		// `make a b VAR=x` in backticks, a CI `run: make a`, or a line of
		// a code block that starts with make and one target.
		makeRe = regexp.MustCompile("(?m)(?:`|run: *)make((?: +[\\w=-]+)+)|^make +([\\w-]+) *(?:#|$)")
		fileRe = regexp.MustCompile(`(?:^|[^\w/.])(BENCH_\w+\.json|results/[\w.*-]*\w)`)
	)
	notTools := map[string]bool{"hot-shard": true} // "a hot shard", hyphenated as a modifier
	root, all := exportedNames(t)
	if bad := undeclaredGoNames([]byte("`hot.NoSuchIndex`, `OpenNoSuchStore(dir)` and `Tree.LoadNothing`"), root, all); len(bad) != 3 {
		t.Fatalf("the Go-name check let a dangling name through: flagged only %v", bad)
	}
	for _, doc := range []string{
		"README.md", "DESIGN.md", "EXPERIMENTS.md", "Makefile",
		filepath.Join(".claude", "skills", "verify", "SKILL.md"),
		filepath.Join(".github", "workflows", "ci.yml"),
	} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range toolRe.FindAllSubmatch(text, -1) {
			name := string(m[1])
			if len(m[2]) > 0 || notTools[name] {
				continue
			}
			if fi, err := os.Stat(filepath.Join("cmd", name)); err != nil || !fi.IsDir() {
				t.Errorf("%s names %s, but there is no cmd/%s", doc, name, name)
			}
		}
		for _, m := range makeRe.FindAllSubmatch(text, -1) {
			for _, target := range strings.Fields(string(m[1]) + " " + string(m[2])) {
				if !strings.Contains(target, "=") && !targets[target] {
					t.Errorf("%s names `make %s`, but the Makefile has no such target", doc, target)
				}
			}
		}
		for _, m := range fileRe.FindAllSubmatch(text, -1) {
			if found, _ := filepath.Glob(string(m[1])); len(found) == 0 {
				t.Errorf("%s names %s, which is not checked in", doc, m[1])
			}
		}
		if strings.HasSuffix(doc, ".md") {
			for _, name := range undeclaredGoNames(text, root, all) {
				t.Errorf("%s names %s, which no package declares", doc, name)
			}
		}
	}
}

// exportedNames parses the non-test source of the root package and of every
// internal/* package and returns the exported names they declare: root
// holds the root package's package-level declarations (what `hot.X` can
// mean), all adds its methods, struct fields and interface methods and
// everything the internal packages export.
func exportedNames(t *testing.T) (root, all map[string]bool) {
	root, all = map[string]bool{}, map[string]bool{}
	dirs, err := filepath.Glob(filepath.Join("internal", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range append([]string{"."}, dirs...) {
		pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		note := func(id *ast.Ident, pkgLevel bool) {
			if id.IsExported() {
				all[id.Name] = true
				if pkgLevel && dir == "." {
					root[id.Name] = true
				}
			}
		}
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.FuncDecl:
						note(n.Name, n.Recv == nil)
						return false // nothing declared inside a function is a name a document can mean
					case *ast.TypeSpec:
						note(n.Name, true)
					case *ast.ValueSpec:
						for _, id := range n.Names {
							note(id, true)
						}
					case *ast.Field: // a struct's fields, an interface's methods
						for _, id := range n.Names {
							note(id, false)
						}
					}
					return true
				})
			}
		}
	}
	return root, all
}

// undeclaredGoNames returns the Go names text spells out that resolve to
// nothing: `hot.X` with X not in root, and inside a backticked span an
// Open*/New*/Load*/Recover*/Pack* identifier not in all (a trailing `*`
// makes it a pattern, not a name).
func undeclaredGoNames(text []byte, root, all map[string]bool) []string {
	var bad []string
	for _, m := range regexp.MustCompile(`\bhot\.([A-Z]\w*)`).FindAllSubmatch(text, -1) {
		if !root[string(m[1])] {
			bad = append(bad, "hot."+string(m[1]))
		}
	}
	bareRe := regexp.MustCompile(`\b((?:Open|New|Load|Recover|Pack)\w*)(\*?)`)
	for _, span := range regexp.MustCompile("`[^`\n]+`").FindAll(text, -1) {
		for _, m := range bareRe.FindAllSubmatch(span, -1) {
			if len(m[2]) == 0 && !all[string(m[1])] {
				bad = append(bad, string(m[1]))
			}
		}
	}
	return bad
}
