package hot

import (
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
