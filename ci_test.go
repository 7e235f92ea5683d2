package isis

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIRunPatternsNameTests reads every `-run '…'` in the CI workflows and
// fails on an alternative, the part of it before any '/', that matches no
// Test, Fuzz or Benchmark function in the tree: a renamed test would otherwise
// drop silently out of the repeated runs. '^$', which runs no test on purpose,
// is the one pattern that names none.
func TestCIRunPatternsNameTests(t *testing.T) {
	funcDecl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	var names []string
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case e.IsDir() && strings.HasPrefix(e.Name(), ".") && path != ".":
			return filepath.SkipDir
		case e.IsDir() || !strings.HasSuffix(path, "_test.go"):
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range funcDecl.FindAllSubmatch(src, -1) {
			names = append(names, string(m[1]))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	workflows, _ := filepath.Glob(".github/workflows/*.yml")
	if len(workflows) == 0 {
		t.Skip("no CI workflows in this checkout")
	}
	runFlag := regexp.MustCompile(`-run '([^']*)'`)
	for _, wf := range workflows {
		src, err := os.ReadFile(wf)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range runFlag.FindAllSubmatch(src, -1) {
			for _, alt := range strings.Split(string(m[1]), "|") {
				alt, _, _ = strings.Cut(alt, "/")
				if alt == "^$" {
					continue
				}
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("%s: -run alternative %q: %v", wf, alt, err)
					continue
				}
				if !matchesAny(re, names) {
					t.Errorf("%s: -run alternative %q names no Test, Fuzz or Benchmark function", wf, alt)
				}
			}
		}
	}
}

// matchesAny reports whether re matches one of names, as go test's -run does:
// anywhere in the name.
func matchesAny(re *regexp.Regexp, names []string) bool {
	for _, n := range names {
		if re.MatchString(n) {
			return true
		}
	}
	return false
}
