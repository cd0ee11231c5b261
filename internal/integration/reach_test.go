package integration

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// reachAllow is the allowlist `make reach` gates on: the functions no
// command, drill, example or benchmark workload reaches, each keyed
// "repro/path/file.go Func" under a "# reason:" line.
const reachAllow = "testdata/reach.allow"

// TestReachAllowlistIsLive checks the allowlist without a coverage run: every
// entry sits under a "# reason:" line, appears once, and names a function or
// method that the file it gives declares. Code deleted without pruning the
// list fails here, in go test ./..., and not only in the coverage job.
func TestReachAllowlistIsLive(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(reachAllow)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	declared := map[string]map[string]bool{} // file -> names of its funcs and methods
	seen := map[string]int{}                 // entry -> its line
	reasoned := false
	for i, line := range strings.Split(string(data), "\n") {
		n, line := i+1, strings.TrimSpace(line)
		if reason, ok := strings.CutPrefix(line, "# reason:"); ok {
			if strings.TrimSpace(reason) == "" {
				t.Errorf("%s:%d: empty reason", reachAllow, n)
			}
			reasoned = true
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 || !strings.HasPrefix(f[0], module+"/") || !strings.HasSuffix(f[0], ".go") {
			t.Errorf("%s:%d: %q is not \"%s/path/file.go Func\"", reachAllow, n, line, module)
			continue
		}
		if !reasoned {
			t.Errorf("%s:%d: %s sits under no \"# reason:\" line", reachAllow, n, line)
		}
		if prev, dup := seen[line]; dup {
			t.Errorf("%s:%d: %s repeats line %d", reachAllow, n, line, prev)
		}
		seen[line] = n
		names, ok := declared[f[0]]
		if !ok {
			names = map[string]bool{}
			path := filepath.Join(root, filepath.FromSlash(strings.TrimPrefix(f[0], module+"/")))
			file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Errorf("%s:%d: %v", reachAllow, n, err)
			}
			if file != nil {
				for _, d := range file.Decls {
					if fd, ok := d.(*ast.FuncDecl); ok {
						names[fd.Name.Name] = true
					}
				}
			}
			declared[f[0]] = names
		}
		if !names[f[1]] {
			t.Errorf("%s:%d: %s declares no function or method %s; drop the entry", reachAllow, n, f[0], f[1])
		}
	}
	if len(seen) == 0 {
		t.Errorf("%s lists no function", reachAllow)
	}
}
