package integration

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestEveryInternalPackageIsImported is the census as a gate: a package
// under internal/ that no .go file outside its own directory imports —
// tests, cmd/, examples/ and the nested benchmark/ module all count as
// importers — is dead weight and fails here. It reads import clauses only
// (no go list, no exec), so it also sees benchmark/, which the root
// module's ./... does not.
func TestEveryInternalPackageIsImported(t *testing.T) {
	const module = "repro"
	// Packages that exist to be run, not imported: this one, the test
	// helpers, and the schedule explorer, whose scenarios are its own
	// external tests (`make explore`).
	exempt := func(pkg string) bool {
		return pkg == module+"/internal/integration" || pkg == module+"/internal/sim" ||
			strings.HasPrefix(pkg, module+"/internal/testutil/")
	}

	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	packages := map[string]bool{} // import path of every directory under internal/ holding .go files
	imported := map[string]bool{} // import paths some file in another directory imports
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		self := module + "/" + filepath.ToSlash(rel)
		if strings.HasPrefix(self, module+"/internal/") {
			packages[self] = true
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if p, err := strconv.Unquote(imp.Path.Value); err == nil && p != self {
				imported[p] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(packages) < 20 {
		t.Fatalf("found only %d packages under %s/internal: wrong root?", len(packages), root)
	}
	var dead []string
	for pkg := range packages {
		if !imported[pkg] && !exempt(pkg) {
			dead = append(dead, pkg)
		}
	}
	sort.Strings(dead)
	for _, pkg := range dead {
		t.Errorf("%s is imported by no .go file outside its own directory: delete it or use it", pkg)
	}
}
