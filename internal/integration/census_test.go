package integration

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

const module = "repro"

// walkGoFiles calls visit with every .go file of the repository — dot
// directories and testdata skipped, the nested benchmark/ module included —
// and the import path of its directory, and returns the repository root.
func walkGoFiles(t *testing.T, visit func(path, dir string) error) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
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
		return visit(path, module+"/"+filepath.ToSlash(rel))
	})
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// TestEveryInternalPackageIsImported is the census as a gate: a package
// under internal/ that no .go file outside its own directory imports —
// tests, cmd/, examples/ and the nested benchmark/ module all count as
// importers — is dead weight and fails here. It reads import clauses only
// (no go list, no exec), so it also sees benchmark/, which the root
// module's ./... does not.
func TestEveryInternalPackageIsImported(t *testing.T) {
	// Packages that exist to be run, not imported: this one, the test
	// helpers, and the schedule explorer, whose scenarios are its own
	// external tests (`make explore`).
	exempt := func(pkg string) bool {
		return pkg == module+"/internal/integration" || pkg == module+"/internal/sim" ||
			strings.HasPrefix(pkg, module+"/internal/testutil/")
	}

	packages := map[string]bool{} // import path of every directory under internal/ holding .go files
	imported := map[string]bool{} // import paths some file in another directory imports
	fset := token.NewFileSet()
	root := walkGoFiles(t, func(path, self string) error {
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

// TestEveryConfigFieldIsSet is the same census for configuration: every
// exported field of an exported struct under internal/ named Options or
// ending in Config must be the key of a pkg.Type{…} literal in some non-test
// .go file outside the declaring directory — cmd/, examples/, benchmark/ and
// the other internal packages all count as setters. A field only a test sets
// is a policy nothing runs: delete it, or give it a caller. It reads syntax
// trees only, like the import census, and exempts internal/sim for the same
// reason.
func TestEveryConfigFieldIsSet(t *testing.T) {
	declared := map[string]bool{} // "importpath.Type.Field" of every field under census
	set := map[string]bool{}      // the same keys, for each literal key a non-test file writes
	fset := token.NewFileSet()
	root := walkGoFiles(t, func(path, self string) error {
		if strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if strings.HasPrefix(self, module+"/internal/") && self != module+"/internal/sim" {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok || !ts.Name.IsExported() || !(ts.Name.Name == "Options" || strings.HasSuffix(ts.Name.Name, "Config")) {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, field := range st.Fields.List {
						for _, name := range field.Names {
							if name.IsExported() {
								declared[self+"."+ts.Name.Name+"."+name.Name] = true
							}
						}
					}
				}
			}
		}
		imports := map[string]string{} // local package name → import path
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			local := p[strings.LastIndex(p, "/")+1:]
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imports[local] = p
		}
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			sel, ok := lit.Type.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, ok := sel.X.(*ast.Ident)
			if !ok || imports[pkg.Name] == "" {
				return true
			}
			for _, elt := range lit.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if key, ok := kv.Key.(*ast.Ident); ok {
						set[imports[pkg.Name]+"."+sel.Sel.Name+"."+key.Name] = true
					}
				}
			}
			return true
		})
		return nil
	})
	if len(declared) < 20 {
		t.Fatalf("found only %d configuration fields under %s/internal: wrong root?", len(declared), root)
	}
	var unset []string
	for field := range declared {
		if !set[field] {
			unset = append(unset, field)
		}
	}
	sort.Strings(unset)
	for _, field := range unset {
		t.Errorf("%s is set by no non-test .go file outside its own directory: delete it or set it", strings.TrimPrefix(field, module+"/"))
	}
}
