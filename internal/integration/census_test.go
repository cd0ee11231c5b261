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
	"unicode"
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
		imports := localImports(f)
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

// localImports maps each package name f uses to the import path it names.
func localImports(f *ast.File) map[string]string {
	imports := map[string]string{}
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
	return imports
}

// TestEverySetterHasAnInstaller is the census for hooks and knobs: every
// exported Set* function or method declared in a non-test file under
// internal/ must be called — a function as pkg.SetX(, a method as .SetX( —
// from some non-test .go file outside its declaring directory; cmd/,
// examples/, benchmark/ and the other internal packages all count. A setter
// that only tests call is a path nothing runs: delete it, or give it an
// installer. Methods are matched by name, from syntax trees only, and
// internal/sim is exempt, as in the censuses above.
func TestEverySetterHasAnInstaller(t *testing.T) {
	// The setters kept without an installer, keyed "pkg Name", and why.
	exempt := map[string]string{
		"reactor SetInterceptor":   "test seam: the readiness-layer fault interceptor of the chaos suites",
		"reactor SetIOInterceptor": "test seam: the fd-level fault interceptor of the chaos suites",
		"chaos SetEnabled":         "test seam: a chaos suite turns injection off to watch the recovery",
		"gui SetValue":             "widget state the edtconfine analyzer corpora mutate",
		"gui SetHandler":           "widget state the edtconfine analyzer corpora mutate",
		"gui SetTitle":             "widget state the edtconfine analyzer corpora mutate",
		"gui SetVisible":           "widget state the edtconfine analyzer corpora mutate",
	}
	type setter struct {
		dir, name string // import path of the declaring directory, and Set*
		method    bool
	}
	declared := map[string]setter{} // "pkg Name" of every setter under census
	// calls holds, per call site form, the directories making it:
	// "importpath Name" for pkg.SetX(, "Name" for any other .SetX(.
	calls := map[string]map[string]bool{}
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
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if name := fd.Name.Name; len(name) > 3 && strings.HasPrefix(name, "Set") && unicode.IsUpper(rune(name[3])) {
					declared[f.Name.Name+" "+name] = setter{self, name, fd.Recv != nil}
				}
			}
		}
		imports := localImports(f)
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !strings.HasPrefix(sel.Sel.Name, "Set") {
				return true
			}
			form := sel.Sel.Name
			if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] != "" {
				form = imports[x.Name] + " " + form
			}
			if calls[form] == nil {
				calls[form] = map[string]bool{}
			}
			calls[form][self] = true
			return true
		})
		return nil
	})
	if len(declared) < 10 {
		t.Fatalf("found only %d setters under %s/internal: wrong root?", len(declared), root)
	}
	installed := func(s setter) bool {
		form := s.name
		if !s.method {
			form = s.dir + " " + s.name
		}
		for dir := range calls[form] {
			if dir != s.dir {
				return true
			}
		}
		return false
	}
	var keys []string
	for key := range declared {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		_, ok := exempt[key]
		switch has := installed(declared[key]); {
		case !has && !ok:
			t.Errorf("%s is called by no non-test .go file outside its own directory: delete it or install it", key)
		case has && ok:
			t.Errorf("%s is exempt but has an installer: drop the exemption", key)
		}
	}
	for key := range exempt {
		if _, ok := declared[key]; !ok {
			t.Errorf("the exemption %q names no setter: drop it", key)
		}
	}
}
