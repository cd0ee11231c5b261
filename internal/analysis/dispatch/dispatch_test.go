package dispatch_test

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/dispatch"
)

// TestClassifyDispatchSites runs the classifier over testdata/classify and
// checks where each entry point's literal runs. eventloop.Loop embeds its
// executor.WorkerPool, so the loop's Post, PostLabeled and InvokeAndWait stay
// EDT deliveries only while Loop declares them itself: were one promoted from
// the pool, go/types would resolve it to the pool's method and this table
// would see a worker delivery.
func TestClassifyDispatchSites(t *testing.T) {
	dir, err := filepath.Abs("testdata/classify")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := analysis.NewLoader().LoadDir(dir, "ompvet.test/classify")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range pkg.TypeErrors {
		t.Errorf("testdata must type-check: %v", e)
	}
	if t.Failed() {
		t.FailNow()
	}
	c := dispatch.NewClassifier(&analysis.Pass{Fset: pkg.Fset, Files: pkg.Files, Pkg: pkg.Types, TypesInfo: pkg.TypesInfo})

	type verdict struct {
		kind dispatch.Kind
		site string
	}
	got := map[string]verdict{} // by the call's function expression
	for _, f := range pkg.Files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			if lit, ok := n.(*ast.FuncLit); ok {
				if call, ok := stack[len(stack)-1].(*ast.CallExpr); ok {
					kind, site := c.ClassifyLit(lit, stack)
					got[types.ExprString(call.Fun)] = verdict{kind, site}
				}
			}
			stack = append(stack, n)
			return true
		})
	}

	for _, tc := range []struct {
		call string
		want verdict
	}{
		{"loop.Post", verdict{dispatch.EDT, "Loop.Post"}},
		{"loop.PostLabeled", verdict{dispatch.EDT, "Loop.PostLabeled"}},
		{"loop.InvokeAndWait", verdict{dispatch.EDT, "Loop.InvokeAndWait"}},
		{"pool.Post", verdict{dispatch.Worker, "WorkerPool.Post"}},
		{"tk.InvokeLater", verdict{dispatch.EDT, "Toolkit.InvokeLater"}},
	} {
		v, ok := got[tc.call]
		if !ok {
			t.Errorf("%s: no literal classified", tc.call)
			continue
		}
		if v != tc.want {
			t.Errorf("%s: classified %v at %q, want %v at %q", tc.call, v.kind, v.site, tc.want.kind, tc.want.site)
		}
	}
	if len(got) != 5 {
		t.Errorf("classified %d literals, want the table's 5: %v", len(got), got)
	}
}
